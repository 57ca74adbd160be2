"""Decomposable aggregate functions and the payloads tokens carry.

A fusion kind is a commutative binary operation ``f`` with an identity
element ``e`` such that folding ``f`` over any split of a value multiset
gives the same aggregate.  Three instances are built in: exact integer
sum, integer max, and weighted averaging over ``(estimate, weight)``
pairs.  The identity satisfies ``f(x, e) = f(e, x) = x``; a node that has
handed off its token is left holding exactly ``e`` with count zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Iterable, Tuple, Union

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

#: Identity for Max fusion.  A dedicated -inf sentinel, never a finite
#: value that a sensor reading could collide with.
MAX_IDENTITY = float("-inf")

FusionValue = Union[int, float, Tuple[float, float]]


class FusionError(ValueError):
    """Value incompatible with the fusion kind, or an overflow."""


class FusionKind(str, Enum):
    SUM = "sum"
    MAX = "max"
    WEIGHTED_AVG = "wavg"


def _check_int64(v: int) -> int:
    if not (INT64_MIN <= v <= INT64_MAX):
        raise OverflowError(f"sum fusion overflowed 64-bit range: {v}")
    return v


def _fuse_sum(a: int, b: int) -> int:
    return _check_int64(a + b)


def _fuse_max(a, b):
    return a if a >= b else b


def _fuse_wavg(a: Tuple[float, float], b: Tuple[float, float]) -> Tuple[float, float]:
    ya, wa = a
    yb, wb = b
    # Zero-weight operands act as exact identities; going through the
    # formula would introduce rounding (wa*ya/wa != ya in floats).
    if wa == 0.0:
        return (yb, wb) if wb != 0.0 else (0.0, 0.0)
    if wb == 0.0:
        return (ya, wa)
    w = wa + wb
    return ((wa * ya + wb * yb) / w, w)


_FUSE = {
    FusionKind.SUM: _fuse_sum,
    FusionKind.MAX: _fuse_max,
    FusionKind.WEIGHTED_AVG: _fuse_wavg,
}

_IDENTITY = {
    FusionKind.SUM: 0,
    FusionKind.MAX: MAX_IDENTITY,
    FusionKind.WEIGHTED_AVG: (0.0, 0.0),
}


@dataclass(frozen=True)
class FusionSpec:
    """A fusion kind together with its identity element and binary step."""

    kind: FusionKind

    @property
    def identity(self) -> FusionValue:
        return _IDENTITY[self.kind]

    @property
    def fuse(self):
        """The unchecked binary step, suitable for hot loops.

        Overflow is still checked for SUM; kind/type validation is the
        caller's job (see the module-level :func:`fuse`).
        """
        return _FUSE[self.kind]

    def validate_values(self, values: list) -> None:
        """``validate_value`` for every value of ``values``.  A list of
        plain ints within int64 (for MAX, plain ints and -inf) is checked
        in one pass; any other list is checked value by value, so that the
        first bad value raises its own error."""
        types = set(map(type, values))
        if self.kind is FusionKind.SUM:
            if types == {int} and INT64_MIN <= min(values) and max(values) <= INT64_MAX:
                return
        elif self.kind is FusionKind.MAX and types <= {int, float}:
            # ints never equal -inf, so every float is -inf when the floats
            # are as many as the -infs
            if list(map(type, values)).count(float) == values.count(MAX_IDENTITY):
                return
        for v in values:
            self.validate_value(v)

    def validate_value(self, v: FusionValue) -> None:
        if self.kind is FusionKind.SUM:
            if not isinstance(v, int) or isinstance(v, bool):
                raise FusionError(f"sum fusion needs an int, got {v!r}")
            _check_int64(v)
        elif self.kind is FusionKind.MAX:
            if v == MAX_IDENTITY:
                return
            if not isinstance(v, int) or isinstance(v, bool):
                raise FusionError(f"max fusion needs an int or -inf, got {v!r}")
        else:
            if (
                not isinstance(v, tuple)
                or len(v) != 2
                or not all(isinstance(c, (int, float)) for c in v)
            ):
                raise FusionError(f"weighted-avg fusion needs a (y, w) pair, got {v!r}")
            if any(isinstance(c, float) and not math.isfinite(c) for c in v):
                raise FusionError(f"weighted-avg estimate and weight must be finite, got {v!r}")
            if v[1] < 0:
                raise FusionError(f"weighted-avg weight must be nonnegative, got {v!r}")


@dataclass(frozen=True)
class TokenPayload:
    """The (value, count) pair a token carries: the running aggregate and
    the number of original sensor values fused into it."""

    value: FusionValue
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise FusionError(f"payload count must be nonnegative, got {self.count}")


def sum_fusion() -> FusionSpec:
    return FusionSpec(FusionKind.SUM)


def max_fusion() -> FusionSpec:
    return FusionSpec(FusionKind.MAX)


def weighted_avg_fusion() -> FusionSpec:
    return FusionSpec(FusionKind.WEIGHTED_AVG)


def fusion_from_name(name: str) -> FusionSpec:
    return FusionSpec(FusionKind(name))


def fuse(spec: FusionSpec, a: FusionValue, b: FusionValue) -> FusionValue:
    """Apply the atomic binary step of ``spec`` to two validated values."""
    spec.validate_value(a)
    spec.validate_value(b)
    return spec.fuse(a, b)


def fold(spec: FusionSpec, values: Iterable[FusionValue]) -> FusionValue:
    """Left-fold the binary step over ``values``.

    By decomposability the result equals any tree-shaped fold over the
    same multiset (exactly for SUM/MAX, up to rounding for weighted
    averages).
    """
    values = list(values)
    if not values:
        raise FusionError("fold over an empty sequence has no defined value")
    spec.validate_values(values)
    return reduce(spec.fuse, values)


def fuse_payload(spec: FusionSpec, p: TokenPayload, q: TokenPayload) -> TokenPayload:
    """Merge two token payloads: values fuse, counts add."""
    count = p.count + q.count
    if count > INT64_MAX:
        raise OverflowError("payload count overflowed 64-bit range")
    return TokenPayload(fuse(spec, p.value, q.value), count)
