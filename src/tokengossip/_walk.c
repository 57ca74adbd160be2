/* Token walks that match the tests' reference loops
 * (tests/reference_loops.py) draw for draw and bit for bit.
 * tg_walk_continuous is the continuous-clock loop: an exponential wait, a
 * uniform pick of the firing token, then a send to a uniform neighbour.
 * tg_walk_discrete runs synchronized rounds.  Both release and receive
 * tokens through release() and receive().  A token on a node without
 * neighbours sends nothing and draws no neighbour.
 *
 * Gossip is the fixed-k hybrid with every node active and weight 1, where
 * relax() gives (1*yi + 1*yj)/2, bit for bit (yi + yj)*0.5.  It pauses
 * after the relax that brings iv[ACTIVE_ACTIVE] to iv[PAUSE] or its running
 * q -= 0.5*(yi - yj)^2 to dv[THRESHOLD]; the hybrid passes -1 and NaN.
 *
 * The caller passes the state's numpy bit generator.  Each variate is drawn
 * from it where it is used, in event order, by numpy's own samplers (the
 * ones behind Generator.random and Generator.standard_exponential).
 *
 * With CHECK bits set in iv, the walk checks after every event (every
 * round, on the discrete clock) that the counts sum to n, that the SUM or
 * MAX values still sum or max to iv[EXPECTED], and that one token is
 * active, and stops with BROKEN when one fails.
 *
 * State crosses in two buffers, laid out as below (n nodes): I holds the
 * scalars iv, then counts, the active list, active positions, sends,
 * receives, SUM/MAX values (MAX's -inf identity is INT64_MIN), the curve
 * points' counts and messages and, for tg_walk_discrete only, scratch for a
 * round's snapshot of the active list and its deliveries' receivers, values
 * and counts; D holds the scalars dv, then the weighted averages' estimates
 * and weights, the curve points' times and, for tg_walk_discrete only,
 * scratch for the deliveries' estimates and weights.
 *
 * Build with -ffp-contract=off: a fused multiply-add would round the
 * weighted average differently from Python.
 */
#include <stdint.h>

#include "numpy/random/bitgen.h"

/* numpy's samplers, from libnpyrandom.a (numpy/random/distributions.h
 * declares them but needs Python.h) */
double random_standard_uniform(bitgen_t *);
double random_standard_exponential(bitgen_t *);

enum { DONE, MAX_TIME, SUM_OVERFLOW, CURVE_FULL, BROKEN, PAUSED };
enum { SUM, MAX, WAVG };
enum { CHECK_COUNTS = 1, CHECK_VALUES = 2, CHECK_ONE_TOKEN = 4 };
/* slots of iv */
enum { NACTIVE, ETA, HOLDER, ACTIVE_ACTIVE, NPOINTS, ERR_J, ERR_V, ROUNDS, CHECK, EXPECTED, PAUSE,
       TERMINATING, NIV };
/* slots of dv */
enum { T, MAX_T, LAZY, Q, THRESHOLD, NDV };

/* the node arrays of a walk and its scalars */
typedef struct {
    int64_t n, fusion, k, eta, holder;
    uint8_t *status;
    int64_t *counts, *active, *active_pos, *sends, *receives, *ival;
    double *yv, *wv;
} walk_t;

/* a released token: its SUM/MAX value or weighted average, and its count */
typedef struct {
    int64_t v, c;
    double y, w;
} payload_t;

static walk_t unpack(int64_t n, int64_t fusion, uint8_t *status, int64_t *I, double *D)
{
    walk_t s;
    s.n = n;
    s.fusion = fusion;
    s.status = status;
    s.counts = I + NIV;
    s.active = s.counts + n;
    s.active_pos = s.active + n;
    s.sends = s.active_pos + n;
    s.receives = s.sends + n;
    s.ival = s.receives + n;
    s.yv = D + NDV;
    s.wv = s.yv + n;
    s.k = I[NACTIVE];
    s.eta = I[ETA];
    s.holder = I[HOLDER];
    return s;
}

/* node i gives up its payload and permit */
static inline payload_t release(walk_t *s, int64_t i)
{
    payload_t p = {0, 0, 0.0, 0.0};
    if (s->fusion == WAVG) {
        p.y = s->yv[i];
        p.w = s->wv[i];
        s->yv[i] = 0.0;
        s->wv[i] = 0.0;
    } else {
        p.v = s->ival[i];
        s->ival[i] = s->fusion == SUM ? 0 : INT64_MIN;
    }
    p.c = s->counts[i];
    s->counts[i] = 0;
    const int64_t pos = s->active_pos[i], last = s->active[s->k - 1];
    s->active[pos] = last;
    s->active_pos[last] = pos;
    s->k -= 1;
    s->active_pos[i] = -1;
    s->status[i] = 0;
    s->sends[i] += 1;
    s->eta += 1;
    return p;
}

/* node j fuses payload p and gains the permit; returns 1, leaving j
 * untouched, when a SUM overflows */
static inline int receive(walk_t *s, int64_t j, payload_t p)
{
    if (s->fusion == SUM) {
        int64_t sum;
        if (__builtin_add_overflow(s->ival[j], p.v, &sum))
            return 1;
        s->ival[j] = sum;
    } else if (s->fusion == MAX) {
        if (p.v > s->ival[j])
            s->ival[j] = p.v;
    } else if (s->wv[j] == 0.0) {
        if (p.w != 0.0) {
            s->yv[j] = p.y;
            s->wv[j] = p.w;
        } else {
            s->yv[j] = 0.0;
            s->wv[j] = 0.0;
        }
    } else if (p.w != 0.0) {
        const double wa = s->wv[j], w = wa + p.w;
        s->yv[j] = (wa * s->yv[j] + p.w * p.y) / w;
        s->wv[j] = w;
    }
    const int64_t cj = s->counts[j] + p.c;
    s->counts[j] = cj;
    s->receives[j] += 1;
    if (!s->status[j]) {
        s->status[j] = 1;
        s->active_pos[j] = s->k;
        s->active[s->k] = j;
        s->k += 1;
    }
    if (cj == s->n)
        s->holder = j;
    return 0;
}

/* whether a check of the CHECK bits fails; sums wrap, so a SUM that
 * overflowed int64 on the way still compares exactly */
static int broken(const walk_t *s, int64_t check, int64_t expected)
{
    uint64_t count = 0, sum = 0;
    int64_t max = INT64_MIN;
    for (int64_t i = 0; i < s->n; i++) {
        count += (uint64_t)s->counts[i];
        sum += (uint64_t)s->ival[i];
        if (s->ival[i] > max)
            max = s->ival[i];
    }
    if ((check & CHECK_COUNTS) && count != (uint64_t)s->n)
        return 1;
    if ((check & CHECK_VALUES) && (s->fusion == SUM ? sum != (uint64_t)expected : max != expected))
        return 1;
    return (check & CHECK_ONE_TOKEN) && s->k != 1;
}

static void pack(const walk_t *s, int64_t *I)
{
    I[NACTIVE] = s->k;
    I[ETA] = s->eta;
    I[HOLDER] = s->holder;
}

/* an active-to-active contact of the fixed-k hybrid: both weighted
 * averages relax, and both nodes keep their permits */
static inline void relax(walk_t *s, int64_t i, int64_t j)
{
    double *yv = s->yv, *wv = s->wv;
    const double yi = yv[i], wi = wv[i], yj = yv[j], wj = wv[j];
    const double w = wi + wj;
    const double ym = w > 0 ? (wi * yi + wj * yj) / w : 0.0;
    yv[i] = yv[j] = ym;
    wv[i] = wv[j] = w * 0.5;
    s->eta += 2;
    s->sends[i] += 1;
    s->sends[j] += 1;
    s->receives[i] += 1;
    s->receives[j] += 1;
}

int tg_walk_continuous(
    int64_t n, const int64_t *indptr, const int64_t *indices, int64_t fusion, int64_t hybrid,
    uint8_t *status, bitgen_t *bg, int64_t *I, double *D)
{
    walk_t s = unpack(n, fusion, status, I, D);
    int64_t *iv = I, *active = s.active;
    int64_t *pt_count = s.ival + n, *pt_eta = pt_count + n + 1;
    double *dv = D, *pt_t = s.wv + n;
    const int64_t pt_cap = n + 1, check = iv[CHECK], expected = iv[EXPECTED], pause = iv[PAUSE];
    const int64_t terminating = iv[TERMINATING];
    int64_t active_active = iv[ACTIVE_ACTIVE], npoints = iv[NPOINTS];
    double t = dv[T], q = dv[Q];
    const double max_t = dv[MAX_T], threshold = dv[THRESHOLD];
    int rc;
    for (;;) {
        if (terminating && s.holder >= 0) {
            rc = DONE;
            break;
        }
        const double nt = t + random_standard_exponential(bg) / (double)s.k;
        if (nt > max_t) {
            t = max_t;
            rc = MAX_TIME;
            break;
        }
        t = nt;
        const int64_t i = active[(int64_t)(random_standard_uniform(bg) * (double)s.k)];
        const int64_t lo = indptr[i], deg = indptr[i + 1] - lo, before = s.k;
        if (deg > 0) {
            const int64_t j = indices[lo + (int64_t)(random_standard_uniform(bg) * (double)deg)];
            if (hybrid && status[j]) {
                const double d = s.yv[i] - s.yv[j];
                relax(&s, i, j);
                q -= 0.5 * d * d;
                if (++active_active == pause || q <= threshold) {
                    rc = PAUSED;
                    break;
                }
            } else {
                const payload_t p = release(&s, i);
                if (receive(&s, j, p)) {
                    iv[ERR_J] = j;
                    iv[ERR_V] = p.v;
                    rc = SUM_OVERFLOW;
                    break;
                }
            }
        }
        if (check && broken(&s, check, expected)) {
            rc = BROKEN;
            break;
        }
        if (s.k != before) {
            if (npoints == pt_cap) {
                rc = CURVE_FULL;
                break;
            }
            pt_t[npoints] = t;
            pt_count[npoints] = s.k;
            pt_eta[npoints] = s.eta;
            npoints += 1;
        }
    }
    pack(&s, I);
    iv[ACTIVE_ACTIVE] = active_active;
    iv[NPOINTS] = npoints;
    dv[T] = t;
    dv[Q] = q;
    return rc;
}

/* Synchronized rounds: every token of the round's snapshot of the active
 * list holds (one uniform below the lazy probability; no draw when it is
 * 0) or is released towards a uniform neighbour, and only then are the
 * deliveries received, in order. */
int tg_walk_discrete(
    int64_t n, const int64_t *indptr, const int64_t *indices, int64_t fusion,
    uint8_t *status, bitgen_t *bg, int64_t *I, double *D)
{
    walk_t s = unpack(n, fusion, status, I, D);
    int64_t *iv = I, *pt_count = s.ival + n, *pt_eta = pt_count + n + 1;
    int64_t *snap = pt_eta + n + 1, *dj = snap + n, *dval = dj + n, *dcount = dval + n;
    double *dv = D, *pt_t = s.wv + n, *dy = pt_t + n + 1, *dw = dy + n;
    const int64_t pt_cap = n + 1, check = iv[CHECK], expected = iv[EXPECTED];
    const int64_t terminating = iv[TERMINATING];
    int64_t npoints = iv[NPOINTS], rounds = iv[ROUNDS];
    double t = dv[T];
    const double max_t = dv[MAX_T], lazy = dv[LAZY];
    int rc;
    for (;;) {
        if (terminating && s.holder >= 0) {
            rc = DONE;
            break;
        }
        if (t + 1.0 > max_t) {
            rc = MAX_TIME;
            break;
        }
        const int64_t nsnap = s.k;
        for (int64_t a = 0; a < nsnap; a++)
            snap[a] = s.active[a];
        int64_t nd = 0;
        for (int64_t r = 0; r < nsnap; r++) {
            const int64_t i = snap[r];
            if (lazy != 0.0 && random_standard_uniform(bg) < lazy)
                continue;
            const int64_t lo = indptr[i], deg = indptr[i + 1] - lo;
            if (deg == 0)
                continue;
            dj[nd] = indices[lo + (int64_t)(random_standard_uniform(bg) * (double)deg)];
            const payload_t p = release(&s, i);
            dval[nd] = p.v;
            dcount[nd] = p.c;
            dy[nd] = p.y;
            dw[nd] = p.w;
            nd += 1;
        }
        int64_t d;
        for (d = 0; d < nd; d++) {
            const payload_t p = {dval[d], dcount[d], dy[d], dw[d]};
            if (receive(&s, dj[d], p))
                break;
        }
        if (d < nd) {
            iv[ERR_J] = dj[d];
            iv[ERR_V] = dval[d];
            rc = SUM_OVERFLOW;
            break;
        }
        t += 1.0;
        rounds += 1;
        if (check && broken(&s, check, expected)) {
            rc = BROKEN;
            break;
        }
        if (s.k != nsnap) {
            if (npoints == pt_cap) {
                rc = CURVE_FULL;
                break;
            }
            pt_t[npoints] = t;
            pt_count[npoints] = s.k;
            pt_eta[npoints] = s.eta;
            npoints += 1;
        }
    }
    pack(&s, I);
    iv[NPOINTS] = npoints;
    iv[ROUNDS] = rounds;
    dv[T] = t;
    return rc;
}
