/* Token walks: the loops of protocols._run_walk, draw for draw and bit for
 * bit.  tg_walk_continuous is the continuous-clock loop (an exponential
 * wait, a uniform pick of the firing token, then handle_send);
 * tg_walk_discrete repeats synchronous_round.  Both release and receive
 * tokens through release() and receive(), the C twins of
 * protocols._release and protocols.handle_receive.
 *
 * The random draws stay in numpy.  The caller passes the sampler's current
 * uniform (and exponential) blocks with their cursors; when the walk needs
 * a draw from a used-up block it returns NEED_UNIFORM or NEED_EXPONENTIAL
 * with its progress saved in iv[STAGE] and iv[PENDING] (and, in a round,
 * in iv[CURSOR], the snapshot of the active list and the deliveries so
 * far), and the caller refills that one block and calls again.  A block is
 * refilled only when a draw from it is needed, as the Python sampler does,
 * so the generator's stream is the same on both paths.
 *
 * State crosses in two buffers, laid out as below (n nodes): I holds the
 * scalars iv, then counts, the active list, active positions, sends,
 * receives, SUM/MAX values (MAX's -inf identity is INT64_MIN), the curve
 * points' counts and messages and, for tg_walk_discrete only, the round's
 * snapshot of the active list and its deliveries' receivers, values and
 * counts; D holds the scalars dv, then the weighted averages' estimates and
 * weights, the curve points' times and, for tg_walk_discrete only, the
 * deliveries' estimates and weights.
 *
 * Build with -ffp-contract=off: a fused multiply-add would round the
 * weighted average differently from Python.
 */
#include <stdint.h>

enum { DONE, MAX_TIME, NEED_UNIFORM, NEED_EXPONENTIAL, SUM_OVERFLOW, CURVE_FULL };
enum { SUM, MAX, WAVG };
/* slots of iv */
enum { NACTIVE, ETA, HOLDER, ACTIVE_ACTIVE, UI, EI, NPOINTS, STAGE, PENDING, ERR_J, ERR_V,
       ROUNDS, CURSOR, NSNAP, NDELIV, NIV };
/* slots of dv */
enum { T, MAX_T, LAZY, NDV };

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

/* node i gives up its payload and permit (protocols._release) */
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

/* node j fuses payload p and gains the permit (protocols.handle_receive);
 * returns 1, leaving j untouched, when a SUM overflows */
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

static void pack(const walk_t *s, int64_t *I)
{
    I[NACTIVE] = s->k;
    I[ETA] = s->eta;
    I[HOLDER] = s->holder;
}

int tg_walk_continuous(
    int64_t n, const int64_t *indptr, const int64_t *indices,
    int64_t fusion, int64_t hybrid, int64_t terminating, uint8_t *status,
    const double *u, const double *e, int64_t block, int64_t *I, double *D)
{
    walk_t s = unpack(n, fusion, status, I, D);
    int64_t *iv = I, *sends = s.sends, *receives = s.receives, *active = s.active;
    int64_t *pt_count = s.ival + n, *pt_eta = pt_count + n + 1;
    double *dv = D, *yv = s.yv, *wv = s.wv, *pt_t = wv + n;
    const int64_t pt_cap = n + 1;
    int64_t active_active = iv[ACTIVE_ACTIVE], ui = iv[UI], ei = iv[EI];
    int64_t npoints = iv[NPOINTS], stage = iv[STAGE], i = iv[PENDING];
    double t = dv[T];
    const double max_t = dv[MAX_T];
    int rc;
    for (;;) {
        if (stage == 0) {
            if (terminating && s.holder >= 0) {
                rc = DONE;
                break;
            }
            if (ei == block) {
                rc = NEED_EXPONENTIAL;
                break;
            }
            double nt = t + e[ei++] / (double)s.k;
            if (nt > max_t) {
                t = max_t;
                rc = MAX_TIME;
                break;
            }
            t = nt;
            stage = 1;
        }
        if (stage == 1) {
            if (ui == block) {
                rc = NEED_UNIFORM;
                break;
            }
            i = active[(int64_t)(u[ui++] * (double)s.k)];
            stage = 2;
        }
        if (ui == block) {
            rc = NEED_UNIFORM;
            break;
        }
        const int64_t lo = indptr[i];
        const int64_t j = indices[lo + (int64_t)(u[ui++] * (double)(indptr[i + 1] - lo))];
        stage = 0;
        if (hybrid && status[j]) {
            /* active-to-active contact: both relax, both keep their permits */
            const double yi = yv[i], wi = wv[i], yj = yv[j], wj = wv[j];
            const double w = wi + wj;
            const double ym = w > 0 ? (wi * yi + wj * yj) / w : 0.0;
            yv[i] = yv[j] = ym;
            wv[i] = wv[j] = w * 0.5;
            s.eta += 2;
            sends[i] += 1;
            sends[j] += 1;
            receives[i] += 1;
            receives[j] += 1;
            active_active += 1;
            continue;
        }
        const int64_t before = s.k;
        const payload_t p = release(&s, i);
        if (receive(&s, j, p)) {
            iv[ERR_J] = j;
            iv[ERR_V] = p.v;
            rc = SUM_OVERFLOW;
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
    iv[UI] = ui;
    iv[EI] = ei;
    iv[NPOINTS] = npoints;
    iv[STAGE] = stage;
    iv[PENDING] = i;
    dv[T] = t;
    return rc;
}

/* Rounds of synchronous_round: every token of the round's snapshot of the
 * active list holds (one uniform below the lazy probability; no draw when
 * it is 0) or is released towards a uniform neighbour, and only then are
 * the deliveries received, in order.  iv[STAGE] is 0 at the top of a round,
 * 1 before the hold draw of the snapshot's token iv[CURSOR], 2 before its
 * neighbour draw. */
int tg_walk_discrete(
    int64_t n, const int64_t *indptr, const int64_t *indices,
    int64_t fusion, int64_t terminating, uint8_t *status,
    const double *u, int64_t block, int64_t *I, double *D)
{
    walk_t s = unpack(n, fusion, status, I, D);
    int64_t *iv = I, *pt_count = s.ival + n, *pt_eta = pt_count + n + 1;
    int64_t *snap = pt_eta + n + 1, *dj = snap + n, *dval = dj + n, *dcount = dval + n;
    double *dv = D, *pt_t = s.wv + n, *dy = pt_t + n + 1, *dw = dy + n;
    const int64_t pt_cap = n + 1;
    int64_t ui = iv[UI], npoints = iv[NPOINTS], stage = iv[STAGE], rounds = iv[ROUNDS];
    int64_t r = iv[CURSOR], nsnap = iv[NSNAP], nd = iv[NDELIV];
    double t = dv[T];
    const double max_t = dv[MAX_T], lazy = dv[LAZY];
    int rc;
    for (;;) {
        if (stage == 0) {
            if (terminating && s.holder >= 0) {
                rc = DONE;
                break;
            }
            if (t + 1.0 > max_t) {
                rc = MAX_TIME;
                break;
            }
            nsnap = s.k;
            for (int64_t a = 0; a < nsnap; a++)
                snap[a] = s.active[a];
            r = nd = 0;
            stage = 1;
        }
        for (; r < nsnap; r++) {
            const int64_t i = snap[r];
            if (stage == 1 && lazy != 0.0) {
                if (ui == block)
                    break;
                if (u[ui++] < lazy)
                    continue;
            }
            if (ui == block) {
                stage = 2;
                break;
            }
            const int64_t lo = indptr[i];
            dj[nd] = indices[lo + (int64_t)(u[ui++] * (double)(indptr[i + 1] - lo))];
            stage = 1;
            const payload_t p = release(&s, i);
            dval[nd] = p.v;
            dcount[nd] = p.c;
            dy[nd] = p.y;
            dw[nd] = p.w;
            nd += 1;
        }
        if (r < nsnap) {
            rc = NEED_UNIFORM;
            break;
        }
        const int64_t before = nsnap;
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
        stage = 0;
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
    iv[UI] = ui;
    iv[NPOINTS] = npoints;
    iv[STAGE] = stage;
    iv[ROUNDS] = rounds;
    iv[CURSOR] = r;
    iv[NSNAP] = nsnap;
    iv[NDELIV] = nd;
    dv[T] = t;
    return rc;
}
