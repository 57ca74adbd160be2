/* Continuous-time token walk: the continuous-clock loop of
 * protocols._run_walk (an exponential wait, a uniform pick of the firing
 * token, then handle_send), draw for draw and bit for bit.
 *
 * The random draws stay in numpy.  The caller passes the sampler's current
 * uniform and exponential blocks with their cursors; when the walk needs a
 * draw from a used-up block it returns NEED_UNIFORM or NEED_EXPONENTIAL with
 * its progress through the current event saved in iv[STAGE] and
 * iv[PENDING], and the caller refills that one block and calls again.  A
 * block is refilled only when a draw from it is needed, as the Python
 * sampler does, so the generator's stream is the same on both paths.
 *
 * State crosses in two buffers, laid out as below (n nodes): I holds the
 * scalars iv, then counts, the active list, active positions, sends,
 * receives, SUM/MAX values (MAX's -inf identity is INT64_MIN) and the curve
 * points' counts and messages; D holds the scalars dv, then the weighted
 * averages' estimates and weights and the curve points' times.
 *
 * Build with -ffp-contract=off: a fused multiply-add would round the
 * weighted average differently from Python.
 */
#include <stdint.h>

enum { DONE, MAX_TIME, NEED_UNIFORM, NEED_EXPONENTIAL, SUM_OVERFLOW, CURVE_FULL };
enum { SUM, MAX, WAVG };
/* slots of iv */
enum { NACTIVE, ETA, HOLDER, ACTIVE_ACTIVE, UI, EI, NPOINTS, STAGE, PENDING, ERR_J, ERR_V, NIV };
/* slots of dv */
enum { T, MAX_T, NDV };

int tg_walk_continuous(
    int64_t n, const int64_t *indptr, const int64_t *indices,
    int64_t fusion, int64_t hybrid, int64_t terminating, uint8_t *status,
    const double *u, const double *e, int64_t block, int64_t *I, double *D)
{
    int64_t *iv = I, *counts = I + NIV, *active = counts + n, *active_pos = active + n;
    int64_t *sends = active_pos + n, *receives = sends + n, *ival = receives + n;
    int64_t *pt_count = ival + n, *pt_eta = pt_count + n + 1;
    double *dv = D, *yv = D + NDV, *wv = yv + n, *pt_t = wv + n;
    const int64_t pt_cap = n + 1;
    int64_t k = iv[NACTIVE], eta = iv[ETA], holder = iv[HOLDER];
    int64_t active_active = iv[ACTIVE_ACTIVE], ui = iv[UI], ei = iv[EI];
    int64_t npoints = iv[NPOINTS], stage = iv[STAGE], i = iv[PENDING];
    double t = dv[T];
    const double max_t = dv[MAX_T];
    int rc;
    for (;;) {
        if (stage == 0) {
            if (terminating && holder >= 0) {
                rc = DONE;
                break;
            }
            if (ei == block) {
                rc = NEED_EXPONENTIAL;
                break;
            }
            double nt = t + e[ei++] / (double)k;
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
            i = active[(int64_t)(u[ui++] * (double)k)];
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
            eta += 2;
            sends[i] += 1;
            sends[j] += 1;
            receives[i] += 1;
            receives[j] += 1;
            active_active += 1;
            continue;
        }
        /* the sender releases its payload and permit */
        int64_t v = 0;
        double y = 0.0, wt = 0.0;
        if (fusion == WAVG) {
            y = yv[i];
            wt = wv[i];
            yv[i] = 0.0;
            wv[i] = 0.0;
        } else {
            v = ival[i];
            ival[i] = fusion == SUM ? 0 : INT64_MIN;
        }
        const int64_t c = counts[i];
        counts[i] = 0;
        const int64_t pos = active_pos[i], last = active[k - 1];
        active[pos] = last;
        active_pos[last] = pos;
        k -= 1;
        active_pos[i] = -1;
        status[i] = 0;
        sends[i] += 1;
        eta += 1;
        /* the receiver fuses the payload and gains the permit */
        if (fusion == SUM) {
            int64_t s;
            if (__builtin_add_overflow(ival[j], v, &s)) {
                iv[ERR_J] = j;
                iv[ERR_V] = v;
                rc = SUM_OVERFLOW;
                break;
            }
            ival[j] = s;
        } else if (fusion == MAX) {
            if (v > ival[j])
                ival[j] = v;
        } else if (wv[j] == 0.0) {
            if (wt != 0.0) {
                yv[j] = y;
                wv[j] = wt;
            } else {
                yv[j] = 0.0;
                wv[j] = 0.0;
            }
        } else if (wt != 0.0) {
            const double wa = wv[j], w = wa + wt;
            yv[j] = (wa * yv[j] + wt * y) / w;
            wv[j] = w;
        }
        const int64_t cj = counts[j] + c;
        counts[j] = cj;
        receives[j] += 1;
        const int64_t before = k + 1;
        if (!status[j]) {
            status[j] = 1;
            active_pos[j] = k;
            active[k] = j;
            k += 1;
        }
        if (cj == n)
            holder = j;
        if (k != before) {
            if (npoints == pt_cap) {
                rc = CURVE_FULL;
                break;
            }
            pt_t[npoints] = t;
            pt_count[npoints] = k;
            pt_eta[npoints] = eta;
            npoints += 1;
        }
    }
    iv[NACTIVE] = k;
    iv[ETA] = eta;
    iv[HOLDER] = holder;
    iv[ACTIVE_ACTIVE] = active_active;
    iv[UI] = ui;
    iv[EI] = ei;
    iv[NPOINTS] = npoints;
    iv[STAGE] = stage;
    iv[PENDING] = i;
    dv[T] = t;
    return rc;
}
