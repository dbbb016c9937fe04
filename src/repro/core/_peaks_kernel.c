/* The per-unit stages of the DPS decision core: peak/std features here,
 * Algorithm 1, the Kalman bank, Algorithm 2's flags and Algorithm 4's
 * water-fill passes after them, and the simulated plant's interval (RAPL
 * step, progress rate, meter read) at the end.
 *
 * Compiled on demand by repro.core._native (cc -O3 -shared); when no C
 * compiler is available, repro.core.peaks.fill_features runs the Python
 * walk per column plus a row-sequential std and returns the same bits,
 * and the other stages run as NumPy passes.
 *
 * The count is defined by the `_count_walk` oracle in peaks.py: a
 * candidate maximum is strictly above its left neighbour and not below
 * its right one; each side's valley floor is the minimum up to
 * (excluding) the nearest strictly-higher sample; the candidate counts
 * when height - max(left_base, right_base) >= min_prominence.  The kernel
 * does not transcribe that walk.  It runs a one-pass hysteresis rule that
 * returns the same number, held equal by test (exhaustively on short
 * sequences, tests/core/test_peaks.py).  Per column keep mode (rise or
 * fall), lo, hi, m, prev, count; start in rise with lo = prev = x[0]; for
 * each later sample v, with P = min_prominence:
 *
 *   rise:  if fl(v - lo) >= P:  mode = fall, hi = v, m = 1
 *          else:                lo = min(lo, v)
 *   fall:  if fl(hi - v) >= P:  count += m, mode = rise, lo = v
 *          else if v > hi:      hi = v, m = 1
 *          else if v == hi and v > prev:  m += 1
 *   then prev = v.
 *
 * Why it equals the walk (IEEE subtraction of finite doubles is monotone
 * in both operands, P > 0):
 * - The sample that confirms a rise is strictly above its left neighbour,
 *   and the left base of the maximum the rise ends in is <= lo, so its
 *   left verdict holds whenever fl(v - lo) >= P did.
 * - A maximum the rise passes without confirming stands less than P above
 *   lo, and its left base is no lower than lo: left of the sample that set
 *   lo lies the fall that ended there, all of it above lo up to a higher
 *   hi.
 * - A peak's right verdict -- some sample before the next strictly higher
 *   one lies >= P below it -- is the fall test against the running hi.
 * - A lower maximum met in fall mode is separated from the running hi
 *   only by samples less than P below hi, hence less than P below itself:
 *   its verdict on the side facing hi fails.
 * - Samples that re-attain hi from below share both verdicts with the
 *   first, hence the multiplicity m.  (A textbook zigzag counter has no
 *   m: 0, 10, 5, 10, 0 at P = 6 holds two peaks of prominence 10.)
 *
 * Why lanes: the rule is one serial chain of a few dependent operations
 * per sample, so a scalar walk costs the same however it is written
 * (branching or not, ~8 cycles a sample).  But every update is a select,
 * so columns advance in lock-step: the columns a block still has to count
 * are packed side by side, one vector lane each, and all of them take one
 * history row per vector step.  All arithmetic is plain IEEE double (no
 * -ffast-math, contraction disabled by the build flags).
 *
 * Two skips keep most columns out of the count altogether:
 *
 * - Quiet columns are skipped outright: a peak's prominence is bounded by
 *   the column's total range (height <= max, base >= min), and fl() is
 *   monotone, so fl(max - min) < min_prominence proves the count is zero
 *   without walking.  The min/max come for free from the std pass.
 * - Under a verdict context (`flagged` non-NULL: the caller is Algorithm 2
 *   and will only ever ask `pp > T` of an unflagged unit and
 *   `pp < T && std < S` of a flagged one, T = pp_threshold, S =
 *   std_threshold) the conjunction is evaluated cheap-first.  A flagged
 *   column whose std, already computed, is >= S can neither set (needs an
 *   unflagged unit) nor clear (needs std < S): it is not counted and reads
 *   the neutral value T.  Every other column reads min(count, T + 1),
 *   which answers both comparisons exactly as count does.  With `flagged`
 *   NULL the counts are exact; std_out is exact for every column either
 *   way.
 *
 * The standard deviation is the population std over each column,
 * sequential summation along the history axis (independent accumulator
 * chains across units vectorize; the per-column order is the one the
 * Python fallback in peaks.fill_features accumulates in).
 *
 * Layout: x is the C-contiguous (h, n) history, row-major, column u =
 * unit u.  Units are processed in blocks of REPRO_BLOCK columns: the
 * sum/min/max and std passes stream the rows directly (accumulators
 * indexed by column vectorize).  A column is gathered into a pack only
 * when it is actually counted -- the block's rows are cache-resident from
 * the std pass -- so skipped columns cost no copy.
 */

#include <math.h>
#include <stdint.h>
#define REPRO_MAX_H 64
#define REPRO_BLOCK 128
/* Samples per prefetched noise block (repro.powercap.rapl.NOISE_BLOCK). */
#define REPRO_NOISE_BLOCK 64
/* Columns counted side by side: what one vector register of the build
 * target holds.  A pack wider than the registers spills its state: eight
 * lanes on AVX2 measured twice the time of a scalar walk. */
#if defined(__AVX512F__)
#define REPRO_LANES 8
#elif defined(__AVX2__)
#define REPRO_LANES 4
#else
#define REPRO_LANES 2
#endif

/* GCC/Clang vector types, not intrinsics: the same source builds on x86-64
 * and aarch64.  A comparison yields -1 or 0 per lane, so masks combine
 * with & | ~ ^ and PICK() is the select. */
typedef double lanes_f __attribute__((vector_size(8 * REPRO_LANES)));
typedef int64_t lanes_i __attribute__((vector_size(8 * REPRO_LANES)));

#define PICK(mask, a, b) \
    ((lanes_f)(((lanes_i)(a) & (mask)) | ((lanes_i)(b) & ~(mask))))

/* The hysteresis rule of the header over REPRO_LANES packed columns: x[i]
 * holds sample i of every lane; *out takes the exact count per lane.  The
 * mode is the mask `rise`; lo is kept (and ignored) in fall mode, hi in
 * rise mode.  A set mask lane is -1, so subtracting a mask adds one. */
static void count_lanes(const lanes_f *x, long h, double min_prominence,
                        lanes_i *out) {
    lanes_f p, lo = x[0], hi = x[0], prev = x[0];
    lanes_i rise = ~(lanes_i){0}, m = {0}, count = {0};
    for (int l = 0; l < REPRO_LANES; l++)
        p[l] = min_prominence;
    for (long i = 1; i < h; i++) {
        lanes_f v = x[i];
        lanes_i up = rise & (lanes_i)(v - lo >= p);
        lanes_i down = ~rise & (lanes_i)(hi - v >= p);
        lanes_i top = up | (~rise & (lanes_i)(v > hi));
        lanes_i again = ~rise & (lanes_i)(v == hi) & (lanes_i)(v > prev);
        count += m & down;
        m = (~top & (m - again)) - top;
        hi = PICK(top, v, hi);
        lo = PICK(down | (lanes_i)(v < lo), v, lo);
        rise ^= up | down;
        prev = v;
    }
    *out = count;
}

void repro_peak_features(const double *x, long h, long n,
                         double min_prominence, long *pp_out,
                         double *std_out, const unsigned char *flagged,
                         long pp_threshold, double std_threshold) {
    double s[REPRO_BLOCK], mn[REPRO_BLOCK], mx[REPRO_BLOCK];
    lanes_f packed[REPRO_MAX_H];
    long walked[REPRO_BLOCK];

    if (h < 1 || h > REPRO_MAX_H || n < 1 || (flagged && !std_out))
        return;
    /* Under a verdict context counts saturate at pp_threshold + 1; a
     * column has fewer than h peaks, so h means "exact". */
    long most = flagged ? pp_threshold + 1 : h;

    for (long b0 = 0; b0 < n; b0 += REPRO_BLOCK) {
        long bw = n - b0 < REPRO_BLOCK ? n - b0 : REPRO_BLOCK;

        /* Pass 1 (row-major, vectorizes across columns): per-column sum,
         * min, max. */
        {
            const double *row = x + b0;
            for (long c = 0; c < bw; c++) {
                s[c] = row[c];
                mn[c] = row[c];
                mx[c] = row[c];
            }
        }
        for (long i = 1; i < h; i++) {
            const double *row = x + i * n + b0;
            for (long c = 0; c < bw; c++) {
                double v = row[c];
                s[c] += v;
                mn[c] = v < mn[c] ? v : mn[c];
                mx[c] = v > mx[c] ? v : mx[c];
            }
        }

        if (std_out) {
            double v[REPRO_BLOCK], m[REPRO_BLOCK];
            for (long c = 0; c < bw; c++) {
                m[c] = s[c] / (double)h;
                v[c] = 0.0;
            }
            for (long i = 0; i < h; i++) {
                const double *row = x + i * n + b0;
                for (long c = 0; c < bw; c++) {
                    double d = row[c] - m[c];
                    v[c] += d * d;
                }
            }
            for (long c = 0; c < bw; c++)
                std_out[b0 + c] = sqrt(v[c] / (double)h);
        }

        if (!pp_out)
            continue;

        /* Both skips, as selects: which of the three outcomes a column
         * takes is a coin flip to the branch predictor.  A skipped column
         * has its value now; the others are listed and overwritten. */
        long nw = 0;
        for (long c = 0; c < bw; c++) {
            long u = b0 + c;
            /* Verdict skip: flagged and still noisy, so neither flag
             * transition can fire whatever the count is. */
            int noisy = flagged ? (flagged[u] != 0) &
                                      (std_out[u] >= std_threshold)
                                : 0;
            /* Quiet-column skip: every peak's prominence is bounded by the
             * column's total range, and fl() is monotone, so
             * fl(mx - mn) < min_prominence implies no peak can reach it. */
            int quiet = mx[c] - mn[c] < min_prominence;
            pp_out[u] = noisy ? pp_threshold : 0;
            walked[nw] = u;
            nw += !(noisy | quiet);
        }

        /* The listed columns are packed REPRO_LANES at a time and counted
         * in lock-step; a short last pack repeats its first column in the
         * spare lanes, which are not stored. */
        for (long g = 0; g < nw; g += REPRO_LANES) {
            long live = nw - g < REPRO_LANES ? nw - g : REPRO_LANES;
            const double *src[REPRO_LANES];
            for (long l = 0; l < REPRO_LANES; l++)
                src[l] = x + walked[g + (l < live ? l : 0)];
            for (long i = 0; i < h; i++)
                for (long l = 0; l < REPRO_LANES; l++)
                    packed[i][l] = src[l][i * n];
            lanes_i count;
            count_lanes(packed, h, min_prominence, &count);
            for (long l = 0; l < live; l++)
                pp_out[walked[g + l]] = count[l] < most ? count[l] : most;
        }
    }
}

/* Three more per-unit stages of the decision, each one pass that
 * transcribes the per-unit definition in tests/core/oracles.py operation
 * for operation (plain IEEE double under -ffp-contract=off, so the bits
 * are the oracle's and the NumPy fallback's).  No function below sums an
 * array, draws a number or keeps state between calls: caps.sum() and
 * rng.permutation(n) stay in Python, between the two MIMD calls. */

/* Algorithm 1 lines 5-8, the decrease pass (oracles._decrease_loop): a
 * unit drawing less than dec_threshold of its cap has the cap lowered to
 * max(power, cap * dec_factor) clipped to [min_cap, max_cap]; changed[u]
 * says whether that moved it.  Ties go as in Python's
 * min(max(max(p, low), lo), hi): the first argument keeps one, which only
 * shows in the sign of a zero.  Computed for every unit and selected, so
 * the loop vectorizes. */
void repro_mimd_decrease(const double *power, double *caps,
                         unsigned char *changed, long n,
                         double dec_threshold, double dec_factor,
                         double min_cap, double max_cap) {
    for (long u = 0; u < n; u++) {
        double cap = caps[u], p = power[u];
        double low = cap * dec_factor;
        low = low > p ? low : p;
        low = low < min_cap ? min_cap : low;
        low = low > max_cap ? max_cap : low;
        int dec = p < cap * dec_threshold;
        changed[u] = (unsigned char)(dec & (low != cap));
        caps[u] = dec ? low : cap;
    }
}

/* Algorithm 1 lines 10-14, the increase walk (oracles._increase_loop) in
 * the order of the permutation the caller drew: a unit drawing more than
 * inc_threshold of its cap grows to min(cap * inc_factor, max_cap), by no
 * more than the budget still unassigned.  Returns that budget.  It only
 * ever falls, so the oracle's "skip while avail <= 0" ends the walk. */
double repro_mimd_increase(const double *power, double *caps,
                           unsigned char *changed, const long *order,
                           long n, double avail, double inc_threshold,
                           double inc_factor, double max_cap) {
    for (long k = 0; k < n && avail > 0.0; k++) {
        long u = order[k];
        double cap = caps[u];
        if (!(power[u] > cap * inc_threshold))
            continue;
        double target = cap * inc_factor;
        target = target < max_cap ? target : max_cap;
        double grow = target - cap;
        grow = grow < avail ? grow : avail;
        if (grow <= 0.0)
            continue;
        caps[u] = cap + grow;
        avail -= grow;
        changed[u] = 1;
    }
    return avail;
}

/* Scalar Kalman predict/update per unit (oracles._kalman_loop): random
 * walk with process variance q, direct observation z with noise
 * variance r. */
void repro_kalman_update(double *x, double *p, const double *z, long n,
                         double q, double r) {
    for (long u = 0; u < n; u++) {
        double pu = p[u] + q;
        double g = pu / (pu + r);
        double xu = x[u];
        x[u] = xu + g * (z[u] - xu);
        p[u] = pu * (1.0 - g);
    }
}

/* Algorithm 2's flag transitions (oracles._classify_loop), one unit at a
 * time from the flags as the unit entered.  The walk's ladder is computed
 * as selects, not branches: at cluster scale every test is a coin flip
 * per unit (measured at 100k units on mixed flags: 1.0 ms branching,
 * against 0.23 ms for the NumPy masks).  set: an unflagged unit over the
 * peak threshold is flagged and pinned high; clear: a flagged unit under
 * both thresholds drops flag and priority; only a unit that entered
 * unflagged and stayed so takes the derivative test (lines 10-15), whose
 * two outcomes exclude each other (deriv_inc_threshold > 0 >
 * deriv_dec_threshold).  A flag byte is 0 or 1 (NumPy writes nothing
 * else, and PriorityModule.restore normalises a document's); pp and std
 * are read only when use_frequency is set; pp_threshold travels as a
 * double so a fractional setting compares as it does in NumPy. */
void repro_classify(const long *pp, const double *std, const double *derivs,
                    unsigned char *high_freq, unsigned char *priority,
                    long n, int use_frequency, double pp_threshold,
                    double std_threshold, double deriv_inc_threshold,
                    double deriv_dec_threshold) {
    for (long u = 0; u < n; u++) {
        int flagged = high_freq[u], high = priority[u];
        int set = 0, clear = 0;
        if (use_frequency) {
            double count = (double)pp[u];
            set = !flagged & (count > pp_threshold);
            clear = flagged & (count < pp_threshold) &
                    (std[u] < std_threshold);
        }
        int low_freq = !flagged & !set;
        int rise = low_freq & (derivs[u] > deriv_inc_threshold);
        int fall = low_freq & (derivs[u] < deriv_dec_threshold);
        high_freq[u] = (unsigned char)((flagged | set) & !clear);
        priority[u] = (unsigned char)((high | set | rise) & !clear & !fall);
    }
}

/* Algorithm 4's water-fill (readjust._water_fill), as the elementwise
 * passes around the two sums NumPy keeps: the caller sums the weights
 * between weights and grant and the grants between grant and retire, with
 * the same pairwise reduction the fallback uses, so every cap comes out
 * with the fallback's bits.  unit/c/w are the caller's scratch, n long. */

/* Gathers index and cap of every high-priority unit still under the
 * saturation ceiling, in unit order; returns how many.  Stores
 * unconditionally and advances on the verdict: at cluster scale the
 * priority bit is a coin flip per unit. */
long repro_fill_select(const unsigned char *priority, const double *caps,
                       long n, double ceiling, long *unit, double *c) {
    long k = 0;
    for (long u = 0; u < n; u++) {
        unit[k] = u;
        c[k] = caps[u];
        k += (priority[u] != 0) & (caps[u] < ceiling);
    }
    return k;
}

/* Inverse-cap weights, 1 / max(c, 1e-9), not yet normalised. */
void repro_fill_weights(const double *c, double *w, long k) {
    for (long i = 0; i < k; i++)
        w[i] = 1.0 / (c[i] > 1e-9 ? c[i] : 1e-9);
}

/* One pass of grants: each active unit takes its share of `remaining`,
 * clipped at the room it has left; w holds the weights on entry and the
 * grants on return.  Operation order is the fallback's
 * `weights /= weights.sum(); remaining * weights`. */
void repro_fill_grant(double *c, double *w, long k, double remaining,
                      double wsum, double max_cap) {
    for (long i = 0; i < k; i++) {
        double share = remaining * (w[i] / wsum);
        double room = max_cap - c[i];
        double g = share < room ? share : room;
        c[i] += g;
        w[i] = g;
    }
}

/* Every active unit's cap is written back; the units still under the
 * ceiling stay active and close ranks in place.  Returns how many stay. */
long repro_fill_retire(double *caps, long *unit, double *c, long k,
                       double ceiling) {
    long kept = 0;
    for (long i = 0; i < k; i++) {
        long u = unit[i];
        double v = c[i];
        caps[u] = v;
        unit[kept] = u;
        c[kept] = v;
        kept += v < ceiling;
    }
    return kept;
}

/* The simulated plant's per-unit interval: the RAPL bank's step and meter
 * read (repro.powercap.rapl.RaplBank) and the cap-to-performance model
 * (repro.cluster.perfmodel.progress_rate).  Each pass transcribes its
 * NumPy fallback operation for operation and validates what the fallback
 * validates before it writes anything, returning the index of the first
 * rejected unit (-1: none) so the caller raises the fallback's message.
 * Pointers are the caller's, already offset to the first unit of the
 * range; no pass draws a number: the meter read returns early and lets
 * the caller refill a spent noise block. */

/* The bank's step: true power relaxes toward min(demand, cap) through the
 * lag factor alpha, is clipped to [0, cap], and the energy integral takes
 * the trapezoid of the interval.  Every min and max is Python's
 * min(a, b) / max(a, b) (the first argument keeps a tie, a NaN first
 * argument stays), as the fallback's selects and the scalar RaplDomain.step
 * are.  A demand below 0 rejects the call unless some demand is NaN:
 * the fallback's demand.min() < 0 is NaN then. */
long repro_rapl_step(const double *demand, const double *cap, double *power,
                     double *energy, long n, double alpha, double dt) {
    long bad = -1;
    int nan = 0;
    for (long u = 0; u < n; u++) {
        double d = demand[u];
        nan |= d != d;
        if (bad < 0 && d < 0.0)
            bad = u;
    }
    if (bad >= 0 && !nan)
        return bad;
    for (long u = 0; u < n; u++) {
        double d = demand[u], c = cap[u], old = power[u];
        double x = c < d ? c : d;
        x -= old;
        x *= alpha;
        x += old;
        x = c < x ? c : x;
        x = x < 0.0 ? 0.0 : x;
        double e = old + x;
        e *= 0.5;
        e *= dt;
        e *= 1e6;
        energy[u] += e;
        power[u] = x;
    }
    return -1;
}

/* NumPy's maximum/minimum of two doubles: a NaN operand is returned, the
 * first one if both are.  Which zero a 0.0/-0.0 tie returns is left open
 * here as there; progress_rate's outputs do not depend on it (a zero
 * ratio ends clipped at min_rate > 0). */
static inline double np_max(double a, double b) {
    return a != a ? a : b != b ? b : a > b ? a : b;
}
static inline double np_min(double a, double b) {
    return a != a ? a : b != b ? b : a < b ? a : b;
}

/* The progress rate of a capped unit, ((cap - idle) / (demand - idle)) **
 * (1 / theta) when demand exceeds max(cap, idle), else 1, clipped to
 * [min_rate, 1].  Only the two exponents NumPy computes exactly are
 * compiled: root != 0 is theta = 2 (NumPy's x ** 0.5 is sqrt), root == 0
 * is theta = 1 (x ** 1.0 is x); the caller keeps any other theta in NumPy.
 * A cap or demand below 0 rejects the call; a NaN is not below 0, as in
 * the fallback's np.fmin.reduce test. */
long repro_progress_rate(const double *cap, const double *demand,
                         double *rate, long n, double idle, int root,
                         double min_rate) {
    for (long u = 0; u < n; u++)
        if (cap[u] < 0.0 || demand[u] < 0.0)
            return u;
    for (long u = 0; u < n; u++) {
        double c = cap[u], d = demand[u];
        double r = np_min(np_max(c - idle, 0.0) / np_max(d - idle, 1e-9), 1.0);
        if (root)
            r = sqrt(r);
        r = d <= np_max(c, idle) ? 1.0 : r;
        /* ndarray.clip: a NaN stays, the bounds are not zeros. */
        r = r != r ? r : r > min_rate ? r : min_rate;
        rate[u] = r != r ? r : r < 1.0 ? r : 1.0;
    }
    return -1;
}

/* The bank's meter read: the wrapping counter (energy % wrap as NumPy's
 * float remainder for wrap > 0, truncated to int64), its difference from
 * the cursor with one wrap added back, the average power over dt, the
 * unit's next prefetched noise sample (block NULL: no noise), and a floor
 * at 0 as Python's max(power, 0.0).  block is the range's (n, 64) rows,
 * at the cursor into each.  A spent block (at == 64) anywhere in the
 * range returns its unit before anything is written; the caller refills
 * and calls again.  Integer arithmetic wraps as NumPy's does. */
long repro_meter_read(const double *energy, int64_t *meter,
                      const double *block, long *at, double *out, long n,
                      int64_t wrap_uj, double dt) {
    if (block)
        for (long u = 0; u < n; u++)
            if (at[u] == REPRO_NOISE_BLOCK)
                return u;
    double wrap = (double)wrap_uj;
    for (long u = 0; u < n; u++) {
        /* Python's remainder takes the divisor's sign: fmod's plus the
         * divisor where fmod's is negative.  The sign of a zero is lost
         * in the cast. */
        double w = fmod(energy[u], wrap);
        w = w < 0.0 ? w + wrap : w;
        int64_t now = (int64_t)w;
        int64_t delta = (int64_t)((uint64_t)now - (uint64_t)meter[u]);
        if (delta < 0)
            delta = (int64_t)((uint64_t)delta + (uint64_t)wrap_uj);
        meter[u] = now;
        double p = (double)delta / dt;
        p *= 1e-6;
        if (block) {
            p += block[u * REPRO_NOISE_BLOCK + at[u]];
            at[u] += 1;
        }
        out[u] = p < 0.0 ? 0.0 : p;
    }
    return -1;
}
