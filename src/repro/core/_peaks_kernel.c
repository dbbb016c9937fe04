/* The per-unit stages of the DPS decision core: peak/std features here,
 * Algorithm 1, the Kalman bank and Algorithm 2's flags at the end.
 *
 * Compiled on demand by repro.core._native (cc -O3 -shared); when no C
 * compiler is available, repro.core.peaks.fill_features runs the same
 * algorithm in Python (the per-column walk plus a row-sequential std) and
 * returns the same bits, and the other stages run as NumPy passes.
 *
 * Semantics are the `_count_walk` oracle in peaks.py: a candidate maximum
 * is strictly above its left neighbour and not below its right one; each
 * side's valley floor is the minimum up to (excluding) the nearest
 * strictly-higher sample; the candidate counts when
 * height - max(left_base, right_base) >= min_prominence.  All arithmetic
 * is plain IEEE double (no -ffast-math, contraction disabled by the build
 * flags), so counts are bit-exact against the Python oracle.
 *
 * Four departures from a naive transcription, all exactness-preserving,
 * keep the per-column cost down on a branch-predictor-hostile workload:
 *
 * - The candidate test runs branchlessly over the whole column first
 *   (plain `&` of both comparisons, accumulated into a 64-bit position
 *   mask -- REPRO_MAX_H <= 64 by design), so the per-position 50/50
 *   branch of the scalar walk never reaches the predictor.  Only real
 *   candidates enter the walk loop, via ctz over the mask.
 * - A valley walk stops early once the side's prominence condition
 *   fl(height - base) >= min_prominence becomes true: walking further can
 *   only sink the base, and IEEE subtraction is monotone in the
 *   subtrahend, so the verdict cannot flip back.  The exact base value is
 *   then irrelevant -- only the verdict feeds the count.
 * - Quiet columns are skipped outright: a peak's prominence is bounded by
 *   the column's total range (height <= max, base >= min), and fl() is
 *   monotone, so fl(max - min) < min_prominence proves the count is zero
 *   without walking.  The min/max come for free from the std pass.
 * - Under a verdict context (`flagged` non-NULL: the caller is Algorithm 2
 *   and will only ever ask `pp > T` of an unflagged unit and
 *   `pp < T && std < S` of a flagged one, T = pp_threshold, S =
 *   std_threshold) the conjunction is evaluated cheap-first.  A flagged
 *   column whose std, already computed, is >= S can neither set (needs an
 *   unflagged unit) nor clear (needs std < S): it is not walked and reads
 *   the neutral value T.  Every other walk stops once the count reaches
 *   T + 1, since min(count, T + 1) answers both comparisons exactly as
 *   count does.  With `flagged` NULL the same loop runs uncapped and the
 *   counts are exact; std_out is exact for every column either way.
 *
 * The standard deviation is the population std over each column,
 * sequential summation along the history axis (independent accumulator
 * chains across units vectorize; the per-column order is the one the
 * Python fallback in peaks.fill_features accumulates in).
 *
 * Layout: x is the C-contiguous (h, n) history, row-major, column u =
 * unit u.  Units are processed in blocks of REPRO_BLOCK columns: the
 * sum/min/max and std passes stream the rows directly (accumulators
 * indexed by column vectorize).  A column is gathered into a contiguous
 * stack buffer only when it is actually walked -- the block's rows are
 * cache-resident from the std pass -- so skipped columns cost no copy.
 */

#include <math.h>
#include <stdint.h>
#define REPRO_MAX_H 64
#define REPRO_BLOCK 128

void repro_peak_features(const double *x, long h, long n,
                         double min_prominence, long *pp_out,
                         double *std_out, const unsigned char *flagged,
                         long pp_threshold, double std_threshold) {
    double col[REPRO_MAX_H];
    double s[REPRO_BLOCK], mn[REPRO_BLOCK], mx[REPRO_BLOCK];

    if (h < 1 || h > REPRO_MAX_H || n < 1 || (flagged && !std_out))
        return;
    /* A walk runs while count <= pp_threshold; a column has fewer than h
     * peaks, so without a verdict context h means "never stop". */
    if (!flagged)
        pp_threshold = h;

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

        for (long c = 0; c < bw; c++) {
            /* Verdict skip: flagged and still noisy, so neither flag
             * transition can fire whatever the count is. */
            if (flagged && flagged[b0 + c] &&
                std_out[b0 + c] >= std_threshold) {
                pp_out[b0 + c] = pp_threshold;
                continue;
            }
            /* Quiet-column skip: every peak's prominence is bounded by the
             * column's total range, and fl() is monotone, so
             * fl(mx - mn) < min_prominence implies no peak can reach it. */
            if (mx[c] - mn[c] < min_prominence) {
                pp_out[b0 + c] = 0;
                continue;
            }
            const double *src = x + b0 + c;
            for (long i = 0; i < h; i++)
                col[i] = src[i * n];
            uint64_t cand = 0;
            for (long i = 1; i + 1 < h; i++) {
                uint64_t o = (uint64_t)((col[i] > col[i - 1]) &
                                        (col[i] >= col[i + 1]));
                cand |= o << i;
            }
            long count = 0;
            while (cand && count <= pp_threshold) {
                long i = (long)__builtin_ctzll(cand);
                cand &= cand - 1;
                double hi = col[i];
                double lb = hi;
                long j = i - 1;
                for (; j >= 0; j--) {
                    double v = col[j];
                    if ((v > hi) | (hi - lb >= min_prominence))
                        break;
                    lb = v < lb ? v : lb;
                }
                if (hi - lb < min_prominence)
                    continue;
                double rb = hi;
                j = i + 1;
                for (; j < h; j++) {
                    double v = col[j];
                    if ((v > hi) | (hi - rb >= min_prominence))
                        break;
                    rb = v < rb ? v : rb;
                }
                count += hi - rb >= min_prominence;
            }
            pp_out[b0 + c] = count;
        }
    }
}

/* The other three per-unit stages of the decision, each one pass that
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
