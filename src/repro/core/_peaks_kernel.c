/* Per-column peak/std features for the DPS decision core.
 *
 * Compiled on demand by repro.core._native (cc -O3 -shared); when no C
 * compiler is available, repro.core.peaks.fill_features runs the same
 * algorithm in Python (the per-column walk plus a row-sequential std) and
 * returns the same bits.
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
