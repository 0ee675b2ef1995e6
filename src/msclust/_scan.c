/* The swap-candidate scan of msclust.fastmsc.block_totals, in C.

   It does the float64 operations of the numpy body in the same order, so
   it returns the same bits: each candidate row's near points (d(o, j) <
   d3(o)) in index order, the n1 and n2 bins summed apart from 0.0 as
   np.bincount sums them and then added as (removal_loss + B1) + B2, every
   ratio as x / max(b, TINY), and inner as a 0/1 factor. Build it with
   cc -O2 -ffp-contract=off -fPIC -shared: a fused multiply-add or
   -ffast-math would change the bits. */

#include <stddef.h>

#define TINY 0x1p-1074 /* the smallest positive float64 */

static double ratio(double a, double b)
{
    return a / (b > TINY ? b : TINY);
}

/* The totals of the m candidates J, each a row of the n x n matrix: out
   receives acc (m x k), then shared (m), then k doubles of work, which
   hold the n2 bins of one row. */
void block_totals(ptrdiff_t n, ptrdiff_t m, ptrdiff_t k, const ptrdiff_t *J,
                  const ptrdiff_t *n1, const ptrdiff_t *n2, const double *matrix,
                  const double *d1, const double *d2, const double *d3, const double *r12,
                  const double *r13, const double *r23, const double *removal_loss,
                  double *restrict out)
{
    for (ptrdiff_t r = 0; r < m; r++) {
        const double *row = matrix + J[r] * n;
        double *b1 = out + r * k, *b2 = out + m * k + m, s = 0.0;
        for (ptrdiff_t i = 0; i < k; i++)
            b1[i] = b2[i] = 0.0;
        for (ptrdiff_t p = 0; p < n; p++) {
            double dv = row[p];
            if (!(dv < d3[p]))
                continue;
            double inner = dv < d2[p];
            double r1v = dv < d1[p] ? ratio(dv, d1[p]) : ratio(d1[p], dv);
            double lost = inner ? ratio(d1[p] + dv, d2[p]) : ratio(d2[p], dv);
            b1[n1[p]] += (inner * r1v + r23[p]) - lost;
            b2[n2[p]] += r13[p] - (inner ? r12[p] : r1v);
            s += inner * (r12[p] - r1v);
        }
        out[m * k + r] = s;
        for (ptrdiff_t i = 0; i < k; i++)
            b1[i] = (removal_loss[i] + b1[i]) + b2[i];
    }
}
