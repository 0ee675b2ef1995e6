/* The swap-candidate scan of msclust.fastmsc, in C, on one struct state:
   best_swap, one share of fastmsc.find_best_swap's steepest pass; the
   neighbour rescan of fastmsc._rescan; eager_next, the loop of
   fastmsc._fastermsc_state, one candidate at a time. Also parse_csv, the
   strict CSV reader of core._parse_csv_rows. best_swap and eager_next
   score each candidate row by score_row, one row of fastmsc.block_totals.

   Each does the float64 operations of the numpy body in the same order, so
   it returns the same bits: each candidate row's near points (d(o, j) <
   d3(o)) in index order, the n1 and n2 bins summed apart from 0.0 as
   np.bincount sums them and then added as (removal_loss + B1) + B2, every
   ratio as x / max(b, TINY), and inner as a 0/1 factor. A row's near
   points are first compacted, without a branch, into the state's idx, and
   no function here allocates. Build it with cc -O2 -ffp-contract=off -fPIC
   -shared: a fused multiply-add or -ffast-math would change the bits. */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define TINY 0x1p-1074 /* the smallest positive float64 */

/* An optimiser state: n, its arrays, then eager_next's progress. cscan.State
   has the same pointer-sized fields in the same order, so neither pads. */
struct state {
    ptrdiff_t n;
    ptrdiff_t *n1, *n2;
    const double *matrix;
    double *d1, *d2, *d3, *r12, *r13, *r23, *removal_loss;
    const ptrdiff_t *medoids;
    double *work;
    const unsigned char *is_medoid;
    ptrdiff_t *idx;
    ptrdiff_t j, visited, passes, last_pass, kept, position, candidate, scored, budget;
};

static double ratio(double a, double b)
{
    return a / (b > TINY ? b : TINY);
}

/* c ? a : b by a bit mask, as the compiler would else branch on c */
static double pick(int c, double a, double b)
{
    uint64_t mask = -(uint64_t)c, x, y;
    memcpy(&x, &a, sizeof x);
    memcpy(&y, &b, sizeof y);
    x = (x & mask) | (y & ~mask);
    memcpy(&a, &x, sizeof a);
    return a;
}

/* The accumulators of candidate j, (removal_loss + its n1 bins) + its n2
   bins, into b1, the first k doubles of work (b2, the next k, holds the n2
   bins); returns its shared gain. The row's near points go first to idx
   without a branch, then one loop, over locals that no store here can
   change, scores them in index order, taking each ratio's operands by
   pick: the comparisons with d1 and d2 are as likely true as false, and a
   mispredicted branch costs more than the arithmetic. */
static double score_row(const struct state *s, ptrdiff_t k, ptrdiff_t j)
{
    const ptrdiff_t n = s->n, *restrict n1 = s->n1, *restrict n2 = s->n2;
    const double *restrict d1 = s->d1, *restrict d2 = s->d2, *restrict d3 = s->d3;
    const double *restrict r12 = s->r12, *restrict r13 = s->r13, *restrict r23 = s->r23;
    const double *restrict row = s->matrix + j * n;
    double *restrict b1 = s->work, *restrict b2 = s->work + k;
    ptrdiff_t *restrict idx = s->idx, near = 0;
    for (ptrdiff_t p = 0; p < n; p++) {
        idx[near] = p;
        near += row[p] < d3[p];
    }
    for (ptrdiff_t i = 0; i < k; i++)
        b1[i] = b2[i] = 0.0;
    double sum = 0.0;
    for (ptrdiff_t c = 0; c < near; c++) {
        ptrdiff_t p = idx[c];
        double dv = row[p], e1 = d1[p], e2 = d2[p];
        int below = dv < e1, in = dv < e2;
        double inner = in;
        /* dv and d1 meet as min / max, and lost is (d1 + dv) / d2 or d2 / dv */
        double r1v = ratio(pick(below, dv, e1), pick(below, e1, dv));
        double lost = ratio(pick(in, e1 + dv, e2), pick(in, e2, dv));
        b1[n1[p]] += (inner * r1v + r23[p]) - lost;
        b2[n2[p]] += r13[p] - pick(in, r12[p], r1v);
        sum += inner * (r12[p] - r1v);
    }
    for (ptrdiff_t i = 0; i < k; i++)
        b1[i] = (s->removal_loss[i] + b1[i]) + b2[i];
    return sum;
}

/* np.argmax over the k doubles acc: the first maximum, or the first NaN. */
static ptrdiff_t first_best(const double *acc, ptrdiff_t k)
{
    ptrdiff_t best = 0;
    for (ptrdiff_t i = 1; i < k && acc[best] == acc[best]; i++)
        if (acc[i] > acc[best] || acc[i] != acc[i])
            best = i;
    return best;
}

/* fastmsc.find_best_swap's pass over the m candidates J, one share of it:
   each row's best position (first_best of its totals without the shared
   gain) and total, acc + shared in fastmsc.block_totals' terms. Returns
   r k + i for the first best total over J in order, np.argmax's rule, at
   position i of candidate J[r], and writes that total to work[2 k]. */
ptrdiff_t best_swap(const struct state *s, ptrdiff_t k, ptrdiff_t m, const ptrdiff_t *J)
{
    double best = 0.0;
    ptrdiff_t found = 0;
    for (ptrdiff_t r = 0; r < m; r++) {
        double sum = score_row(s, k, J[r]);
        ptrdiff_t i = first_best(s->work, k);
        double total = s->work[i] + sum;
        if (r == 0 || total > best || (total != total && best == best)) {
            best = total;
            found = r * k + i;
        }
    }
    s->work[2 * k] = best;
    return found;
}

/* core.top3 and fastmsc._refresh_derived for the count points idx: each
   point's first minimum over its medoid distances, the first minimum of
   the rest, and the minimum of what is left (+inf at k = 2, and +0.0 for
   a zero of either sign), then its three ratios; then removal_loss summed
   over all n points in index order, as B1 + B2, B2 in work. Returns -1,
   having written nothing, if an index is out of range. */
ptrdiff_t rescan(const struct state *s, ptrdiff_t k, ptrdiff_t count, const ptrdiff_t *idx)
{
    const ptrdiff_t n = s->n, *medoids = s->medoids;
    ptrdiff_t *n1 = s->n1, *n2 = s->n2;
    double *d1 = s->d1, *d2 = s->d2, *d3 = s->d3, *r12 = s->r12, *r13 = s->r13, *r23 = s->r23;
    double *removal_loss = s->removal_loss, *work = s->work;
    for (ptrdiff_t c = 0; c < count; c++)
        if (idx[c] < 0 || idx[c] >= n)
            return -1;
    for (ptrdiff_t i = 0; i < k; i++)
        if (medoids[i] < 0 || medoids[i] >= n)
            return -1;
    for (ptrdiff_t c = 0; c < count; c++) {
        ptrdiff_t p = idx[c], a = 0, b = 0;
        const double *row = s->matrix + p * n;
        for (ptrdiff_t i = 1; i < k; i++)
            if (row[medoids[i]] < row[medoids[a]])
                a = i;
        /* top3 takes each minimum from a copy in which the taken entry is +inf */
        double db = a == 0 ? INFINITY : row[medoids[0]], dc = INFINITY;
        for (ptrdiff_t i = 1; i < k; i++)
            if (i != a && row[medoids[i]] < db) {
                b = i;
                db = row[medoids[i]];
            }
        for (ptrdiff_t i = 0; i < k; i++)
            if (i != a && i != b && row[medoids[i]] < dc)
                dc = row[medoids[i]];
        n1[p] = a;
        n2[p] = b;
        d1[p] = row[medoids[a]];
        d2[p] = db;
        d3[p] = dc + 0.0;
        r12[p] = ratio(d1[p], d2[p]);
        r23[p] = ratio(d2[p], d3[p]);
        r13[p] = ratio(d1[p], d3[p]);
    }
    for (ptrdiff_t i = 0; i < k; i++)
        removal_loss[i] = work[i] = 0.0;
    for (ptrdiff_t p = 0; p < n; p++) {
        removal_loss[n1[p]] += r12[p] - r23[p];
        work[n2[p]] += r12[p] - r13[p];
    }
    for (ptrdiff_t i = 0; i < k; i++)
        removal_loss[i] += work[i];
    return 0;
}

/* What eager_next returns. */
enum { CONVERGED, OUT_OF_PASSES, IMPROVES, ONE_CANDIDATE, PAUSED };

/* fastmsc._fastermsc_state's loop, one candidate at a time, resumed from
   s: the next position j, the positions visited since the last swap, and
   the passes started of last_pass. The caller sets kept after keeping the
   swap of candidate; scored counts the rows scored here, each by
   score_row into work. It returns
   - IMPROVES: candidate at position totals above eps; the caller tries
     that swap with the fresh sum;
   - ONE_CANDIDATE: candidate is the run's first (candidate was -1),
     which the caller scores;
   - PAUSED: the next row would take this call past budget distances;
   - CONVERGED or OUT_OF_PASSES: the run is over. */
ptrdiff_t eager_next(struct state *s, ptrdiff_t k, double eps)
{
    const ptrdiff_t n = s->n;
    ptrdiff_t j = s->j, visited = s->visited, distances = 0, code;
    if (s->kept) {
        s->kept = 0;
        visited = 1;
        j = s->candidate + 1;
    }
    for (;; j++, visited++) {
        if (visited >= n) {
            code = CONVERGED;
            break;
        }
        if (j == n) {
            if (s->passes >= s->last_pass) {
                code = OUT_OF_PASSES;
                break;
            }
            s->passes++;
            j = 0;
        }
        if (s->is_medoid[j])
            continue;
        if (s->candidate < 0) {
            code = ONE_CANDIDATE;
        } else {
            if (distances > 0 && distances + n > s->budget) {
                code = PAUSED; /* the next call scores this row */
                break;
            }
            double sum = score_row(s, k, j);
            ptrdiff_t i = first_best(s->work, k);
            s->scored++;
            distances += n;
            if (!(s->work[i] + sum > eps))
                continue;
            s->position = i;
            code = IMPROVES;
        }
        s->candidate = j++;
        visited++;
        break;
    }
    s->j = j;
    s->visited = visited;
    return code;
}

/* The longest token parse_csv copies for strtod, its NUL excluded. */
#define TOKEN_MAX 63

static int blank(char c)
{
    return c == ' ' || c == '\t';
}

static const char *digits(const char *p, const char *stop)
{
    while (p < stop && *p >= '0' && *p <= '9')
        p++;
    return p;
}

/* The end of the number [+-]?(D+(.D*)?|.D+)([eE][+-]?D+)? at p, or NULL. */
static const char *number(const char *p, const char *stop)
{
    if (p < stop && (*p == '+' || *p == '-'))
        p++;
    const char *q = digits(p, stop);
    ptrdiff_t whole = q - p;
    if (q < stop && *q == '.') {
        const char *f = q + 1;
        q = digits(f, stop);
        if (whole == 0 && q == f)
            return NULL;
    } else if (whole == 0) {
        return NULL;
    }
    if (q < stop && (*q == 'e' || *q == 'E')) {
        p = q + 1;
        if (p < stop && (*p == '+' || *p == '-'))
            p++;
        q = digits(p, stop);
        if (q == p)
            return NULL;
    }
    return q;
}

/* Reads the size bytes at text as rows of comma-separated numbers: an
   optional UTF-8 byte-order mark, lines that end in \n or \r\n (the last
   may lack it), lines of spaces and tabs skipped, and each token a number
   (see number) of at most TOKEN_MAX bytes between spaces and tabs; every row
   has the same count of tokens, and there is at least one row. With out
   NULL it writes (rows, cols) to shape; otherwise shape holds them and the
   rows x cols values go to out, each by strtod from a NUL-terminated copy,
   so strtod never reads past size. Returns 0, or -1 where the text leaves
   that grammar, its shape differs from shape's (the file changed between
   the passes), or strtod stops elsewhere than the token's end (a locale
   whose decimal point is not '.'). */
ptrdiff_t parse_csv(const char *text, ptrdiff_t size, ptrdiff_t *shape, double *out)
{
    const char *p = text, *end = text + size;
    ptrdiff_t rows = 0, cols = out ? shape[1] : -1;
    char token[TOKEN_MAX + 1];
    if (size >= 3 && memcmp(p, "\xef\xbb\xbf", 3) == 0)
        p += 3;
    while (p < end) {
        const char *eol = memchr(p, '\n', (size_t)(end - p));
        const char *stop = eol ? eol : end, *q = p;
        if (eol && stop > p && stop[-1] == '\r')
            stop--;
        p = eol ? eol + 1 : end;
        while (q < stop && blank(*q))
            q++;
        if (q == stop)
            continue;
        if (out && rows == shape[0])
            return -1;
        ptrdiff_t c = 0;
        for (;;) {
            while (q < stop && blank(*q))
                q++;
            const char *t = q;
            q = number(q, stop);
            if (q == NULL || q - t > TOKEN_MAX || (out && c == cols))
                return -1;
            if (out) {
                char *parsed;
                memcpy(token, t, (size_t)(q - t));
                token[q - t] = '\0';
                out[rows * cols + c] = strtod(token, &parsed);
                if (parsed != token + (q - t))
                    return -1;
            }
            c++;
            while (q < stop && blank(*q))
                q++;
            if (q == stop)
                break;
            if (*q++ != ',')
                return -1;
        }
        if (cols < 0)
            cols = c;
        if (c != cols)
            return -1;
        rows++;
    }
    if (rows == 0 || (out && rows != shape[0]))
        return -1;
    shape[0] = rows;
    shape[1] = cols;
    return 0;
}
