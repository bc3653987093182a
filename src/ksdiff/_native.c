/* The native helpers of ksdiff, built as one library: the KS merge scan
 * (ks_scan) and the strict parser of a table's body (parse_table).
 *
 * ks_scan: two-sample KS statistics of presorted rows, one merge scan per row.
 *
 * Row r of the block at data + r * stride holds sample a sorted ascending in
 * its first n slots, one free slot, then sample b sorted ascending in the
 * next m slots and one more free slot; the rows are sorted as numpy sorts,
 * NaN last. out[r] receives the largest gap |i/n - j/m| over the positions
 * that end a run of equal values, where i values of a and j of b are <= the
 * run's value: the same value, bit for bit, as the numpy kernel.
 *
 * The scan stops on counts, not on a sentinel. Each step consumes one value,
 * and the integer gap |i*m - j*n| at a run end is compared with the row's
 * best so far; only where it reaches the best is the float gap formed, with
 * the same two divisions and subtraction numpy uses. The caller keeps
 * n*m < 2**50, so two positions whose integer gaps differ keep their order in
 * floats and the float maximum lies among the integer-max positions. The
 * branch on reaching the best is rarely taken; the rest of a step is
 * branch-free, and two rows are interleaved so that their dependency chains
 * overlap (Elmasry, Katajainen and Stenmark 2012, "Branch mispredictions
 * don't affect mergesort").
 */

#define _GNU_SOURCE
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef struct {
    const double *row;
    int64_t i, d, best, steps;
    double x, y, v, gap;
} row_state;

/* Values that are not below +inf (+inf, and NaN, which numpy sorts last)
 * form one run at the end of the merged order, which ends at (n, m) with gap
 * 0. The scan covers the rest, n' values of a and m' of b, in n' + m' steps,
 * and writes +inf after each prefix: a head there never compares below the
 * other sample's remaining values, so i <= n' and j <= m' throughout. */
static void row_init(row_state *s, double *row, int64_t n, int64_t m) {
    int64_t np = n, mp = m;
    while (np > 0 && !(row[np - 1] < INFINITY))
        np--;
    while (mp > 0 && !(row[n + mp] < INFINITY))
        mp--;
    row[np] = INFINITY;
    row[n + 1 + mp] = INFINITY;
    s->row = row;
    s->steps = np + mp;
    s->i = 0;
    s->d = 0;
    s->best = 0;
    s->x = row[0];
    s->y = row[n + 1];
    s->v = s->x < s->y ? s->x : s->y;
    /* the last position (n, m) is always a run end, with gap 0 */
    s->gap = 0.0;
}

/* Step t (from 1) consumes one value, a's head on a tie: afterwards i values
 * of a and j = t - i of b are consumed, and d = i*m - j*n. The heads x and y
 * are never below the value v just consumed, so the run ends where the
 * smaller head exceeds v. */
static inline void row_step(row_state *s, int64_t t, int64_t n, int64_t m) {
    int64_t take_a = s->x <= s->y;
    double v = s->v;
    s->i += take_a;
    s->d += take_a ? m : -n;
    s->x = s->row[s->i];
    s->y = s->row[n + 1 + t - s->i];
    s->v = s->x < s->y ? s->x : s->y;
    int64_t run_end = s->v > v;
    int64_t d = (s->d < 0 ? -s->d : s->d) | (run_end - 1);
    if (d >= s->best) {
        double g = fabs((double)s->i / (double)n - (double)(t - s->i) / (double)m);
        s->gap = (d > s->best || g > s->gap) ? g : s->gap;
        s->best = d;
    }
}

void ks_scan(double *data, int64_t stride, int64_t n, int64_t m, int64_t k, double *out) {
    int64_t r = 0;
    for (; r + 1 < k; r += 2) {
        row_state s0, s1;
        row_init(&s0, data + r * stride, n, m);
        row_init(&s1, data + (r + 1) * stride, n, m);
        int64_t both = s0.steps < s1.steps ? s0.steps : s1.steps, t = 1;
        for (; t <= both; t++) {
            row_step(&s0, t, n, m);
            row_step(&s1, t, n, m);
        }
        for (int64_t u = t; u <= s0.steps; u++)
            row_step(&s0, u, n, m);
        for (; t <= s1.steps; t++)
            row_step(&s1, t, n, m);
        out[r] = s0.gap;
        out[r + 1] = s1.gap;
    }
    if (r < k) {
        row_state s;
        row_init(&s, data + r * stride, n, m);
        for (int64_t t = 1; t <= s.steps; t++)
            row_step(&s, t, n, m);
        out[r] = s.gap;
    }
}

/* parse_table: the rows of a table's body, or -1 when the body is not in the
 * strict form. text[start:len] must be `rows` rows of d fields; fields are
 * separated by ',', every row but the last ends in '\n', the last may too,
 * and each field is an ASCII decimal [+-]digits[.digits][(e|E)[+-]digits].
 * Anything else (a blank line, a space, a quote, '\r', a non-ASCII byte, a
 * ragged row) declines the whole body, and so do a field longer than
 * max_field bytes and a value that is not finite. Each field is converted by
 * strtod_l in the "C" locale, which rounds correctly, as Python's float()
 * does, whatever LC_NUMERIC says. text[len] must be NUL, as it is at the end
 * of a Python bytes object, so no read passes the end. out receives rows * d
 * values in row order. */
static const char *decimal_end(const char *p) {
    const char *digits;
    if (*p == '+' || *p == '-')
        p++;
    for (digits = p; *p >= '0' && *p <= '9'; p++)
        ;
    if (p == digits)
        return NULL;
    if (*p == '.') {
        for (digits = ++p; *p >= '0' && *p <= '9'; p++)
            ;
        if (p == digits)
            return NULL;
    }
    if (*p == 'e' || *p == 'E') {
        if (*++p == '+' || *p == '-')
            p++;
        for (digits = p; *p >= '0' && *p <= '9'; p++)
            ;
        if (p == digits)
            return NULL;
    }
    return p;
}

int64_t parse_table(const char *text, int64_t start, int64_t len, int64_t d, int64_t rows, int64_t max_field,
                    double *out) {
    locale_t c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
    if (c_locale == (locale_t)0)
        return -1;
    const char *p = text + start, *stop = text + len;
    int64_t r = 0, ok = 1;
    for (; ok && r < rows && p < stop; r++) {
        for (int64_t c = 0; c < d; c++) {
            const char *end = decimal_end(p);
            char sep = c + 1 < d ? ',' : '\n';
            if (end == NULL || end - p > max_field || !(*end == sep || (end == stop && c + 1 == d))) {
                ok = 0;
                break;
            }
            char *parsed;
            double v = strtod_l(p, &parsed, c_locale);
            if (parsed != end || !isfinite(v)) {
                ok = 0;
                break;
            }
            out[r * d + c] = v;
            p = end + (end < stop);
        }
    }
    freelocale(c_locale);
    return ok && r == rows && p == stop ? rows : -1;
}
