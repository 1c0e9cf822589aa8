/* Polynomial evaluation over GF(2^61 - 1): the C twin of
 * repro.field.kernels.horner_eval_many for the library's default prime,
 * built into the package's native library by repro.native and called by
 * repro.field.kernels, which owns this calling convention.
 *
 * One buffer carries everything, so a call converts three arguments:
 * words holds the length coefficients, then the points; each point is
 * replaced in place by
 *
 *   sum_i coefficients[i] * x^i mod p, canonical,
 *
 * by Horner's rule with 128-bit products folded onto 61 bits
 * (2^61 = 1 mod p).  Coefficients and points may be any uint64: each
 * point is reduced first.  Between steps an accumulator is only kept
 * below 2^62 (partial); it is made canonical once, at the end (fold).
 * Without a 128-bit integer type the function is left out, and the
 * caller's lookup finds nothing and keeps the Python path.
 */
#include <stdint.h>

#ifdef __SIZEOF_INT128__

#define M61 ((uint64_t)0x1FFFFFFFFFFFFFFFull)

static uint64_t fold(unsigned __int128 value)
{
    uint64_t low = (uint64_t)value & M61;
    uint64_t high = (uint64_t)(value >> 61); /* value < 2^125, so high < 2^64 */
    uint64_t sum = low + (high & M61) + (high >> 61); /* < 2^62 + 8 */
    sum = (sum & M61) + (sum >> 61);
    return sum >= M61 ? sum - M61 : sum;
}

/* A residue below 2^62 congruent to value, for value < 2^124: an
 * accumulator below 2^62 times a canonical point plus any uint64
 * coefficient stays below 2^123 + 2^64.  The first fold leaves
 * t < 2^61 + 2^63, the second less than 2^61 + 8. */
static uint64_t partial(unsigned __int128 value)
{
    uint64_t t = ((uint64_t)value & M61) + (uint64_t)(value >> 61);
    return (t & M61) + (t >> 61);
}

/* Points are evaluated BLOCK at a time, coefficient by coefficient, so
 * the block's Horner chains are independent and overlap in the
 * pipeline. */
#define BLOCK 16

void m61_horner(int64_t length, int64_t points, uint64_t *words)
{
    const uint64_t *coefficients = words;
    uint64_t *values = words + length;
    for (int64_t start = 0; start < points; start += BLOCK) {
        int64_t n = points - start < BLOCK ? points - start : BLOCK;
        uint64_t x[BLOCK], accumulator[BLOCK];
        for (int64_t j = 0; j < n; j++) {
            x[j] = fold(values[start + j]);
            accumulator[j] = 0;
        }
        for (int64_t i = length - 1; i >= 0; i--)
            for (int64_t j = 0; j < n; j++)
                accumulator[j] = partial((unsigned __int128)accumulator[j] * x[j] + coefficients[i]);
        for (int64_t j = 0; j < n; j++)
            values[start + j] = fold(accumulator[j]);
    }
}

#endif
