/* Polynomial evaluation over GF(2^61 - 1): the C twin of
 * repro.field.kernels.horner_eval_many for the library's default prime,
 * built into the package's native library by repro.native and called by
 * repro.field.kernels, which owns this calling convention.
 *
 * out[j] = sum_i coefficients[i] * xs[j]^i mod p, canonical, by Horner's
 * rule with 128-bit products folded onto 61 bits (2^61 = 1 mod p).
 * Coefficients and points may be any uint64: each point is reduced
 * first, and a coefficient enters a sum below 2^123, so the fold is
 * exact.  Without a 128-bit integer type the function is left out, and
 * the caller's lookup finds nothing and keeps the Python path.
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

void m61_horner(int64_t length, const uint64_t *coefficients, int64_t points,
                const uint64_t *xs, uint64_t *out)
{
    for (int64_t j = 0; j < points; j++) {
        uint64_t x = fold(xs[j]);
        uint64_t accumulator = 0;
        for (int64_t i = length - 1; i >= 0; i--)
            accumulator = fold((unsigned __int128)accumulator * x + coefficients[i]);
        out[j] = accumulator;
    }
}

#endif
