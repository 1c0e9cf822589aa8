/*
 * MiniCast's slot loop in C: the body of MiniCastRound._run_fast, step
 * for step, drawing the same numbers in the same order as the Python
 * loop it mirrors (repro/ct/minicast.py, MiniCastRound._python_slots).
 *
 * The random stream is CPython's: the MT19937 state of a random.Random
 * comes in as getstate()'s 624 words plus the position, advances here
 * exactly as random() and getrandbits(k) would advance it, and goes back
 * out the same way.  Chain views are little-endian arrays of 64-bit
 * words, so any chain width works.
 *
 * minicast_reference, further down, is the same for the readable loop
 * that commissioning runs (MiniCastRound._run_reference): it samples
 * every eligible transmitter's full delivery mask, as random_bitmask
 * does, and so draws exactly what that loop draws.
 *
 * repro/native.py builds both (its FLAGS keep -ffp-contract=off: no
 * fused multiply-adds, so the running miss product and random() round
 * exactly as Python's float arithmetic does) and repro/ct/native.py
 * calls them.  The kernels keep no static mutable state, so concurrent
 * calls are safe.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ---- CPython's Mersenne Twister (Modules/_randommodule.c) ---------- */

#define MT_N 624
#define MT_M 397
#define MATRIX_A 0x9908b0dfU
#define UPPER_MASK 0x80000000U
#define LOWER_MASK 0x7fffffffU

typedef struct {
    uint32_t state[MT_N];
    int index;
} mt19937;

/* Refill the state with the next MT_N words: CPython's recurrence, four
 * words at a time.  Each group of four reads only words the scalar loop
 * would read before writing them, so the result is the same. */
typedef uint32_t u32x4 __attribute__((vector_size(16)));

static inline u32x4 load4(const uint32_t *p)
{
    u32x4 v;
    memcpy(&v, p, sizeof(v));
    return v;
}

static inline uint32_t twist(uint32_t upper, uint32_t lower, uint32_t far)
{
    uint32_t y = (upper & UPPER_MASK) | (lower & LOWER_MASK);
    return far ^ (y >> 1) ^ (-(y & 0x1U) & MATRIX_A);
}

static void mt_regen(mt19937 *g)
{
    uint32_t *mt = g->state;
    int kk = 0;
    for (; kk + 4 <= MT_N - MT_M; kk += 4) {
        u32x4 y = (load4(mt + kk) & UPPER_MASK) | (load4(mt + kk + 1) & LOWER_MASK);
        u32x4 next = load4(mt + kk + MT_M) ^ (y >> 1) ^ (-(y & 0x1U) & MATRIX_A);
        memcpy(mt + kk, &next, sizeof(next));
    }
    for (; kk < MT_N - MT_M; kk++)
        mt[kk] = twist(mt[kk], mt[kk + 1], mt[kk + MT_M]);
    for (; kk + 4 <= MT_N - 1; kk += 4) {
        u32x4 y = (load4(mt + kk) & UPPER_MASK) | (load4(mt + kk + 1) & LOWER_MASK);
        u32x4 next = load4(mt + kk + (MT_M - MT_N)) ^ (y >> 1) ^ (-(y & 0x1U) & MATRIX_A);
        memcpy(mt + kk, &next, sizeof(next));
    }
    for (; kk < MT_N - 1; kk++)
        mt[kk] = twist(mt[kk], mt[kk + 1], mt[kk + (MT_M - MT_N)]);
    mt[MT_N - 1] = twist(mt[MT_N - 1], mt[0], mt[MT_M - 1]);
    g->index = 0;
}

/* The output transform of one state word. */
static inline uint32_t temper(uint32_t y)
{
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

static uint32_t genrand_uint32(mt19937 *g)
{
    if (g->index >= MT_N)
        mt_regen(g);
    return temper(g->state[g->index++]);
}

/* random.random(): a 53-bit float from two words. */
static double genrand_res53(mt19937 *g)
{
    uint32_t a = genrand_uint32(g) >> 5;
    uint32_t b = genrand_uint32(g) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* One sampled delivery mask, restricted to `fresh`: the `precision`
 * getrandbits(chain_bits) draws of random_bitmask, folded LSB-first over
 * the digits of `quantized`, ANDed with `fresh` into `got`.  Each draw
 * advances the stream by all of its 32-bit words (filled least
 * significant first, the last one shifted right by its unused bits, as
 * CPython assembles the int), but only the words where `fresh` has bits
 * are tempered and folded.  `need` and `fold` are scratch for
 * (chain_bits + 31) / 32 entries. */
static void sample_fresh(mt19937 *g, int64_t chain_bits, int64_t precision,
                         int64_t quantized, const uint64_t *fresh, int64_t words,
                         int64_t *need, uint32_t *fold, uint64_t *got)
{
    const int64_t words32 = (chain_bits - 1) / 32 + 1;
    const int last_shift = (int)(32 * words32 - chain_bits);
    int64_t count = 0;
    for (int64_t w = 0; w < words32; w++)
        if ((uint32_t)(fresh[w >> 1] >> (32 * (w & 1))))
            need[count++] = w;
    memset(fold, 0, (size_t)count * sizeof(uint32_t));
    for (int64_t d = 0; d < precision; d++) {
        const int one = (int)(quantized >> d & 1);
        if (g->index + words32 <= MT_N) {
            const uint32_t *block = g->state + g->index;
            for (int64_t c = 0; c < count; c++) {
                uint32_t r = temper(block[need[c]]);
                if (need[c] == words32 - 1)
                    r >>= last_shift;
                fold[c] = one ? fold[c] | r : fold[c] & r;
            }
            g->index += (int)words32;
        } else {
            /* The draw crosses a state refill: word by word. */
            int64_t c = 0;
            for (int64_t w = 0; w < words32; w++) {
                if (g->index >= MT_N)
                    mt_regen(g);
                uint32_t y = g->state[g->index++];
                if (c < count && need[c] == w) {
                    uint32_t r = temper(y);
                    if (w == words32 - 1)
                        r >>= last_shift;
                    fold[c] = one ? fold[c] | r : fold[c] & r;
                    c++;
                }
            }
        }
    }
    memset(got, 0, (size_t)words * sizeof(uint64_t));
    for (int64_t c = 0; c < count; c++)
        got[need[c] >> 1] |= (uint64_t)fold[c] << (32 * (need[c] & 1));
    for (int64_t j = 0; j < words; j++)
        got[j] &= fresh[j];
}

/* ---- word-array helpers ------------------------------------------- */

/* Portable popcount: without -mpopcnt, __builtin_popcountll is a
 * library call. */
static inline int64_t popcount64(uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (int64_t)((x * 0x0101010101010101ULL) >> 56);
}

static int any_bits(const uint64_t *a, int64_t w)
{
    for (int64_t j = 0; j < w; j++)
        if (a[j])
            return 1;
    return 0;
}

static int64_t popcount_and(const uint64_t *a, const uint64_t *b, int64_t w)
{
    int64_t count = 0;
    for (int64_t j = 0; j < w; j++)
        count += popcount64(a[j] & b[j]);
    return count;
}

/* ---- the slot loop ------------------------------------------------- */

/* Per-node flags, as the Python loop's node bit masks. */
enum {
    ALIVE = 1,
    RADIO = 2,
    ARMED = 4,
    FORCE = 8,
    BUDGET = 16,
    HAS_DATA = 32,
    TX = 64,
};

/* completion[i] of a node whose requirement is still unmet. */
#define PENDING (-2)

/*
 * Run the slots of one round.  Arrays are per node (n) or per node and
 * word (n * words); every output array arrives initialised by the
 * Python prologue and is updated in place:
 *
 *   know            chain views (in/out)
 *   total_union     union of the initial views (words)
 *   flags           ALIVE/RADIO/ARMED/FORCE/BUDGET per node (in/out)
 *   req_mask/_min   reception requirement of pending nodes
 *   arm_slot        slot at which a node joins the flood, or -1
 *   fail_slot       slot at whose start a node dies, or -1
 *   rx_start/src/q/miss   each listener's receive list, strongest first:
 *                   source index, quantized PRR, per-bit miss probability
 *   tx_us, on_until_us    radio time bookkeeping (in/out)
 *   radio_off_slot  slot after which a node powered down, or -1 (out)
 *   completion      -1 (met at start), PENDING, or the slot (in/out)
 *   failed_at       slot at which a node died, or -1 (out)
 *   mt              624 MT19937 words and the position (in/out)
 *
 * Returns the number of slots run, or -1 if scratch memory could not be
 * allocated (nothing has been drawn or changed then).
 */
int64_t minicast_slots(
    int64_t n, int64_t words, int64_t chain_bits, int64_t num_slots,
    int64_t ntx, int64_t packet_us, int64_t chain_slot_us,
    int64_t max_div, int64_t early_off, double tx_probability,
    int64_t precision, int64_t max_arm_slot, int64_t know_uniform,
    uint64_t *know, const uint64_t *total_union, uint8_t *flags,
    const uint64_t *req_mask, const int64_t *req_min,
    const int64_t *arm_slot, const int64_t *fail_slot,
    const int64_t *rx_start, const int64_t *rx_src, const int64_t *rx_q,
    const double *rx_miss,
    int64_t *tx_us, int64_t *on_until_us, int64_t *radio_off_slot,
    int64_t *completion, int64_t *failed_at, uint32_t *mt)
{
    const int64_t q_full = (int64_t)1 << precision;
    /* tx_union, missing, received, eligible, fresh, got, attempted[max_div] */
    uint64_t *scratch = calloc((size_t)((6 + max_div) * words), sizeof(uint64_t));
    int64_t *tx_count = calloc((size_t)n, sizeof(int64_t));
    int64_t *contenders = malloc((size_t)n * sizeof(int64_t));
    int64_t *need = malloc((size_t)(2 * words) * sizeof(int64_t));
    uint32_t *fold = malloc((size_t)(2 * words) * sizeof(uint32_t));
    if (!scratch || !tx_count || !contenders || !need || !fold) {
        free(scratch);
        free(tx_count);
        free(contenders);
        free(need);
        free(fold);
        return -1;
    }
    uint64_t *tx_union = scratch;
    uint64_t *missing = tx_union + words;
    uint64_t *received = missing + words;
    uint64_t *eligible = received + words;
    uint64_t *fresh = eligible + words;
    uint64_t *got = fresh + words;
    /* Saturating attempt counters as bit planes: plane k has a bit where
     * the sub-slot has had more than k attempts; a sub-slot stops
     * accepting transmitters once the top plane has it. */
    uint64_t *attempted = got + words;
    const uint64_t *saturated = attempted + (max_div - 1) * words;

    mt19937 g;
    memcpy(g.state, mt, sizeof(g.state));
    g.index = (int)mt[MT_N];

    int any_arm = 0, any_fail = 0;
    for (int64_t i = 0; i < n; i++) {
        if (any_bits(know + i * words, words))
            flags[i] |= HAS_DATA;
        any_arm |= arm_slot[i] >= 0;
        any_fail |= fail_slot[i] >= 0;
    }

    int64_t slots_run = 0;
    for (int64_t slot = 0; slot < num_slots; slot++) {
        if (any_arm)
            for (int64_t i = 0; i < n; i++)
                if (arm_slot[i] == slot && (flags[i] & ALIVE)
                    && (flags[i] & HAS_DATA) && (flags[i] & BUDGET))
                    flags[i] |= ARMED;
        if (any_fail)
            for (int64_t i = 0; i < n; i++)
                if (fail_slot[i] == slot && (flags[i] & ALIVE)) {
                    flags[i] &= (uint8_t)~(ALIVE | RADIO);
                    on_until_us[i] = slot * chain_slot_us;
                    failed_at[i] = slot;
                }

        const uint8_t contend = RADIO | ARMED | BUDGET | HAS_DATA;
        int64_t num_contenders = 0;
        for (int64_t i = 0; i < n; i++)
            if ((flags[i] & contend) == contend)
                contenders[num_contenders++] = i;
        if (!num_contenders) {
            if (max_arm_slot > slot)
                continue;
            break;
        }
        slots_run = slot + 1;

        /* Contenders in ascending index order: one tx_probability draw
         * each unless forced, then transmit bookkeeping. */
        int any_tx = 0;
        memset(tx_union, 0, (size_t)words * sizeof(uint64_t));
        for (int64_t c = 0; c < num_contenders; c++) {
            int64_t i = contenders[c];
            if (flags[i] & FORCE)
                flags[i] &= (uint8_t)~FORCE;
            else if (genrand_res53(&g) >= tx_probability)
                continue;
            flags[i] |= TX;
            any_tx = 1;
            const uint64_t *view = know + i * words;
            int64_t bits = 0;
            for (int64_t j = 0; j < words; j++) {
                tx_union[j] |= view[j];
                bits += popcount64(view[j]);
            }
            if (++tx_count[i] >= ntx)
                flags[i] &= (uint8_t)~BUDGET;
            tx_us[i] += bits * packet_us;
        }
        if (!any_tx)
            continue;

        int skip_listeners = 0;
        if (know_uniform) {
            skip_listeners = 1;
            for (int64_t i = 0; i < n; i++)
                if ((flags[i] & (RADIO | BUDGET | ARMED)) == (RADIO | BUDGET)) {
                    skip_listeners = 0;
                    break;
                }
        }
        int know_changed = 0;
        for (int64_t i = 0; i < n && !skip_listeners; i++) {
            if (!(flags[i] & RADIO) || (flags[i] & TX))
                continue;
            uint64_t *know_i = know + i * words;
            /* missing: fresh sub-slots (transmitted, unknown to i) not
             * yet received; the listener is done once none are left. */
            int64_t missing_words = 0;
            for (int64_t j = 0; j < words; j++) {
                missing[j] = tx_union[j] & ~know_i[j];
                missing_words += missing[j] != 0;
            }
            /* Armed stays armed: only an unarmed listener with budget
             * left is changed by already-known sub-slots. */
            int can_rearm = !(flags[i] & ARMED) && (flags[i] & BUDGET);
            if (!missing_words && !can_rearm)
                continue;
            int sampled_hit = 0;
            double miss = 1.0;
            memset(received, 0, (size_t)words * sizeof(uint64_t));
            memset(attempted, 0, (size_t)(max_div * words) * sizeof(uint64_t));
            for (int64_t e = rx_start[i]; e < rx_start[i + 1]; e++) {
                int64_t src = rx_src[e];
                if (!(flags[src] & TX))
                    continue;
                const uint64_t *know_src = know + src * words;
                uint64_t eligible_any = 0, fresh_any = 0;
                for (int64_t j = 0; j < words; j++) {
                    uint64_t el = know_src[j] & ~saturated[j];
                    eligible[j] = el;
                    eligible_any |= el;
                    fresh[j] = el & ~know_i[j];
                    fresh_any |= fresh[j];
                }
                if (!eligible_any)
                    continue;
                int64_t quantized = rx_q[e];
                const uint64_t *delivered = NULL;
                if (quantized >= q_full) {
                    sampled_hit = 1;
                    delivered = eligible;
                } else if (quantized > 0) {
                    if (fresh_any) {
                        sample_fresh(&g, chain_bits, precision, quantized, fresh,
                                     words, need, fold, got);
                        for (int64_t j = 0; j < words; j++)
                            if (got[j]) {
                                sampled_hit = 1;
                                delivered = got;
                            }
                    }
                    if (can_rearm && !sampled_hit) {
                        int64_t stale = popcount_and(eligible, know_i, words);
                        if (stale)
                            miss *= pow(rx_miss[e], (double)stale);
                    }
                }
                if (delivered)
                    for (int64_t j = 0; j < words; j++) {
                        received[j] |= delivered[j];
                        if (missing[j] && !(missing[j] &= ~delivered[j]))
                            missing_words--;
                    }
                if (!missing_words && (sampled_hit || !can_rearm))
                    break;
                for (int64_t j = 0; j < words; j++) {
                    uint64_t el = eligible[j];
                    for (int64_t plane = max_div - 1; plane > 0; plane--)
                        attempted[plane * words + j] |= attempted[(plane - 1) * words + j] & el;
                    attempted[j] |= el;
                }
            }
            int decoded_any;
            if (sampled_hit)
                decoded_any = 1;
            else if (can_rearm && miss < 1.0)
                /* P(at least one already-known sub-slot decoded). */
                decoded_any = genrand_res53(&g) >= miss;
            else
                decoded_any = 0;
            if (!decoded_any)
                continue;
            int new_any = 0;
            for (int64_t j = 0; j < words; j++) {
                uint64_t new_bits = received[j] & ~know_i[j];
                if (new_bits) {
                    know_i[j] |= new_bits;
                    new_any = 1;
                }
            }
            if (new_any) {
                flags[i] |= HAS_DATA;
                know_changed = 1;
            }
            if (flags[i] & BUDGET)
                flags[i] |= ARMED;
        }
        for (int64_t c = 0; c < num_contenders; c++)
            flags[contenders[c]] &= (uint8_t)~TX;

        if (know_changed && !know_uniform) {
            know_uniform = 1;
            for (int64_t i = 0; i < n && know_uniform; i++)
                if ((flags[i] & RADIO)
                    && memcmp(know + i * words, total_union,
                              (size_t)words * sizeof(uint64_t)))
                    know_uniform = 0;
        }

        /* End-of-slot bookkeeping: completion and early radio-off. */
        for (int64_t i = 0; i < n; i++)
            if (completion[i] == PENDING && (flags[i] & RADIO)
                && popcount_and(know + i * words, req_mask + i * words, words)
                       >= req_min[i])
                completion[i] = slot;
        if (early_off)
            for (int64_t i = 0; i < n; i++)
                if ((flags[i] & RADIO) && !(flags[i] & BUDGET)
                    && completion[i] != PENDING) {
                    flags[i] &= (uint8_t)~RADIO;
                    radio_off_slot[i] = slot;
                    on_until_us[i] = (slot + 1) * chain_slot_us;
                }
    }

    memcpy(mt, g.state, sizeof(g.state));
    mt[MT_N] = (uint32_t)g.index;
    free(scratch);
    free(tx_count);
    free(contenders);
    free(need);
    free(fold);
    return slots_run;
}

/* ---- the reference loop -------------------------------------------- */

/*
 * Run one round of the reference loop.  The arguments are those of
 * minicast_slots, less what the reference loop does not have (the
 * running union, the BUDGET flag, the miss probabilities): budgets are
 * counted against ntx per node, a receive list holds every source above
 * the capture floor, strongest first, with its quantized PRR (0: no
 * delivery and no draw, q_full: every eligible sub-slot and no draw),
 * and flags arrive as ALIVE/RADIO/ARMED/FORCE only.
 *
 * Per listener, every transmitting source with eligible sub-slots costs
 * random_bitmask's `precision` getrandbits(chain_bits) draws; only the
 * words the eligible mask touches are tempered, as sample_fresh does.
 *
 * Returns the number of slots run, or -1 if scratch memory could not be
 * allocated (nothing has been drawn or changed then).
 */
int64_t minicast_reference(
    int64_t n, int64_t words, int64_t chain_bits, int64_t num_slots,
    int64_t ntx, int64_t packet_us, int64_t chain_slot_us,
    int64_t max_div, int64_t early_off, double tx_probability,
    int64_t precision, int64_t max_arm_slot,
    uint64_t *know, uint8_t *flags,
    const uint64_t *req_mask, const int64_t *req_min,
    const int64_t *arm_slot, const int64_t *fail_slot,
    const int64_t *rx_start, const int64_t *rx_src, const int64_t *rx_q,
    int64_t *tx_us, int64_t *on_until_us, int64_t *radio_off_slot,
    int64_t *completion, int64_t *failed_at, uint32_t *mt)
{
    const int64_t q_full = (int64_t)1 << precision;
    /* received, eligible, got, attempted[max_div] */
    uint64_t *scratch = calloc((size_t)((3 + max_div) * words), sizeof(uint64_t));
    int64_t *tx_count = calloc((size_t)n, sizeof(int64_t));
    int64_t *contenders = malloc((size_t)n * sizeof(int64_t));
    int64_t *need = malloc((size_t)(2 * words) * sizeof(int64_t));
    uint32_t *fold = malloc((size_t)(2 * words) * sizeof(uint32_t));
    if (!scratch || !tx_count || !contenders || !need || !fold) {
        free(scratch);
        free(tx_count);
        free(contenders);
        free(need);
        free(fold);
        return -1;
    }
    uint64_t *received = scratch;
    uint64_t *eligible = received + words;
    uint64_t *got = eligible + words;
    uint64_t *attempted = got + words;
    const uint64_t *saturated = attempted + (max_div - 1) * words;

    mt19937 g;
    memcpy(g.state, mt, sizeof(g.state));
    g.index = (int)mt[MT_N];

    for (int64_t i = 0; i < n; i++)
        if (any_bits(know + i * words, words))
            flags[i] |= HAS_DATA;

    int64_t slots_run = 0;
    for (int64_t slot = 0; slot < num_slots; slot++) {
        /* TDMA wave, then fault injection, as the reference orders them. */
        for (int64_t i = 0; i < n; i++)
            if (arm_slot[i] == slot && (flags[i] & ALIVE) && (flags[i] & HAS_DATA)
                && tx_count[i] < ntx)
                flags[i] |= ARMED;
        for (int64_t i = 0; i < n; i++)
            if (fail_slot[i] == slot && (flags[i] & ALIVE)) {
                flags[i] &= (uint8_t)~(ALIVE | RADIO);
                on_until_us[i] = slot * chain_slot_us;
                failed_at[i] = slot;
            }

        const uint8_t contend = RADIO | ARMED | HAS_DATA;
        int64_t num_contenders = 0;
        for (int64_t i = 0; i < n; i++)
            if ((flags[i] & contend) == contend && tx_count[i] < ntx)
                contenders[num_contenders++] = i;
        if (!num_contenders) {
            if (max_arm_slot > slot)
                continue;
            break;
        }
        slots_run = slot + 1;

        int any_tx = 0;
        for (int64_t c = 0; c < num_contenders; c++) {
            int64_t i = contenders[c];
            if (!(flags[i] & FORCE) && !(genrand_res53(&g) < tx_probability))
                continue;
            flags[i] = (uint8_t)((flags[i] & ~FORCE) | TX);
            any_tx = 1;
            tx_count[i]++;
            tx_us[i] += popcount_and(know + i * words, know + i * words, words) * packet_us;
        }
        if (!any_tx)
            continue;

        for (int64_t i = 0; i < n; i++) {
            if (!(flags[i] & RADIO) || (flags[i] & TX))
                continue;
            int decoded_any = 0;
            memset(received, 0, (size_t)words * sizeof(uint64_t));
            memset(attempted, 0, (size_t)(max_div * words) * sizeof(uint64_t));
            for (int64_t e = rx_start[i]; e < rx_start[i + 1]; e++) {
                int64_t src = rx_src[e];
                if (!(flags[src] & TX))
                    continue;
                const uint64_t *know_src = know + src * words;
                uint64_t eligible_any = 0;
                for (int64_t j = 0; j < words; j++) {
                    eligible[j] = know_src[j] & ~saturated[j];
                    eligible_any |= eligible[j];
                }
                if (!eligible_any)
                    continue;
                int64_t quantized = rx_q[e];
                const uint64_t *delivered = NULL;
                if (quantized >= q_full)
                    delivered = eligible;
                else if (quantized > 0) {
                    sample_fresh(&g, chain_bits, precision, quantized, eligible,
                                 words, need, fold, got);
                    delivered = got;
                }
                if (delivered)
                    for (int64_t j = 0; j < words; j++)
                        if (delivered[j]) {
                            decoded_any = 1;
                            received[j] |= delivered[j];
                        }
                for (int64_t j = 0; j < words; j++) {
                    uint64_t el = eligible[j];
                    for (int64_t plane = max_div - 1; plane > 0; plane--)
                        attempted[plane * words + j] |= attempted[(plane - 1) * words + j] & el;
                    attempted[j] |= el;
                }
            }
            if (!decoded_any)
                continue;
            uint64_t *know_i = know + i * words;
            for (int64_t j = 0; j < words; j++)
                know_i[j] |= received[j];
            flags[i] |= HAS_DATA;
            if (tx_count[i] < ntx)
                flags[i] |= ARMED;
        }
        for (int64_t c = 0; c < num_contenders; c++)
            flags[contenders[c]] &= (uint8_t)~TX;

        /* End-of-slot bookkeeping: completion and early radio-off. */
        for (int64_t i = 0; i < n; i++) {
            if (!(flags[i] & RADIO))
                continue;
            if (completion[i] == PENDING
                && popcount_and(know + i * words, req_mask + i * words, words) >= req_min[i])
                completion[i] = slot;
            if (early_off && tx_count[i] >= ntx && completion[i] != PENDING) {
                flags[i] &= (uint8_t)~RADIO;
                radio_off_slot[i] = slot;
                on_until_us[i] = (slot + 1) * chain_slot_us;
            }
        }
    }

    memcpy(mt, g.state, sizeof(g.state));
    mt[MT_N] = (uint32_t)g.index;
    free(scratch);
    free(tx_count);
    free(contenders);
    free(need);
    free(fold);
    return slots_run;
}
