/* AES-128 lanes in C, built into the package's native library by
 * repro.native and called by repro.crypto.aesbatch, which owns every
 * calling convention here.  The round function is repro.crypto.aes's
 * T-table form, over that module's own tables, which the caller passes
 * in (tables: Te0..Te3, 256 words each; sbox: 256 bytes; rcon: 10 bytes).
 *
 * aes_ctr_runs is the DRBG keystream (AES128.ctr_blocks per key).  Run
 * i expands the raw 16-byte key keys[16 i .. 16 i + 15] (FIPS-197) and
 * writes counts[i] encrypted counter blocks, the first counter being the
 * big-endian 128-bit value counters[16 i .. 16 i + 15], each next one
 * that value plus one modulo 2^128.  The runs' blocks are written back
 * to back into out.
 *
 * aes_expand_keys is the key schedule alone (AES128(key)._enc_words for
 * many keys at once): key i expands into out[44 i .. 44 i + 43].
 *
 * aes_ctr_cbc_mac is share-packet protection, the lane form of
 * RealShareCodec.encrypt_share / decrypt_share.  A plan of lanes holds
 * per lane a key column (its 44 round-key words at keys[44 column ..]),
 * a source and a destination id; lane j of a call is plan lane lanes[j]
 * (lane j itself where lanes is NULL).  A 128-bit block is two uint64
 * words, high then low.  Per lane it computes
 *
 *   nonce  = round_nonce (8 bytes, big-endian) || source || destination
 *   output = data ^ E_enc(nonce)                        (CTR, one block)
 *   mac    = CBC-MAC_mac(len(32) || nonce || covered || 0x08 * 8)
 *
 * data being width words of the lane (1: the low word, the high one 0).
 * On seal (tags NULL) covered is the output and the mac is written out.
 * On open covered is the input, the received sealed tags[2 lane ..] are
 * compared over their first tag_bytes bytes, and rejected[j] is set
 * where they differ or the output exceeds limit (two words).
 */
#include <stdint.h>

static void encrypt(const uint32_t *te, const uint8_t *sbox, const uint32_t *rk,
                    uint32_t s[4])
{
    const uint32_t *t0 = te, *t1 = te + 256, *t2 = te + 512, *t3 = te + 768;
    uint32_t s0 = s[0] ^ rk[0], s1 = s[1] ^ rk[1], s2 = s[2] ^ rk[2], s3 = s[3] ^ rk[3];
    for (int k = 4; k < 40; k += 4) {
        uint32_t u0 = t0[s0 >> 24] ^ t1[(s1 >> 16) & 255] ^ t2[(s2 >> 8) & 255] ^ t3[s3 & 255];
        uint32_t u1 = t0[s1 >> 24] ^ t1[(s2 >> 16) & 255] ^ t2[(s3 >> 8) & 255] ^ t3[s0 & 255];
        uint32_t u2 = t0[s2 >> 24] ^ t1[(s3 >> 16) & 255] ^ t2[(s0 >> 8) & 255] ^ t3[s1 & 255];
        uint32_t u3 = t0[s3 >> 24] ^ t1[(s0 >> 16) & 255] ^ t2[(s1 >> 8) & 255] ^ t3[s2 & 255];
        s0 = u0 ^ rk[k];
        s1 = u1 ^ rk[k + 1];
        s2 = u2 ^ rk[k + 2];
        s3 = u3 ^ rk[k + 3];
    }
#define FINAL(a, b, c, d) \
    ((uint32_t)sbox[(a) >> 24] << 24 | (uint32_t)sbox[((b) >> 16) & 255] << 16 | \
     (uint32_t)sbox[((c) >> 8) & 255] << 8 | (uint32_t)sbox[(d) & 255])
    s[0] = FINAL(s0, s1, s2, s3) ^ rk[40];
    s[1] = FINAL(s1, s2, s3, s0) ^ rk[41];
    s[2] = FINAL(s2, s3, s0, s1) ^ rk[42];
    s[3] = FINAL(s3, s0, s1, s2) ^ rk[43];
#undef FINAL
}

static uint32_t load_be(const uint8_t *p)
{
    return (uint32_t)p[0] << 24 | (uint32_t)p[1] << 16 | (uint32_t)p[2] << 8 | p[3];
}

/* Returns the number of rejected lanes (0 on seal), or -1, having
 * written nothing, when a lane or its key column is out of range. */
int64_t aes_ctr_cbc_mac(int64_t n, const uint32_t *tables, const uint8_t *sbox,
                        const uint32_t *enc_keys, const uint32_t *mac_keys,
                        int64_t key_columns, int64_t plan_lanes, const int64_t *columns,
                        const int64_t *sources, const int64_t *destinations,
                        const int64_t *lanes, const uint8_t *round_nonce,
                        const uint64_t *data, int64_t width, const uint64_t *tags,
                        int64_t tag_bytes, const uint64_t *limit, uint64_t *output,
                        uint64_t *mac, uint8_t *rejected)
{
    for (int64_t j = 0; j < n; j++) {
        int64_t lane = lanes ? lanes[j] : j;
        if (lane < 0 || lane >= plan_lanes || columns[lane] < 0 || columns[lane] >= key_columns)
            return -1;
    }
    /* The carried tag bytes, as masks over the two MAC words. */
    uint64_t keep_hi = tag_bytes >= 8 ? UINT64_MAX : UINT64_MAX << (64 - 8 * tag_bytes);
    uint64_t keep_lo = tag_bytes >= 16 ? UINT64_MAX
                       : tag_bytes <= 8 ? 0 : UINT64_MAX << (128 - 8 * tag_bytes);
    uint32_t nonce_hi = load_be(round_nonce), nonce_lo = load_be(round_nonce + 4);
    int64_t count = 0;
    for (int64_t j = 0; j < n; j++) {
        int64_t lane = lanes ? lanes[j] : j;
        const uint32_t *enc_rk = enc_keys + 44 * columns[lane];
        const uint32_t *mac_rk = mac_keys + 44 * columns[lane];
        uint64_t hi = width == 2 ? data[2 * lane] : 0, lo = data[width * lane + width - 1];
        uint32_t nb[4] = {nonce_hi, nonce_lo, (uint32_t)sources[lane],
                          (uint32_t)destinations[lane]};
        uint32_t in[4] = {(uint32_t)(hi >> 32), (uint32_t)hi, (uint32_t)(lo >> 32),
                          (uint32_t)lo};
        uint32_t out[4], block[4] = {nb[0], nb[1], nb[2], nb[3]};
        encrypt(tables, sbox, enc_rk, block);
        for (int c = 0; c < 4; c++)
            out[c] = in[c] ^ block[c];
        const uint32_t *covered = tags ? in : out;
        block[0] = 0;
        block[1] = 32;
        block[2] = nb[0];
        block[3] = nb[1];
        encrypt(tables, sbox, mac_rk, block);
        block[0] ^= nb[2];
        block[1] ^= nb[3];
        block[2] ^= covered[0];
        block[3] ^= covered[1];
        encrypt(tables, sbox, mac_rk, block);
        block[0] ^= covered[2];
        block[1] ^= covered[3];
        block[2] ^= 0x08080808u;
        block[3] ^= 0x08080808u;
        encrypt(tables, sbox, mac_rk, block);
        uint64_t out_hi = (uint64_t)out[0] << 32 | out[1], out_lo = (uint64_t)out[2] << 32 | out[3];
        uint64_t mac_hi = (uint64_t)block[0] << 32 | block[1];
        uint64_t mac_lo = (uint64_t)block[2] << 32 | block[3];
        output[2 * j] = out_hi;
        output[2 * j + 1] = out_lo;
        if (!tags) {
            mac[2 * j] = mac_hi;
            mac[2 * j + 1] = mac_lo;
            continue;
        }
        int bad = ((mac_hi ^ tags[2 * lane]) & keep_hi) || ((mac_lo ^ tags[2 * lane + 1]) & keep_lo) ||
                  out_hi > limit[0] || (out_hi == limit[0] && out_lo > limit[1]);
        rejected[j] = (uint8_t)bad;
        count += bad;
    }
    return count;
}

/* The plan lanes whose sub-slot their destination received: lane i is
 * delivered where bit chains[i] of view rows[i] is set, the view_count
 * views being view_bytes little-endian bytes each, back to back.  Writes
 * the lane indices in order to out and returns their number, or -1,
 * having written nothing, when a lane reads outside the views. */
int64_t delivered_lanes(int64_t n, const int64_t *rows, const int64_t *chains,
                        const uint8_t *views, int64_t view_count, int64_t view_bytes,
                        int64_t *out)
{
    for (int64_t i = 0; i < n; i++)
        if (rows[i] < 0 || rows[i] >= view_count || chains[i] < 0 || chains[i] >= 8 * view_bytes)
            return -1;
    int64_t count = 0;
    for (int64_t i = 0; i < n; i++)
        if (views[rows[i] * view_bytes + chains[i] / 8] >> (chains[i] % 8) & 1)
            out[count++] = i;
    return count;
}

static void store_be(uint8_t *p, uint32_t word)
{
    p[0] = (uint8_t)(word >> 24);
    p[1] = (uint8_t)(word >> 16);
    p[2] = (uint8_t)(word >> 8);
    p[3] = (uint8_t)word;
}

/* repro.crypto.aes._expand_key_words: four words per round, the first
 * through RotWord, SubWord and Rcon, the other three chained xors. */
static void expand_key(const uint8_t *sbox, const uint8_t *rcon, const uint8_t *key,
                       uint32_t rk[44])
{
    for (int c = 0; c < 4; c++)
        rk[c] = load_be(key + 4 * c);
    for (int k = 4; k < 44; k += 4) {
        uint32_t w = rk[k - 1];
        uint32_t temp = (uint32_t)sbox[(w >> 16) & 255] << 24 | (uint32_t)sbox[(w >> 8) & 255] << 16 |
                        (uint32_t)sbox[w & 255] << 8 | (uint32_t)sbox[w >> 24];
        rk[k] = rk[k - 4] ^ temp ^ (uint32_t)rcon[k / 4 - 1] << 24;
        rk[k + 1] = rk[k - 3] ^ rk[k];
        rk[k + 2] = rk[k - 2] ^ rk[k + 1];
        rk[k + 3] = rk[k - 1] ^ rk[k + 2];
    }
}

void aes_expand_keys(int64_t n, const uint8_t *sbox, const uint8_t *rcon,
                     const uint8_t *keys, uint32_t *out)
{
    for (int64_t i = 0; i < n; i++)
        expand_key(sbox, rcon, keys + 16 * i, out + 44 * i);
}

void aes_ctr_runs(int64_t runs, const uint32_t *tables, const uint8_t *sbox,
                  const uint8_t *rcon, const uint8_t *keys, const uint8_t *counters,
                  const int64_t *counts, uint8_t *out)
{
    for (int64_t i = 0; i < runs; i++) {
        uint32_t rk[44], counter[4], block[4];
        expand_key(sbox, rcon, keys + 16 * i, rk);
        for (int c = 0; c < 4; c++)
            counter[c] = load_be(counters + 16 * i + 4 * c);
        for (int64_t j = 0; j < counts[i]; j++) {
            for (int c = 0; c < 4; c++)
                block[c] = counter[c];
            encrypt(tables, sbox, rk, block);
            for (int c = 0; c < 4; c++)
                store_be(out + 4 * c, block[c]);
            out += 16;
            /* counter + 1 mod 2^128: each word that wraps to 0 carries */
            for (int c = 3; c >= 0 && ++counter[c] == 0; c--)
                ;
        }
    }
}
