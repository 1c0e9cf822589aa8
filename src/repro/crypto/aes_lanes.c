/* AES-128 lanes in C: the twins of two numpy kernels of
 * repro.crypto.aesbatch, built into the package's native library by
 * repro.native and called by repro.crypto.aesbatch, which owns both
 * calling conventions.  The round function is repro.crypto.aes's T-table
 * form, over that module's own tables, which the caller passes in
 * (tables: Te0..Te3, 256 words each; sbox: 256 bytes; rcon: 10 bytes).
 *
 * aes_ctr_runs is the DRBG keystream (aesbatch.keystream_runs, and
 * AES128.ctr_blocks per key).  Run i expands the raw 16-byte key
 * keys[16 i .. 16 i + 15] (FIPS-197) and writes counts[i] encrypted
 * counter blocks, the first counter being the big-endian 128-bit value
 * counters[16 i .. 16 i + 15], each next one that value plus one modulo
 * 2^128.  The runs' blocks are written back to back into out.
 *
 * aes_expand_keys is the key schedule alone (AES128(key)._enc_words for
 * many keys at once): key i expands into out[44 i .. 44 i + 43].
 *
 * aes_ctr_cbc_mac is share-packet protection (aesbatch.ctr_cbc_mac keyed
 * by columns).  Lane i is keyed by column columns[i] of two (44, K)
 * round-key matrices (word k of column c at keys[k * K + c]: the layout
 * of repro.core.payload.PairKeyTable), so no per-lane key copy is
 * gathered in Python.  Its nonce and data blocks are big-endian words in
 * (4, N) int64 rows (word c of lane i at state[c * N + i]), and so are
 * the two outputs.  Per lane it computes what ctr_cbc_mac computes:
 *
 *   output = data ^ E_enc(nonce)                        (CTR, one block)
 *   mac    = CBC-MAC_mac(len(32) || nonce || covered || 0x08 * 8)
 *
 * with covered the output on the sender and the input on the receiver.
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

/* Returns 0, or -1 (having written nothing) when a key column lies
 * outside [0, key_columns). */
int64_t aes_ctr_cbc_mac(int64_t n, const uint32_t *tables, const uint8_t *sbox,
                        const uint32_t *enc_keys, const uint32_t *mac_keys,
                        int64_t key_columns, const int64_t *columns,
                        const int64_t *nonce, const int64_t *data,
                        int64_t mac_over_input, int64_t *output, int64_t *mac)
{
    for (int64_t i = 0; i < n; i++)
        if (columns[i] < 0 || columns[i] >= key_columns)
            return -1;
    for (int64_t i = 0; i < n; i++) {
        uint32_t enc_rk[44], mac_rk[44], nb[4], in[4], out[4], block[4];
        const uint32_t *enc_column = enc_keys + columns[i];
        const uint32_t *mac_column = mac_keys + columns[i];
        for (int k = 0; k < 44; k++) {
            enc_rk[k] = enc_column[k * key_columns];
            mac_rk[k] = mac_column[k * key_columns];
        }
        for (int c = 0; c < 4; c++) {
            nb[c] = block[c] = (uint32_t)nonce[c * n + i];
            in[c] = (uint32_t)data[c * n + i];
        }
        encrypt(tables, sbox, enc_rk, block);
        for (int c = 0; c < 4; c++) {
            out[c] = in[c] ^ block[c];
            output[c * n + i] = out[c];
        }
        const uint32_t *covered = mac_over_input ? in : out;
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
        for (int c = 0; c < 4; c++)
            mac[c * n + i] = block[c];
    }
    return 0;
}

static uint32_t load_be(const uint8_t *p)
{
    return (uint32_t)p[0] << 24 | (uint32_t)p[1] << 16 | (uint32_t)p[2] << 8 | p[3];
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
