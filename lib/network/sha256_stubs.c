/* The SHA-256 compression function (FIPS 180-4, section 6.2.2) over a run
   of 64-byte blocks, for Sha256.

   The chaining state is 8 native-endian 32-bit words held in an OCaml
   bytes value; the input is a bytes buffer whose first [nblocks] * 64
   bytes are compressed into the state in order. The kernels allocate
   nothing and never raise ([@@noalloc] externals); the OCaml side keeps
   the block count within the buffer.

   On x86-64 a path built on the SHA extensions (SHA-NI) is chosen once,
   at load time, when the CPU has them; everywhere else, and on CPUs
   without them, the portable C rounds run. Both compute the same
   function, so a digest does not depend on the machine that made it.
   The OCaml rounds these kernels replaced are kept as their oracle in
   test/sha256_ref.ml. */

#include <stddef.h>
#include <stdint.h>
#include <caml/mlvalues.h>

static const uint32_t K[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

#define ROR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))
#define BE32(p)                                                             \
  ((uint32_t)(p)[0] << 24 | (uint32_t)(p)[1] << 16 | (uint32_t)(p)[2] << 8 \
   | (uint32_t)(p)[3])

/* One round; the callers rotate the working variables through the
   macro's arguments instead of moving them. */
#define ROUND(a, b, c, d, e, f, g, h, i)                                    \
  do {                                                                      \
    uint32_t t1 = h + (ROR(e, 6) ^ ROR(e, 11) ^ ROR(e, 25))                 \
                  + ((e & f) ^ (~e & g)) + K[i] + w[i];                     \
    uint32_t t2 = (ROR(a, 2) ^ ROR(a, 13) ^ ROR(a, 22))                     \
                  + ((a & b) ^ (a & c) ^ (b & c));                          \
    d += t1;                                                                \
    h = t1 + t2;                                                            \
  } while (0)

static void compress_portable(uint32_t *s, const unsigned char *p, size_t n)
{
  uint32_t w[64];
  for (; n > 0; n--, p += 64) {
    for (int i = 0; i < 16; i++) w[i] = BE32(p + 4 * i);
    for (int i = 16; i < 64; i++) {
      uint32_t s0 = ROR(w[i - 15], 7) ^ ROR(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = ROR(w[i - 2], 17) ^ ROR(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = s[0], b = s[1], c = s[2], d = s[3];
    uint32_t e = s[4], f = s[5], g = s[6], h = s[7];
    for (int i = 0; i < 64; i += 8) {
      ROUND(a, b, c, d, e, f, g, h, i);
      ROUND(h, a, b, c, d, e, f, g, i + 1);
      ROUND(g, h, a, b, c, d, e, f, i + 2);
      ROUND(f, g, h, a, b, c, d, e, i + 3);
      ROUND(e, f, g, h, a, b, c, d, i + 4);
      ROUND(d, e, f, g, h, a, b, c, i + 5);
      ROUND(c, d, e, f, g, h, a, b, i + 6);
      ROUND(b, c, d, e, f, g, h, a, i + 7);
    }
    s[0] += a; s[1] += b; s[2] += c; s[3] += d;
    s[4] += e; s[5] += f; s[6] += g; s[7] += h;
  }
}

static void (*compress)(uint32_t *, const unsigned char *, size_t) =
  compress_portable;

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>

/* SHA256RNDS2 runs two rounds on the state split as ABEF and CDGH; its
   third operand holds W[i] + K[i] for the two rounds in its low half.
   Message group g (rounds 4g..4g+3) is X[g & 3]; from group 4 on it is
   built from the four before it by SHA256MSG1 and SHA256MSG2. */
__attribute__((target("sha,sse4.1")))
static void compress_shani(uint32_t *s, const unsigned char *p, size_t n)
{
  const __m128i bswap =
    _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i t = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)s), 0xb1);
  __m128i cdgh =
    _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)(s + 4)), 0x1b);
  __m128i abef = _mm_alignr_epi8(t, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, t, 0xf0);
  for (; n > 0; n--, p += 64) {
    __m128i abef0 = abef, cdgh0 = cdgh, x[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; g++) {
      if (g < 4)
        x[g] = _mm_shuffle_epi8(
          _mm_loadu_si128((const __m128i *)(p + 16 * g)), bswap);
      else
        x[g & 3] = _mm_sha256msg2_epu32(
          _mm_add_epi32(_mm_sha256msg1_epu32(x[g & 3], x[(g + 1) & 3]),
                        _mm_alignr_epi8(x[(g + 3) & 3], x[(g + 2) & 3], 4)),
          x[(g + 3) & 3]);
      __m128i wk =
        _mm_add_epi32(x[g & 3], _mm_loadu_si128((const __m128i *)(K + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }
    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }
  t = _mm_shuffle_epi32(abef, 0x1b);
  cdgh = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128((__m128i *)s, _mm_blend_epi16(t, cdgh, 0xf0));
  _mm_storeu_si128((__m128i *)(s + 4), _mm_alignr_epi8(cdgh, t, 8));
}

__attribute__((constructor)) static void accals_sha256_select(void)
{
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1"))
    compress = compress_shani;
}
#endif

value accals_sha256_compress(value state, value buf, value nblocks)
{
  compress((uint32_t *)Bytes_val(state), Bytes_val(buf),
           (size_t)Long_val(nblocks));
  return Val_unit;
}

/* The portable rounds whatever the CPU, for the oracle tests only. */
value accals_sha256_compress_portable(value state, value buf, value nblocks)
{
  compress_portable((uint32_t *)Bytes_val(state), Bytes_val(buf),
                    (size_t)Long_val(nblocks));
  return Val_unit;
}
