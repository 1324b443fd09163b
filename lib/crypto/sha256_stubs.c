/* SHA-256 block compression (FIPS 180-4 §6.2) for Sha256.

   caml_sha256_blocks compresses a run of whole 64-byte blocks into the
   eight chaining words.  Two kernels sit behind it: the x86-64 SHA
   extensions, compiled with a per-function target attribute so the
   object still runs on CPUs without them, and a plain C loop for every
   other CPU.  Sha256 calls caml_sha256_select_kernel once while it
   initializes, before any other domain can exist, so CPUID makes the
   choice exactly once and no call races it.  The tests reach the
   portable kernel alone through caml_sha256_blocks_portable. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <stddef.h>
#include <stdint.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

static const uint32_t k[64] = {
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
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static void blocks_portable(uint32_t h[8], const unsigned char *p, size_t n)
{
  uint32_t w[64];
  for (; n > 0; n--, p += 64) {
    for (int t = 0; t < 16; t++)
      w[t] = (uint32_t)p[4 * t] << 24 | (uint32_t)p[4 * t + 1] << 16
             | (uint32_t)p[4 * t + 2] << 8 | (uint32_t)p[4 * t + 3];
    for (int t = 16; t < 64; t++) {
      uint32_t s0 = ROTR(w[t - 15], 7) ^ ROTR(w[t - 15], 18) ^ (w[t - 15] >> 3);
      uint32_t s1 = ROTR(w[t - 2], 17) ^ ROTR(w[t - 2], 19) ^ (w[t - 2] >> 10);
      w[t] = w[t - 16] + s0 + w[t - 7] + s1;
    }
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int t = 0; t < 64; t++) {
      uint32_t t1 = hh + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25))
                    + (g ^ (e & (f ^ g))) + k[t] + w[t];
      uint32_t t2 = (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22))
                    + ((a & b) | (c & (a | b)));
      hh = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    h[0] += a; h[1] += b; h[2] += c; h[3] += d;
    h[4] += e; h[5] += f; h[6] += g; h[7] += hh;
  }
}

#ifdef SHA256_X86
/* The SHA extensions keep the state as two vectors, ABEF and CDGH
   (highest lane first).  sha256rnds2 runs two rounds on the low two
   lanes of a W[t] + K[t] vector and returns the new ABEF; the old ABEF
   is the new CDGH, so the two vectors trade roles and the second call
   of a quad trades them back.  Quad q (rounds 4q..4q+3) consumes
   cur = W[4q..4q+3]; meanwhile sha256msg2 finishes next =
   W[4q+4..4q+7] (from quad 3 on) and sha256msg1 starts W[4q+12..4q+15]
   in prev (up to quad 12).  q is a literal at every use, so the range
   tests fold away. */
#define QUAD(q, prev, cur, next)                                          \
  do {                                                                    \
    __m128i wk =                                                          \
      _mm_add_epi32(cur, _mm_loadu_si128((const __m128i *)(k + 4 * (q)))); \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);                         \
    if ((q) >= 3 && (q) <= 14)                                            \
      next = _mm_sha256msg2_epu32(                                        \
        _mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4)), cur);         \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E)); \
    if ((q) >= 1 && (q) <= 12)                                            \
      prev = _mm_sha256msg1_epu32(prev, cur);                             \
  } while (0)

__attribute__((target("sha,sse4.1")))
static void blocks_sha_ext(uint32_t h[8], const unsigned char *p, size_t n)
{
  /* Byte order within each 32-bit lane: big-endian words. */
  const __m128i bswap =
    _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)h), 0xB1);
  __m128i efgh = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)(h + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, dcba, 0xF0);
  for (; n > 0; n--, p += 64) {
    __m128i abef0 = abef, cdgh0 = cdgh;
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)p), bswap);
    __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    QUAD(0, m3, m0, m1);  QUAD(1, m0, m1, m2);  QUAD(2, m1, m2, m3);
    QUAD(3, m2, m3, m0);  QUAD(4, m3, m0, m1);  QUAD(5, m0, m1, m2);
    QUAD(6, m1, m2, m3);  QUAD(7, m2, m3, m0);  QUAD(8, m3, m0, m1);
    QUAD(9, m0, m1, m2);  QUAD(10, m1, m2, m3); QUAD(11, m2, m3, m0);
    QUAD(12, m3, m0, m1); QUAD(13, m0, m1, m2); QUAD(14, m1, m2, m3);
    QUAD(15, m2, m3, m0);
    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }
  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128((__m128i *)h, _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128((__m128i *)(h + 4), _mm_alignr_epi8(dchg, feba, 8));
}

static int has_sha_ext(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d) || !(c & bit_SSE4_1)) return 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  return (b & bit_SHA) != 0;
}
#endif

typedef void kernel(uint32_t h[8], const unsigned char *p, size_t n);

static kernel *selected = blocks_portable;

/* [h] is an OCaml int array of the eight chaining words; [off] and
   [nblocks] are tagged ints the caller has checked against [src]. */
static value run(kernel *compress, value h, value src, value off, value nblocks)
{
  uint32_t state[8];
  for (int i = 0; i < 8; i++) state[i] = (uint32_t)Long_val(Field(h, i));
  compress(state, Bytes_val(src) + Long_val(off), Long_val(nblocks));
  for (int i = 0; i < 8; i++) Field(h, i) = Val_long(state[i]);
  return Val_unit;
}

CAMLprim value caml_sha256_blocks(value h, value src, value off, value nblocks)
{
  return run(selected, h, src, off, nblocks);
}

CAMLprim value caml_sha256_blocks_portable(value h, value src, value off,
                                           value nblocks)
{
  return run(blocks_portable, h, src, off, nblocks);
}

CAMLprim value caml_sha256_select_kernel(value unit)
{
  (void)unit;
#ifdef SHA256_X86
  if (has_sha_ext()) selected = blocks_sha_ext;
#endif
  return Val_unit;
}
