/* String-body decoding for Json.parse, in two passes over the bytes after
   an opening quote.

   [accals_json_unescaped_length] walks the body to its closing quote and
   returns the length of the decoded string, or -1 when the body needs the
   OCaml run scanner instead: a \u escape, an unknown escape, a raw control
   character or a missing closing quote. The scanner gives each such body
   the value or error message it always did. [accals_json_unescape] then
   fills a string of exactly that length and returns the index of the
   closing quote. Neither allocates or raises ([@@noalloc] externals); the
   second trusts the first's verdict on the same string. The OCaml
   per-character codec in test/json_ref.ml is the oracle of both. */

#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#define ONES ((uint64_t)0x0101010101010101ULL)
#define HIGHS ((uint64_t)0x8080808080808080ULL)

/* Nonzero when one of the 8 bytes of [w] is a quote, a backslash or
   below 0x20: the exact zero-byte and less-than tests of "Bit Twiddling
   Hacks" (a word-wide answer, never a false positive). */
static uint64_t special(uint64_t w)
{
  uint64_t q = w ^ (ONES * '"');
  uint64_t b = w ^ (ONES * '\\');
  return ((q - ONES) & ~q & HIGHS) | ((b - ONES) & ~b & HIGHS)
         | ((w - ONES * 0x20) & ~w & HIGHS);
}

/* The index of the first flagged byte of a nonzero [special] word. On a
   little-endian machine that is the lowest set bit: a borrow only runs
   upwards, so no byte below the first special one is flagged. Elsewhere
   0, and the byte loop walks to it. */
static size_t first_flagged(uint64_t m)
{
#if defined(__GNUC__) && defined(__BYTE_ORDER__) \
  && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  return (size_t)__builtin_ctzll(m) >> 3;
#else
  (void)m;
  return 0;
#endif
}

/* The byte a two-character escape stands for, or -1 when the OCaml
   scanner must decode it (\u) or reject it. */
static int simple_escape(unsigned char e)
{
  switch (e) {
  case '"': return '"';
  case '\\': return '\\';
  case '/': return '/';
  case 'n': return '\n';
  case 't': return '\t';
  case 'r': return '\r';
  case 'b': return '\b';
  case 'f': return '\f';
  default: return -1;
  }
}

value accals_json_unescaped_length(value vs, value vstart)
{
  const unsigned char *s = (const unsigned char *)String_val(vs);
  size_t n = caml_string_length(vs);
  size_t start = Long_val(vstart);
  size_t i = start;
  size_t escapes = 0;
  while (i < n) {
    if (i + 8 <= n) {
      uint64_t w, m;
      memcpy(&w, s + i, 8);
      m = special(w);
      if (m == 0) {
        i += 8;
        continue;
      }
      i += first_flagged(m);
    }
    unsigned char c = s[i];
    if (c == '"') return Val_long(i - start - escapes);
    if (c < 0x20) return Val_long(-1);
    if (c == '\\') {
      if (i + 1 >= n || simple_escape(s[i + 1]) < 0) return Val_long(-1);
      escapes++;
      i += 2;
    }
    else
      i++;
  }
  return Val_long(-1);
}

value accals_json_unescape(value vs, value vstart, value vdst)
{
  const unsigned char *s = (const unsigned char *)String_val(vs);
  unsigned char *dst = Bytes_val(vdst);
  size_t len = caml_string_length(vdst);
  size_t i = Long_val(vstart);
  size_t out = 0;
  while (out < len) {
    /* Until the next backslash every byte is copied as it is, and at
       most [len - out] of them are still owed. */
    const unsigned char *bs = memchr(s + i, '\\', len - out);
    size_t run = bs == NULL ? len - out : (size_t)(bs - (s + i));
    memcpy(dst + out, s + i, run);
    out += run;
    i += run;
    if (bs != NULL) {
      dst[out++] = (unsigned char)simple_escape(s[i + 1]);
      i += 2;
    }
  }
  return Val_long(i);
}
