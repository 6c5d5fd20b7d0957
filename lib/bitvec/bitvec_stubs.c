/* Counting kernels over Bitvec word arrays.

   A Bitvec's words are an OCaml int array, so each word is a tagged
   machine word: payload bit i sits at bit i + 1 and bit 0 is the tag.
   Every kernel combines whole tagged words with bitwise operations and
   masks bit 0 off before counting, which leaves exactly the bits the
   OCaml int holds: bit 63 (the int's sign bit) is counted, as the OCaml
   loops of test/bitvec_ref.ml count it.

   The kernels allocate nothing and never raise ([@@noalloc] externals);
   the OCaml wrappers check the lengths. On x86-64 a copy compiled for the
   POPCNT instruction is chosen once, at load time, when the CPU has it;
   elsewhere the compiler's generic popcount is used. */

#include <stdint.h>
#include <caml/mlvalues.h>

#define W(v) ((uint64_t)Field((v), i))

/* X(name, array giving the length, parameters, arguments, word i) */
#define KERNELS(X)                                                          \
  X(popcount, a, (value a), (a), W(a))                                      \
  X(hamming, a, (value a, value b), (a, b), W(a) ^ W(b))                    \
  X(and_popcount, a, (value a, value b), (a, b), W(a) & W(b))               \
  X(hamming_and, t, (value t, value a, value b), (t, a, b),                 \
    W(t) ^ (W(a) & W(b)))                                                   \
  X(hamming_or, t, (value t, value a, value b), (t, a, b),                  \
    W(t) ^ (W(a) | W(b)))                                                   \
  X(hamming_xor, t, (value t, value a, value b), (t, a, b),                 \
    W(t) ^ W(a) ^ W(b))                                                     \
  X(hamming_and3, t, (value t, value a, value b, value c), (t, a, b, c),    \
    W(t) ^ (W(a) & W(b) & W(c)))                                            \
  X(hamming_or3, t, (value t, value a, value b, value c), (t, a, b, c),     \
    W(t) ^ (W(a) | W(b) | W(c)))                                            \
  X(hamming_xor3, t, (value t, value a, value b, value c), (t, a, b, c),    \
    W(t) ^ W(a) ^ W(b) ^ W(c))                                              \
  X(hamming_mux, t, (value t, value s, value a, value b), (t, s, a, b),     \
    W(t) ^ ((W(s) & W(a)) | (~W(s) & W(b))))                                \
  X(mux_popcount, s, (value s, value a, value b), (s, a, b),                \
    (W(s) & W(a)) | (~W(s) & W(b)))                                         \
  X(masked_hamming, m, (value m, value t, value a), (m, t, a),              \
    W(m) & (W(t) ^ W(a)))                                                   \
  X(masked_hamming_and, m, (value m, value t, value a, value b),            \
    (m, t, a, b), W(m) & (W(t) ^ (W(a) & W(b))))                            \
  X(masked_hamming_or, m, (value m, value t, value a, value b),             \
    (m, t, a, b), W(m) & (W(t) ^ (W(a) | W(b))))                            \
  X(masked_hamming_xor, m, (value m, value t, value a, value b),            \
    (m, t, a, b), W(m) & (W(t) ^ W(a) ^ W(b)))                              \
  X(masked_hamming_and3, m, (value m, value t, value a, value b, value c),  \
    (m, t, a, b, c), W(m) & (W(t) ^ (W(a) & W(b) & W(c))))                  \
  X(masked_hamming_or3, m, (value m, value t, value a, value b, value c),   \
    (m, t, a, b, c), W(m) & (W(t) ^ (W(a) | W(b) | W(c))))                  \
  X(masked_hamming_xor3, m, (value m, value t, value a, value b, value c),  \
    (m, t, a, b, c), W(m) & (W(t) ^ W(a) ^ W(b) ^ W(c)))                    \
  X(masked_hamming_mux, m, (value m, value t, value s, value a, value b),   \
    (m, t, s, a, b), W(m) & (W(t) ^ ((W(s) & W(a)) | (~W(s) & W(b)))))

#define LOOP(variant, attr, name, first, params, expr)                      \
  attr static intnat name##_##variant params {                             \
    mlsize_t n = Wosize_val(first);                                         \
    intnat acc = 0;                                                         \
    for (mlsize_t i = 0; i < n; i++)                                        \
      acc += __builtin_popcountll((expr) & ~(uint64_t)1);                   \
    return acc;                                                             \
  }

#define GENERIC(name, first, params, args, expr)                            \
  LOOP(generic, , name, first, params, expr)
KERNELS(GENERIC)

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HW(name, first, params, args, expr)                                 \
  LOOP(popcnt, __attribute__((target("popcnt"))), name, first, params, expr)
KERNELS(HW)

static int has_popcnt;

__attribute__((constructor)) static void accals_bitvec_select(void) {
  __builtin_cpu_init();
  has_popcnt = __builtin_cpu_supports("popcnt");
}
#define CALL(name, args) (has_popcnt ? name##_popcnt args : name##_generic args)
#else
#define CALL(name, args) name##_generic args
#endif

#define STUB(name, first, params, args, expr)                               \
  value accals_bitvec_##name params { return Val_long(CALL(name, args)); }
KERNELS(STUB)
