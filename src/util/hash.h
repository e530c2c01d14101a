// Counter-based hashing primitives.
//
// Every stochastic decision in the diffusion simulator is made by hashing a
// tuple of integers (sample seed, edge endpoints, item, promotion, step,
// purpose tag) into a uniform value in [0,1) and comparing it against the
// event probability. Compared to a mutable RNG stream this gives us:
//   * exact reproducibility independent of evaluation order, and
//   * common random numbers across "with seed S" / "without seed S"
//     simulations, which pairs the Monte-Carlo estimates used for marginal
//     gains (MCP, MA, ML) and slashes their variance.
#ifndef IMDPP_UTIL_HASH_H_
#define IMDPP_UTIL_HASH_H_

#include <cstdint>

namespace imdpp {

/// SplitMix64 finalizer: a fast, well-mixed 64-bit permutation.
constexpr uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines a hash state with one more 64-bit word.
constexpr uint64_t HashCombine(uint64_t h, uint64_t v) {
  return SplitMix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

/// Continues the left fold of HashTuple from an already hashed prefix:
/// HashExtend(HashTuple(a, b), c) == HashTuple(a, b, c). A hot loop that
/// draws many coins sharing leading coordinates hashes them once and
/// extends per coin.
template <typename... Ts>
constexpr uint64_t HashExtend(uint64_t prefix, Ts... rest) {
  uint64_t h = prefix;
  ((h = HashCombine(h, static_cast<uint64_t>(rest))), ...);
  return h;
}

/// Hashes a variadic tuple of integers into one 64-bit value.
template <typename... Ts>
constexpr uint64_t HashTuple(uint64_t first, Ts... rest) {
  return HashExtend(SplitMix64(first), rest...);
}

static_assert(HashExtend(HashTuple(1, 2), 3) == HashTuple(1, 2, 3));
static_assert(HashExtend(HashTuple(7), 8, 9, 10) == HashTuple(7, 8, 9, 10));

/// Maps a 64-bit hash to a double uniformly distributed in [0, 1).
constexpr double HashToUnit(uint64_t h) {
  // Use the top 53 bits for a dyadic rational in [0,1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Uniform [0,1) value for a hashed tuple.
template <typename... Ts>
constexpr double UnitHash(uint64_t first, Ts... rest) {
  return HashToUnit(HashTuple(first, rest...));
}

}  // namespace imdpp

#endif  // IMDPP_UTIL_HASH_H_
