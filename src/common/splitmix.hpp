// splitmix.hpp — splitmix64, the stack's one 64-bit mixer.
//
// splitmix64(x) is a stateless mix (enrollment nonces, per-member timer
// phases); splitmix64_next(state) steps a counter stream (seeded bench
// workloads). Both are plain arithmetic, so a seed yields the same
// sequence on every platform, unlike a std:: distribution.
#pragma once

#include <cstdint>

namespace rina {

/// Stateless mix of `x`: one splitmix64 output for state `x`.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Next value of the splitmix64 stream at `state`, advancing it.
inline std::uint64_t splitmix64_next(std::uint64_t& state) {
  std::uint64_t out = splitmix64(state);
  state += 0x9e3779b97f4a7c15ULL;
  return out;
}

}  // namespace rina
