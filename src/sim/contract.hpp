#pragma once

// Runtime conservation contracts (DESIGN.md section 7). PLANCK_CONTRACT
// asserts a model invariant that the type system cannot express — e.g. the
// DT buffer's "sum of per-port shared occupancy equals the pool's used
// counter" — at every mutation site. Contracts are compiled in when
// PLANCK_ENABLE_CONTRACTS is defined (Debug builds, sanitizer builds, and
// the fuzz harnesses, which use them as their oracle) and compile to
// nothing in Release, so the hot path pays nothing.
//
// Unlike assert(), a contract failure always prints the invariant text and
// location before aborting, even under NDEBUG, so a fuzzer crash artifact
// is self-describing.

#if defined(PLANCK_ENABLE_CONTRACTS)

#include <cstdio>
#include <cstdlib>

namespace planck::sim::internal {
[[noreturn]] inline void contract_failed(const char* expr, const char* what,
                                         const char* file, int line) {
  std::fprintf(stderr,
               "PLANCK_CONTRACT violated: %s\n  invariant: %s\n"
               "  at %s:%d\n",
               what, expr, file, line);
  std::abort();
}
}  // namespace planck::sim::internal

#define PLANCK_CONTRACT(cond, what)                                     \
  ((cond) ? static_cast<void>(0)                                        \
          : ::planck::sim::internal::contract_failed(#cond, (what),     \
                                                     __FILE__, __LINE__))
#define PLANCK_CONTRACTS_ENABLED 1

#else

// Compiled out: the condition is parsed (sizeof's unevaluated operand) but
// never evaluated, so contracts cannot bitrot while costing nothing.
#define PLANCK_CONTRACT(cond, what) \
  (static_cast<void>(sizeof((cond) ? 1 : 0)), static_cast<void>(sizeof(what)))
#define PLANCK_CONTRACTS_ENABLED 0

#endif
