// Compile-time probe for lint.sh's thread-safety stage: pulls in every
// header that carries PLANCK_GUARDED_BY/PLANCK_REQUIRES/
// PLANCK_PARTITION_OWNED annotations so `clang++ -fsyntax-only
// -Wthread-safety -Werror` analyzes all the inline bodies even when no
// out-of-line TU includes them. Never linked, never run; GCC builds skip
// this file entirely (the stage is clang-gated).

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/thread_annotations.hpp"

namespace planck::probe {

// Minimal use of the capability wrapper itself, so the acquire/release
// pairing of Mutex/MutexLock is type-checked in this stage no matter what
// the included headers do.
struct GuardedCell {
  sim::Mutex mu;
  int value PLANCK_GUARDED_BY(mu) = 0;

  void bump() PLANCK_EXCLUDES(mu) {
    sim::MutexLock lock(mu);
    ++value;
  }
  int read() PLANCK_EXCLUDES(mu) {
    sim::MutexLock lock(mu);
    return value;
  }
};

}  // namespace planck::probe
