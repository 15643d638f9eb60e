#pragma once

// Clang thread-safety annotations (DESIGN.md section 12), spelled so they
// compile away to nothing on GCC and MSVC: the annotated tree builds
// everywhere, and `clang++ -Wthread-safety -Werror` (the lint job's
// thread-safety stage) statically proves the lock discipline the
// annotations declare. This is the concurrency-readiness contract for the
// partitioned engine: every class that owns synchronization says what it
// synchronizes, *before* any thread pool exists to race on it.
//
// Use PLANCK_GUARDED_BY(mu) on fields, PLANCK_REQUIRES(mu) on functions
// that expect the caller to hold the lock, PLANCK_EXCLUDES(mu) on
// functions that take it themselves. State that is single-writer by
// design (owned by one partition, shared only through atomics) is marked
// PLANCK_PARTITION_OWNED instead of locked — planck-lint's guarded-field
// check enforces that one of the two claims is present.

#include <mutex>

#if defined(__clang__)
#define PLANCK_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PLANCK_THREAD_ANNOTATION(x)
#endif

// Type annotations.
#define PLANCK_CAPABILITY(x) PLANCK_THREAD_ANNOTATION(capability(x))
#define PLANCK_SCOPED_CAPABILITY PLANCK_THREAD_ANNOTATION(scoped_lockable)

// Field annotations.
#define PLANCK_GUARDED_BY(x) PLANCK_THREAD_ANNOTATION(guarded_by(x))
#define PLANCK_PT_GUARDED_BY(x) PLANCK_THREAD_ANNOTATION(pt_guarded_by(x))

// Function annotations.
#define PLANCK_REQUIRES(...) \
  PLANCK_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define PLANCK_EXCLUDES(...) \
  PLANCK_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define PLANCK_ACQUIRE(...) \
  PLANCK_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PLANCK_RELEASE(...) \
  PLANCK_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PLANCK_TRY_ACQUIRE(...) \
  PLANCK_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define PLANCK_RETURN_CAPABILITY(x) PLANCK_THREAD_ANNOTATION(lock_returned(x))
#define PLANCK_NO_THREAD_SAFETY_ANALYSIS \
  PLANCK_THREAD_ANNOTATION(no_thread_safety_analysis)

// Ownership claim for state that is deliberately *not* locked: exactly one
// partition thread mutates it, other threads see it only through atomics
// or after a join. Expands to a harmless declaration so it can sit in a
// class body on any compiler; its real consumer is planck-lint's
// guarded-field check, which accepts it in place of PLANCK_GUARDED_BY for
// classes mixing atomics with plain fields.
#define PLANCK_PARTITION_OWNED \
  static_assert(true, "partition-owned: single writer, externally synchronized")

namespace planck::sim {

/// std::mutex wrapped as a Clang *capability* so PLANCK_GUARDED_BY(mu_)
/// type-checks: libstdc++'s std::mutex carries no capability attribute,
/// and annotating fields with a non-capability type is itself a
/// -Wthread-safety error. Zero overhead — the wrapper is exactly one
/// std::mutex wide and every method inlines to the underlying call.
class PLANCK_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PLANCK_ACQUIRE() { m_.lock(); }
  void unlock() PLANCK_RELEASE() { m_.unlock(); }
  bool try_lock() PLANCK_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  // m_ is the lock itself, not state the lock protects.
  // planck-lint: allow(guarded-field) — the wrapper IS the capability
  std::mutex m_;
};

/// RAII lock for sim::Mutex, visible to the analysis as a scoped
/// capability (std::lock_guard is not annotated, so Clang cannot see the
/// acquire/release pairing through it).
class PLANCK_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PLANCK_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() PLANCK_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace planck::sim
