// Statistical-engine selection.
//
// Every hot kernel in src/stats exists twice: a Scalar reference that walks
// the BitStream bit by bit (the original, obviously-spec-faithful code) and
// a Wordwise engine that processes whole 64-bit words (popcounts, shift-and-
// mask window extraction, byte-table prefix sums).  The two are numerically
// identical — the wordwise kernels are restricted to transformations that
// preserve the exact integer statistics and the exact floating-point
// operation sequence — and a differential fuzz test pins that equality.
// This mirrors the simulator's Scheduler::ReferenceHeap oracle: the slow
// engine stays as the trusted baseline the fast one is checked against.
#pragma once

namespace dhtrng::stats {

enum class Engine {
  Scalar,    ///< bit-at-a-time reference implementations (the oracle)
  Wordwise,  ///< 64-bit word-parallel kernels (default)
};

/// Engine used by the statistical suites.  Process-wide (the suites are
/// free functions); reads are lock-free so run_suite workers can consult it
/// concurrently.
Engine active_engine();
void set_engine(Engine engine);

const char* engine_name(Engine engine);

/// RAII engine override for tests and benchmarks.
class ScopedEngine {
 public:
  explicit ScopedEngine(Engine engine) : previous_(active_engine()) {
    set_engine(engine);
  }
  ~ScopedEngine() { set_engine(previous_); }
  ScopedEngine(const ScopedEngine&) = delete;
  ScopedEngine& operator=(const ScopedEngine&) = delete;

 private:
  Engine previous_;
};

}  // namespace dhtrng::stats
