// hemp_analyzer fixture: hot code that is actually pure — strong types,
// resolved helper calls, no sinks.  The selftest asserts ZERO findings.
#define HEMP_HOT

namespace fixture {

struct Volts {
  double raw;
};

inline double square(double x) { return x * x; }

HEMP_HOT double hot_clean(Volts v) { return square(v.raw) + 1.0; }

struct Accumulator {
  double total = 0.0;
  HEMP_HOT void add(Volts v) { total += v.raw; }
};

}  // namespace fixture
