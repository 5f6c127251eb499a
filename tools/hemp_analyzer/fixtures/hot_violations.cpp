// hemp_analyzer fixture: one injected violation per hot-path-purity sink
// class (exact solver, alloc, mutex, io, throw) plus a virtual-dispatch
// chain and a cold function that must NOT be reported.
#include <cstdio>
#include <mutex>
#include <vector>

#define HEMP_HOT

namespace fixture {

double find_mpp(double v) { return v * 0.8; }

double helper_solver(double v) { return find_mpp(v); }

// Transitive: hot root -> helper -> exact-solver sink.
HEMP_HOT double hot_exact_chain(double v) { return helper_solver(v); }

HEMP_HOT int hot_direct_alloc() {
  int* p = new int(3);
  int v = *p;
  delete p;
  return v;
}

struct Locker {
  std::mutex m;
  HEMP_HOT void hot_mutex() { m.lock(); }
};

HEMP_HOT void hot_io(int x) { std::printf("%d", x); }

HEMP_HOT int hot_throw(int x) {
  if (x < 0) throw x;
  return x;
}

struct Controller {
  virtual void on_tick() {}
  virtual ~Controller() = default;
};

struct VectorController : Controller {
  std::vector<int> log;
  void on_tick() override { log.push_back(1); }
};

// Virtual dispatch over-approximation: the override's sink must surface.
HEMP_HOT void hot_virtual(Controller& c) { c.on_tick(); }

// Cold: allocates, but is not reachable from any HEMP_HOT root.
int cold_alloc() { return *(new int(7)); }

}  // namespace fixture
