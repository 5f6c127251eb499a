#!/usr/bin/env python3
"""hemp_analyzer self-test over the injected-violation fixtures.

Asserts:
  * every violation class in fixtures/ is detected with its expected
    stable key — exact-solver/alloc/mutex/io/throw hot-path sinks (direct,
    transitive, and through virtual dispatch), every determinism source
    class, raw-double unit-boundary signatures in a .cpp file, and the
    exact unit-boundary key set of a header (every declaration shape:
    namespace variables, members, inline-body locals, `double&`,
    multi-line declarations, same-line and next-line markers);
  * cold code and the clean fixture produce ZERO findings;
  * inline `hemp-analyzer: allow(...)` markers fully silence real
    violations (per-check and `all`).

Exit 0 on success, 1 on any failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import (ProgramIndex, check_determinism,  # noqa: E402
                    check_hot_path_purity, check_unit_boundary)
from frontend_text import TextFrontend  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures"

HOT_EXPECT = {
    "hot-path-purity|fixture::helper_solver|exact-solver|find_mpp",
    "hot-path-purity|fixture::hot_direct_alloc|alloc|new",
    "hot-path-purity|fixture::Locker::hot_mutex|mutex|lock",
    "hot-path-purity|fixture::hot_io|io|printf",
    "hot-path-purity|fixture::hot_throw|throw|throw",
    "hot-path-purity|fixture::VectorController::on_tick|alloc|push_back",
}

DET_EXPECT = {
    "determinism|fixture::noisy|call|rand",
    "determinism|fixture::stamp|call|time",
    "determinism|fixture::wall_nanos|token|system_clock",
    "determinism|fixture::unseeded|token|mt19937",
    "determinism|fixture::entropy|token|random_device",
    "determinism|fixture::Cache|member-type|unordered_map",
    "determinism|fixture::lookup_count|token|unordered_map",
}

UNIT_EXPECT = {
    "unit-boundary|fixture::input_power|return|input_power",
    "unit-boundary|fixture::input_power|parameter|bus_v",
    "unit-boundary|fixture::input_power|parameter|load_current",
    "unit-boundary|fixture::harvest_energy|return|harvest_energy",
    "unit-boundary|fixture::harvest_energy|parameter|panel_voltage",
    "unit-boundary|fixture::harvest_energy|parameter|panel_current",
}

# fixtures/unit_violations.hpp, exactly.  Not reported: `plain_ratio` and
# `tick_count` (no quantity name), `gain` and `trim_current` (same-line
# `unit-lint:` markers), `bias_power` (next-line allow marker).  The
# `bus_voltage` / `input_power` / `load_current` / `gain` probe sits behind a
# `/*` inside a `//` comment, which must not open a block comment.
UNIT_HEADER_EXPECT = {
    "unit-boundary|fixture|variable|kMaxPower",
    "unit-boundary|fixture|variable|global_energy",
    "unit-boundary|fixture|variable|supply_v",
    "unit-boundary|fixture::Probe|member|bus_voltage",
    "unit-boundary|fixture::Probe|member|samples_v",
    "unit-boundary|fixture::input_power|return|input_power",
    "unit-boundary|fixture::input_power|parameter|load_current",
    "unit-boundary|fixture::input_power|variable|scratch_power",
    "unit-boundary|fixture::input_power|variable|step_energy",
    "unit-boundary|fixture::read_rail|parameter|out_voltage",
    "unit-boundary|fixture::harvest_energy|return|harvest_energy",
    "unit-boundary|fixture::harvest_energy|parameter|panel_voltage",
    "unit-boundary|fixture::harvest_energy|parameter|panel_charge",
}

failures = []


def expect(cond, label):
    print(("  ok:   " if cond else "  FAIL: ") + label)
    if not cond:
        failures.append(label)


def parse(name):
    ir = TextFrontend().parse(str(FIXTURES / name))
    ir.path = name
    for fn in ir.functions:
        fn.file = name
    for cls in ir.classes:
        cls.file = name
    return ir


def keys(findings):
    return {f.key for f in findings}


def main() -> int:
    hot_ir = parse("hot_violations.cpp")
    hot = check_hot_path_purity(ProgramIndex([hot_ir]))
    got = keys(hot)
    for k in sorted(HOT_EXPECT):
        expect(k in got, f"detects {k}")
    expect(got == HOT_EXPECT,
           f"no extra hot-path findings (got {sorted(got - HOT_EXPECT)})")
    expect(not any("cold_alloc" in k for k in got),
           "cold (non-hot) allocation is not reported")
    chain = next((f for f in hot if "helper_solver" in f.key), None)
    expect(chain is not None and
           any("hot_exact_chain" in hop for hop in chain.witness),
           "witness chain names the HEMP_HOT root of a transitive finding")

    got = keys(check_unit_boundary([parse("unit_violations.cpp")]))
    for k in sorted(UNIT_EXPECT):
        expect(k in got, f"detects {k}")
    expect(not any("plain_counter" in k for k in got),
           "non-quantity signature is not reported")

    got = keys(check_unit_boundary([parse("unit_violations.hpp")]))
    for k in sorted(UNIT_HEADER_EXPECT):
        expect(k in got, f"detects {k}")
    expect(got == UNIT_HEADER_EXPECT,
           f"no extra header unit-boundary findings "
           f"(got {sorted(got - UNIT_HEADER_EXPECT)})")

    sup_ir = parse("suppressed.cpp")
    sup = (check_hot_path_purity(ProgramIndex([sup_ir]))
           + check_determinism([sup_ir]) + check_unit_boundary([sup_ir]))
    expect(keys(sup) == set(),
           f"inline allow markers silence every violation "
           f"(got {sorted(keys(sup))})")

    clean_ir = parse("clean.cpp")
    clean = (check_hot_path_purity(ProgramIndex([clean_ir]))
             + check_determinism([clean_ir]) + check_unit_boundary([clean_ir]))
    expect(keys(clean) == set(),
           f"clean fixture has zero findings (got {sorted(keys(clean))})")

    got = keys(check_determinism([parse("determinism_violations.cpp")]))
    for k in sorted(DET_EXPECT):
        expect(k in got, f"detects {k}")
    expect(got == DET_EXPECT,
           f"no extra determinism findings (got {sorted(got - DET_EXPECT)})")

    if failures:
        print(f"\nhemp_analyzer selftest: {len(failures)} FAILURE(S)")
        return 1
    print("\nhemp_analyzer selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
