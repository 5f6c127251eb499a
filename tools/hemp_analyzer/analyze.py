#!/usr/bin/env python3
"""hemp_analyzer: hot-path purity, determinism and unit-boundary analyzer.

A pure-Python C++ scanner (frontend_text.py) lowers every source file under
the given roots to a small IR; checks.py holds the check list and the
call-resolution policy.

Usage:
    python3 tools/hemp_analyzer/analyze.py src \
        [--baseline tools/hemp_analyzer/baseline.json] \
        [--checks c1,c2] [--json-out report.json] [--update-baseline]

Findings carry stable keys (check|function|sink-kind|sink-name — no line
numbers, so routine edits do not churn them).  With --baseline, only keys
absent from the baseline fail the run: the baseline is the grandfathered
work-list, inline `// hemp-analyzer: allow(<check>) — reason` markers are
the reviewed permanent exemptions.

Exit status: 0 clean (or baseline-covered), 1 new findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import (check_determinism, check_hot_path_purity,  # noqa: E402
                    check_unit_boundary, ProgramIndex)
from frontend_text import TextFrontend  # noqa: E402

ALL_CHECKS = ("hot-path-purity", "determinism", "unit-boundary")
CPP_SUFFIXES = (".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh")


def discover_files(paths):
    """Source files to analyze: the given paths, directories globbed."""
    files = set()
    for root in (Path(p).resolve() for p in paths):
        for f in sorted(root.rglob("*")) if root.is_dir() else [root]:
            if f.is_file() and f.suffix in CPP_SUFFIXES:
                files.add(f.resolve())
    return sorted(files)


def parse_files(files, repo_root):
    irs = []
    fe = TextFrontend()
    for f in files:
        ir = fe.parse(str(f))
        try:
            ir.path = str(f.relative_to(repo_root))
        except ValueError:
            ir.path = str(f)
        for fn in ir.functions:
            fn.file = ir.path
        for cls in ir.classes:
            cls.file = ir.path
        irs.append(ir)
    return irs


def run_checks(irs, which):
    findings = []
    if "hot-path-purity" in which:
        findings += check_hot_path_purity(ProgramIndex(irs))
    if "determinism" in which:
        findings += check_determinism(irs)
    if "unit-boundary" in which:
        findings += check_unit_boundary(irs)
    return findings


def load_baseline(path: Path):
    if path is None or not path.is_file():
        return set()
    data = json.loads(path.read_text())
    return set(data.get("findings", []))


def write_baseline(path: Path, findings):
    data = {
        "_comment": (
            "Grandfathered hemp_analyzer findings: the analyzer fails only "
            "on keys NOT in this list.  Shrink it by fixing findings; never "
            "grow it without a review.  Keys are "
            "check|function|sink-kind|sink-name (line-independent).  "
            "Regenerate with analyze.py --update-baseline."),
        "findings": sorted({f.key for f in findings}),
    }
    path.write_text(json.dumps(data, indent=2) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="hemp_analyzer",
                                 description=__doc__.split("\n")[0])
    ap.add_argument("paths", nargs="+", help="source roots/files to analyze")
    ap.add_argument("--baseline", type=Path, default=None)
    ap.add_argument("--checks", default=",".join(ALL_CHECKS),
                    help="comma-separated subset of: " + ", ".join(ALL_CHECKS))
    ap.add_argument("--repo-root", type=Path,
                    default=Path(__file__).resolve().parent.parent.parent)
    ap.add_argument("--json-out", type=Path, default=None)
    ap.add_argument("--update-baseline", action="store_true")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    which = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    for c in which:
        if c not in ALL_CHECKS:
            print(f"hemp_analyzer: unknown check `{c}`", file=sys.stderr)
            return 2

    files = discover_files(args.paths)
    if not files:
        print("hemp_analyzer: no C++ sources found under: "
              + " ".join(args.paths), file=sys.stderr)
        return 2

    irs = parse_files(files, args.repo_root.resolve())
    findings = run_checks(irs, which)

    if args.update_baseline:
        if args.baseline is None:
            print("hemp_analyzer: --update-baseline needs --baseline",
                  file=sys.stderr)
            return 2
        write_baseline(args.baseline, findings)
        print(f"hemp_analyzer: baseline rewritten with "
              f"{len(findings)} finding(s): {args.baseline}")
        return 0

    baseline = load_baseline(args.baseline)
    new = [f for f in findings if f.key not in baseline]
    grandfathered = [f for f in findings if f.key in baseline]
    stale = baseline - {f.key for f in findings}

    if args.json_out is not None:
        args.json_out.write_text(json.dumps({
            "files": len(files),
            "new": [vars(f) for f in new],
            "grandfathered": [vars(f) for f in grandfathered],
            "stale_baseline": sorted(stale),
        }, indent=2, default=str) + "\n")

    if new:
        print(f"hemp_analyzer: {len(new)} NEW finding(s):\n")
        for f in new:
            print(f.render())
            print(f"    key: {f.key}\n")
    if not args.quiet:
        if grandfathered:
            print(f"hemp_analyzer: {len(grandfathered)} baseline-covered "
                  f"finding(s) (the single-node latency work-list):")
            for f in grandfathered:
                print(f"  {f.key}")
        if stale:
            print(f"hemp_analyzer: note: {len(stale)} stale baseline "
                  f"entr(ies) no longer reported — consider pruning:")
            for k in sorted(stale):
                print(f"  {k}")
    status = "FAIL" if new else "OK"
    print(f"hemp_analyzer: {status} — {len(files)} file(s), "
          f"{len(findings)} finding(s), {len(new)} new, "
          f"{len(grandfathered)} baselined")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
