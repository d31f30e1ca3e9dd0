#!/usr/bin/env python3
"""Gate RS-kernel throughput against the committed bench baseline.

Compares the freshly-aggregated bench report (collect_bench.py output,
schema lightwave-bench-v1) against the committed BENCH_micro.json and fails
when any watched case regresses by more than the tolerance.

CI runners and developer machines differ in absolute speed, so raw wall_ms
comparisons would be pure noise. Instead every watched case is normalized by
the run's own median wall_ms over the watched set ("how expensive is this
case relative to its siblings in the same run"), and the gate compares those
shape ratios: a genuine regression slows one kernel relative to the rest,
while a slow runner slows everything and cancels out. A uniform slowdown of
the whole watched set is invisible by design — the gate protects kernel
shape, not machine speed.

Usage:
    scripts/check_bench_regression.py --baseline BENCH_micro.json \
        --current build/BENCH_micro.json [--tolerance 0.25]

A second, independent mode gates the file-backed journaling overhead from a
SINGLE run (no committed baseline needed — the baseline case rode along in
the same run, so machine speed divides out exactly):

    scripts/check_bench_regression.py --svc BENCH_svc.json [--svc-tolerance 0.15]

reads the `recovery` bench's cases and fails when the group-commit or
periodic sync policy costs more than the tolerance over the same run's
journaling-off case. per_command (group commit at batch 1) is printed for
reference, never gated: one fsync per command prices the device, not the
journal.

A third mode gates the LLM model outputs in the llm_backends bench. The
ring-backend Table 2 column is a deterministic model output (the ring
backend is byte-identical to the legacy closed form), so the optimal shape
must match the committed baseline exactly and the step times to 1e-9
relative — machine speed plays no role:

    scripts/check_bench_regression.py --llm-baseline BENCH_llm.json \
        --llm-current build/BENCH_llm.json

stdlib only; no pip deps.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

# The RS codec cases the gate watches: the scalar kernels (they must not
# regress when batch code rides alongside) and the batch kernels (the point
# of the exercise). Substring match against case names so google-benchmark
# arg suffixes (BM_RsDecodeMany/0) stay covered.
WATCHED_PREFIXES = (
    "BM_RsEncode",
    "BM_RsDecode",
    "BM_RsEncodeMany",
    "BM_RsDecodeMany",
)


def watched_cases(report: dict) -> dict[str, float]:
    """name -> wall_ms for every watched case in a lightwave-bench-v1 doc."""
    out: dict[str, float] = {}
    for bench in report.get("benches", []):
        for case in bench.get("cases", []):
            name = case.get("name", "")
            if not name.startswith(WATCHED_PREFIXES):
                continue
            wall_ms = float(case.get("wall_ms", 0.0))
            if wall_ms > 0.0:
                out[name] = wall_ms
    return out


def normalized(cases: dict[str, float]) -> dict[str, float]:
    median = statistics.median(cases.values())
    return {name: wall_ms / median for name, wall_ms in cases.items()}


def svc_cases(report: dict) -> dict[str, float]:
    """name -> wall_ms for the recovery bench's file-backed serve cases."""
    out: dict[str, float] = {}
    for bench in report.get("benches", []):
        if bench.get("bench") != "recovery":
            continue
        for case in bench.get("cases", []):
            name = case.get("name", "")
            wall_ms = float(case.get("wall_ms", 0.0))
            if name.startswith("file_journaling_") and wall_ms > 0.0:
                out[name.removeprefix("file_journaling_")] = wall_ms
    return out


def check_svc_overhead(report_path: Path, tolerance: float) -> int:
    cases = svc_cases(json.loads(report_path.read_text()))
    baseline = cases.get("off")
    if baseline is None:
        print("check_bench_regression: no file_journaling_off case in report",
              file=sys.stderr)
        return 1

    failures = []
    print(f"{'policy':<14} {'wall_ms':>9} {'overhead':>9}")
    print(f"{'off':<14} {baseline:>9.2f} {'baseline':>9}")
    for policy in ("group_commit", "periodic"):
        wall_ms = cases.get(policy)
        if wall_ms is None:
            print(f"check_bench_regression: missing file_journaling_{policy}",
                  file=sys.stderr)
            return 1
        overhead = wall_ms / baseline - 1.0
        flag = ""
        if overhead > tolerance:
            failures.append((policy, overhead))
            flag = "  << OVER BUDGET"
        print(f"{policy:<14} {wall_ms:>9.2f} {overhead:>+8.1%}{flag}")
    if "per_command" in cases:
        # Different command count/batch: its wall_ms is not baseline-comparable.
        print(f"{'per_command':<14} {cases['per_command']:>9.2f} {'(report)':>9}")

    if failures:
        worst = max(failures, key=lambda f: f[1])
        print(
            f"check_bench_regression: journaling overhead beyond {tolerance:.0%} "
            f"(worst: {worst[0]} at {worst[1]:+.1%})",
            file=sys.stderr,
        )
        return 1
    print(f"check_bench_regression: sync-policy overhead within {tolerance:.0%}")
    return 0


def llm_ring_cases(report: dict) -> dict[str, dict[str, str]]:
    """name -> parsed params for the llm_backends ring Table 2 column."""
    out: dict[str, dict[str, str]] = {}
    for bench in report.get("benches", []):
        if bench.get("bench") != "llm_backends":
            continue
        for case in bench.get("cases", []):
            name = case.get("name", "")
            if not name.startswith("table2/ring/"):
                continue
            params = dict(
                kv.split("=", 1) for kv in case.get("params", "").split() if "=" in kv
            )
            out[name] = params
    return out


def check_llm_outputs(baseline_path: Path, current_path: Path) -> int:
    baseline = llm_ring_cases(json.loads(baseline_path.read_text()))
    current = llm_ring_cases(json.loads(current_path.read_text()))
    if not baseline:
        print("check_bench_regression: no table2/ring cases in baseline", file=sys.stderr)
        return 1
    missing = sorted(set(baseline) - set(current))
    if missing:
        print(f"check_bench_regression: llm cases missing from current run: {missing}",
              file=sys.stderr)
        return 1

    failures = []
    print(f"{'case':<20} {'shape':>10} {'step_us':>22}")
    for name in sorted(baseline):
        base, cur = baseline[name], current[name]
        problems = []
        if base.get("shape") != cur.get("shape"):
            problems.append(f"shape {base.get('shape')} -> {cur.get('shape')}")
        for field in ("step_us", "baseline_us"):
            try:
                b, c = float(base[field]), float(cur[field])
            except (KeyError, ValueError):
                problems.append(f"{field} unreadable")
                continue
            if abs(c - b) > abs(b) * 1e-9:
                problems.append(f"{field} {b!r} -> {c!r}")
        flag = ""
        if problems:
            failures.append((name, "; ".join(problems)))
            flag = "  << DRIFT"
        print(f"{name:<20} {cur.get('shape', '?'):>10} {cur.get('step_us', '?'):>22}{flag}")

    if failures:
        for name, what in failures:
            print(f"check_bench_regression: {name}: {what}", file=sys.stderr)
        print(
            "check_bench_regression: ring-backend Table 2 outputs drifted from the "
            "committed baseline (the ring backend must stay byte-identical to the "
            "legacy path; regenerate BENCH_llm.json only for intentional model changes)",
            file=sys.stderr,
        )
        return 1
    print(f"check_bench_regression: {len(baseline)} llm cases match the baseline")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path)
    parser.add_argument("--current", type=Path)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="max allowed relative slowdown of a case's normalized cost (0.25 = 25%%)",
    )
    parser.add_argument(
        "--svc",
        type=Path,
        help="single-run mode: gate file-backed journaling overhead in this report",
    )
    parser.add_argument(
        "--svc-tolerance",
        type=float,
        default=0.15,
        help="max journaling overhead over the same run's baseline (0.15 = 15%%)",
    )
    parser.add_argument(
        "--llm-baseline",
        type=Path,
        help="committed BENCH_llm.json to pin the ring-backend Table 2 column against",
    )
    parser.add_argument(
        "--llm-current",
        type=Path,
        help="freshly-aggregated BENCH_llm.json to check (requires --llm-baseline)",
    )
    args = parser.parse_args(argv)

    if (args.llm_baseline is None) != (args.llm_current is None):
        parser.error("--llm-baseline and --llm-current must be given together")
    if args.llm_baseline is not None:
        return check_llm_outputs(args.llm_baseline, args.llm_current)
    if args.svc is not None:
        return check_svc_overhead(args.svc, args.svc_tolerance)
    if args.baseline is None or args.current is None:
        parser.error("--baseline and --current are required without --svc")

    baseline = watched_cases(json.loads(args.baseline.read_text()))
    current = watched_cases(json.loads(args.current.read_text()))
    if not baseline or not current:
        print("check_bench_regression: no watched cases found", file=sys.stderr)
        return 1

    shared = sorted(set(baseline) & set(current))
    if len(shared) < 3:
        # A median over one or two cases cannot anchor a shape comparison.
        print(
            f"check_bench_regression: only {len(shared)} shared watched cases; "
            "need >= 3 for a meaningful median",
            file=sys.stderr,
        )
        return 1
    missing = sorted(set(baseline) - set(current))
    if missing:
        print(f"check_bench_regression: cases missing from current run: {missing}",
              file=sys.stderr)
        return 1

    base_norm = normalized({n: baseline[n] for n in shared})
    cur_norm = normalized({n: current[n] for n in shared})

    failures = []
    print(f"{'case':<28} {'base':>8} {'cur':>8} {'ratio':>7}")
    for name in shared:
        ratio = cur_norm[name] / base_norm[name]
        flag = ""
        if ratio > 1.0 + args.tolerance:
            failures.append((name, ratio))
            flag = "  << REGRESSION"
        print(f"{name:<28} {base_norm[name]:>8.3f} {cur_norm[name]:>8.3f} {ratio:>7.3f}{flag}")

    if failures:
        worst = max(failures, key=lambda f: f[1])
        print(
            f"check_bench_regression: {len(failures)} case(s) beyond "
            f"{args.tolerance:.0%} (worst: {worst[0]} at {worst[1]:.2f}x)",
            file=sys.stderr,
        )
        return 1
    print(f"check_bench_regression: {len(shared)} cases within {args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
