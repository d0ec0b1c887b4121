"""Benchmark regression guard: fresh BENCH_*.json vs committed baselines.

Walks every baseline JSON, pairs it with the freshly recorded file of the
same name, and compares all throughput-like numeric leaves (``q/s``,
``qps``, ``speedup``, ``per_s``/``per_sec``, ``throughput``; higher is
better).  A
fresh value more than ``--threshold`` (default 30%) below its baseline fails
the run, so silent perf regressions turn into red CI instead of a quiet diff.
(Per-row storage is guarded end to end instead: ``storage_expansion_x`` in
``BENCHMARK.json``.)

The fig10 scaling JSON additionally gets a **slope check** on its fresh
measurements: with the real-process drivers, the highest worker count's
CryptDB q/s must beat the 1-worker rate by the scale-out factor the
hardware can support (>=1.5x and never-below-1x for an 8-worker run on
>=8 CPUs; >=1.1x with a 5% noise floor whenever at least two CPUs are
available).  Runs recorded on a single-CPU machine (``available_cpus: 1``)
are only checked for non-collapse, since N processes timeslicing one core
cannot speed up.

Baselines and fresh runs must come from the same mode: a file pair whose
``quick_mode`` flags differ is skipped with a warning rather than compared
(quick-mode scales are not comparable to full runs).  CI keeps quick-mode
baselines under ``benchmarks/baselines/`` next to this script; regenerate
them with::

    cd benchmarks && BENCH_QUICK=1 python -m pytest -q -s
    cp ../BENCH_*.json baselines/

Usage::

    python benchmarks/check_bench_regression.py                # CI defaults
    python benchmarks/check_bench_regression.py --threshold 0.5
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_HIGHER_IS_BETTER = ("q/s", "qps", "speedup", "per_s", "throughput")
_EXCLUDE = ("loss", "overhead")


def _is_throughput_key(key: str) -> bool:
    lowered = key.lower()
    if any(word in lowered for word in _EXCLUDE):
        return False
    return any(word in lowered for word in _HIGHER_IS_BETTER)


def collect_metrics(node, path: str = "") -> dict[str, float]:
    """Flatten a BENCH payload into ``{json-path: value}`` throughput leaves."""
    metrics: dict[str, float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            child_path = f"{path}.{key}" if path else key
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if _is_throughput_key(key):
                    metrics[child_path] = float(value)
            else:
                metrics.update(collect_metrics(value, child_path))
    elif isinstance(node, list):
        for position, value in enumerate(node):
            metrics.update(collect_metrics(value, f"{path}[{position}]"))
    return metrics


def check_scaling_slope(fresh_path: Path) -> tuple[list[str], list[str]]:
    """Scaling-slope guard over the freshly measured fig10 JSON."""
    if not fresh_path.exists():
        return [f"{fresh_path.name}: fresh results missing for slope check"], []
    payload = json.loads(fresh_path.read_text(encoding="utf-8"))
    rows = [
        row for row in payload.get("rows", [])
        if isinstance(row, dict) and "workers" in row and "CryptDB q/s" in row
    ]
    if len(rows) < 2:
        return [f"{fresh_path.name}: no multi-worker scaling rows recorded"], []
    rows.sort(key=lambda row: row["workers"])
    cpus = int(payload.get("available_cpus", 1))
    base = rows[0]["CryptDB q/s"]
    peak = rows[-1]["CryptDB q/s"]
    peak_workers = rows[-1]["workers"]
    slope = peak / base if base else 0.0
    name = fresh_path.name
    failures: list[str] = []
    if cpus >= 2:
        # The full 8-worker rule (>=1.5x, never below 1x) applies when the
        # hardware can express it; smaller worker counts / CPU budgets get a
        # proportionally looser bar with a 5% noise allowance on the floor,
        # since a 2-driver quick run measures only a tens-of-ms sample.
        strict = peak_workers >= 8 and cpus >= 8
        required = 1.5 if strict else 1.1
        floor = base if strict else 0.95 * base
        if peak < floor:
            failures.append(
                f"{name}: {peak_workers}-worker q/s ({peak}) fell below "
                f"1-worker q/s ({base})"
            )
        if slope < required:
            failures.append(
                f"{name}: scaling slope {slope:.2f}x below required "
                f"{required:.2f}x ({peak_workers} workers, {cpus} CPUs)"
            )
    elif slope < 0.5:
        failures.append(
            f"{name}: single-CPU run collapsed to {slope:.2f}x at "
            f"{peak_workers} workers (floor 0.5x)"
        )
    note = (
        f"{name}: scaling slope {slope:.2f}x at {peak_workers} workers "
        f"on {cpus} CPU(s)"
    )
    return failures, [note]


def check_recovery_overhead(
    fresh_path: Path, limit_pct: float = 5.0
) -> tuple[list[str], list[str]]:
    """Hard bar on the durable catalog's steady-state write-through cost.

    ``overhead`` keys are excluded from the generic throughput comparison
    (they are ratios, not rates), so the durability issue's <5% bar is
    enforced here explicitly against the freshly recorded
    ``BENCH_recovery.json``.
    """
    name = fresh_path.name
    if not fresh_path.exists():
        return [f"{name}: fresh results missing for the WAL-overhead check"], []
    payload = json.loads(fresh_path.read_text(encoding="utf-8"))
    overhead = payload.get("steady_state", {}).get("overhead_pct")
    if overhead is None:
        return [f"{name}: no steady_state.overhead_pct recorded"], []
    if float(overhead) > limit_pct:
        return [
            f"{name}: catalog steady-state overhead {float(overhead):.1f}% "
            f"exceeds the {limit_pct:.0f}% bar"
        ], []
    recovery = payload.get("recovery", {})
    note = (
        f"{name}: catalog steady-state overhead {float(overhead):.1f}% "
        f"(limit {limit_pct:.0f}%); recovery replayed "
        f"{recovery.get('wal_records', '?')} records in "
        f"{recovery.get('recover_seconds', '?')}s"
    )
    return [], [note]


def compare_file(
    baseline_path: Path, fresh_path: Path, threshold: float
) -> tuple[list[str], list[str]]:
    """Return (failures, notes) for one baseline/fresh pair."""
    name = baseline_path.name
    if not fresh_path.exists():
        return [f"{name}: fresh results missing ({fresh_path})"], []
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    fresh = json.loads(fresh_path.read_text(encoding="utf-8"))
    if baseline.get("quick_mode") != fresh.get("quick_mode"):
        return [], [f"{name}: skipped (quick_mode differs between baseline and fresh run)"]
    baseline_metrics = collect_metrics(baseline)
    fresh_metrics = collect_metrics(fresh)
    failures = []
    notes = []
    for path, old in sorted(baseline_metrics.items()):
        new = fresh_metrics.get(path)
        if new is None:
            failures.append(f"{name}: metric {path} disappeared (baseline {old:g})")
            continue
        if old > 0 and new < old * (1.0 - threshold):
            failures.append(
                f"{name}: {path} regressed {old:g} -> {new:g} "
                f"({(1 - new / old) * 100:.0f}% drop, limit {threshold * 100:.0f}%)"
            )
        else:
            notes.append(f"{name}: {path} {old:g} -> {new:g} ok")
    return failures, notes


def main(argv: list[str] | None = None) -> int:
    here = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", type=Path, default=here / "baselines",
                        help="directory of committed BENCH_*.json baselines")
    parser.add_argument("--fresh-dir", type=Path, default=here.parent,
                        help="directory holding the freshly recorded BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="maximum tolerated fractional drop (default 0.30)")
    parser.add_argument("--recovery-overhead-limit", type=float, default=5.0,
                        help="maximum tolerated steady-state catalog "
                             "write-through overhead in percent (default 5.0)")
    parser.add_argument("--verbose", action="store_true",
                        help="also print every metric that passed")
    args = parser.parse_args(argv)

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"no baselines found under {args.baseline_dir}", file=sys.stderr)
        return 2
    all_failures: list[str] = []
    compared = 0
    for baseline_path in baselines:
        failures, notes = compare_file(
            baseline_path, args.fresh_dir / baseline_path.name, args.threshold
        )
        all_failures.extend(failures)
        for note in notes:
            if note.endswith("ok"):
                compared += 1
                if args.verbose:
                    print(note)
            else:
                print(note)
    scaling_fresh = args.fresh_dir / "BENCH_fig10_tpcc_scaling.json"
    slope_failures, slope_notes = check_scaling_slope(scaling_fresh)
    all_failures.extend(slope_failures)
    for note in slope_notes:
        print(note)
    overhead_failures, overhead_notes = check_recovery_overhead(
        args.fresh_dir / "BENCH_recovery.json", args.recovery_overhead_limit
    )
    all_failures.extend(overhead_failures)
    for note in overhead_notes:
        print(note)
    if all_failures:
        print(f"\n{len(all_failures)} benchmark regression(s):", file=sys.stderr)
        for failure in all_failures:
            print(f"  FAIL {failure}", file=sys.stderr)
        return 1
    if compared == 0:
        # Every pair was skipped (e.g. baselines regenerated without
        # BENCH_QUICK=1, or the CI bench step lost its quick-mode env): a
        # guard that compared nothing must not report success.
        print("benchmark guard: no comparable metrics — every baseline/fresh "
              "pair was skipped; check quick_mode consistency", file=sys.stderr)
        return 2
    print(f"benchmark guard: {compared} metrics within bounds "
          f"(drop {args.threshold * 100:.0f}%) across {len(baselines)} files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
