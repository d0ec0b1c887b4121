"""The benchmark regression guard (``benchmarks/check_bench_regression.py``).

The guard compares throughput-like leaves of fresh ``BENCH_*.json`` files
against committed baselines, checks the fig10 scaling slope and the durable
catalog's write-through overhead, and refuses to report success when it
compared nothing.  Per-row storage is not its job (the end-to-end
``storage_expansion_x`` metric guards it), so storage leaves are ignored.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

GUARD_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "check_bench_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_bench_regression", GUARD_PATH)
guard = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(guard)


def _write(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _pair(tmp_path, baseline: dict, fresh: dict) -> tuple[Path, Path]:
    return (
        _write(tmp_path / "BENCH_x.json", baseline),
        _write(tmp_path / "fresh_BENCH_x.json", fresh),
    )


def test_healthy_throughput_pair_passes(tmp_path):
    baseline, fresh = _pair(
        tmp_path,
        {"quick_mode": True, "rows": [{"CryptDB q/s": 100.0}]},
        {"quick_mode": True, "rows": [{"CryptDB q/s": 80.0}]},
    )
    failures, notes = guard.compare_file(baseline, fresh, threshold=0.3)
    assert failures == []
    assert notes == ["BENCH_x.json: rows[0].CryptDB q/s 100 -> 80 ok"]


def test_throughput_drop_beyond_threshold_fails(tmp_path):
    baseline, fresh = _pair(
        tmp_path,
        {"quick_mode": True, "speedup": 4.0},
        {"quick_mode": True, "speedup": 2.0},
    )
    failures, _notes = guard.compare_file(baseline, fresh, threshold=0.3)
    assert failures == [
        "BENCH_x.json: speedup regressed 4 -> 2 (50% drop, limit 30%)"
    ]


def test_disappeared_metric_fails(tmp_path):
    baseline, fresh = _pair(
        tmp_path,
        {"quick_mode": True, "pool": {"throughput": 9.0}},
        {"quick_mode": True, "pool": {}},
    )
    failures, _notes = guard.compare_file(baseline, fresh, threshold=0.3)
    assert len(failures) == 1 and "pool.throughput disappeared" in failures[0]


def test_quick_mode_mismatch_is_skipped(tmp_path):
    baseline, fresh = _pair(
        tmp_path,
        {"quick_mode": True, "qps": 100.0},
        {"quick_mode": False, "qps": 1.0},
    )
    failures, notes = guard.compare_file(baseline, fresh, threshold=0.3)
    assert failures == []
    assert len(notes) == 1 and "skipped" in notes[0]


def test_only_throughput_leaves_are_compared():
    payload = {
        "qps": 10,
        "ops_per_sec": 3.5,
        "quick_mode": True,
        "storage": {"bytes_per_row": 512, "expansion": 4.2},
        "wal": {"overhead_q/s": 7.0, "loss_per_s": 1.0},
        "runs": [{"throughput": 2}],
    }
    assert guard.collect_metrics(payload) == {
        "qps": 10.0,
        "ops_per_sec": 3.5,
        "runs[0].throughput": 2.0,
    }


def test_flat_scaling_on_several_cpus_fails(tmp_path):
    fresh = _write(
        tmp_path / "BENCH_fig10_tpcc_scaling.json",
        {
            "available_cpus": 8,
            "rows": [
                {"workers": 1, "CryptDB q/s": 100.0},
                {"workers": 8, "CryptDB q/s": 120.0},
            ],
        },
    )
    failures, notes = guard.check_scaling_slope(fresh)
    assert any("scaling slope 1.20x below required 1.50x" in f for f in failures)
    assert notes and "8 workers on 8 CPU(s)" in notes[0]


def test_single_cpu_scaling_only_guards_collapse(tmp_path):
    rows = [{"workers": 1, "CryptDB q/s": 100.0}, {"workers": 4, "CryptDB q/s": 0.0}]
    flat = _write(
        tmp_path / "flat.json",
        {"available_cpus": 1, "rows": [rows[0], dict(rows[1], **{"CryptDB q/s": 90.0})]},
    )
    assert guard.check_scaling_slope(flat)[0] == []
    collapsed = _write(tmp_path / "collapsed.json", {"available_cpus": 1, "rows": rows})
    failures, _notes = guard.check_scaling_slope(collapsed)
    assert len(failures) == 1 and "collapsed" in failures[0]


def test_recovery_overhead_above_limit_fails(tmp_path):
    over = _write(tmp_path / "over.json", {"steady_state": {"overhead_pct": 7.5}})
    failures, _notes = guard.check_recovery_overhead(over, limit_pct=5.0)
    assert failures == ["over.json: catalog steady-state overhead 7.5% exceeds the 5% bar"]
    within = _write(tmp_path / "within.json", {"steady_state": {"overhead_pct": 2.0}})
    assert guard.check_recovery_overhead(within, limit_pct=5.0)[0] == []
    missing = _write(tmp_path / "missing.json", {"steady_state": {}})
    assert "no steady_state.overhead_pct" in guard.check_recovery_overhead(missing)[0][0]


def test_guard_that_compared_nothing_exits_2(tmp_path, capsys):
    baselines = tmp_path / "baselines"
    baselines.mkdir()
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    _write(baselines / "BENCH_a.json", {"quick_mode": True, "qps": 5.0})
    _write(fresh / "BENCH_a.json", {"quick_mode": False, "qps": 5.0})
    _write(
        fresh / "BENCH_fig10_tpcc_scaling.json",
        {
            "available_cpus": 1,
            "rows": [
                {"workers": 1, "CryptDB q/s": 10.0},
                {"workers": 2, "CryptDB q/s": 10.0},
            ],
        },
    )
    _write(fresh / "BENCH_recovery.json", {"steady_state": {"overhead_pct": 1.0}})
    argv = ["--baseline-dir", str(baselines), "--fresh-dir", str(fresh)]
    assert guard.main(argv) == 2
    assert "no comparable metrics" in capsys.readouterr().err
    # The same pair recorded in one mode is compared and passes.
    _write(fresh / "BENCH_a.json", {"quick_mode": True, "qps": 5.0})
    assert guard.main(argv) == 0
