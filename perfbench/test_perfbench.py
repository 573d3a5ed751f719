"""The benchmark's own tests: tiny-size runs of every workload.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Each workload runs on the ``tiny`` inputs (oracle computed on the fly)
in both modes, and must emit every metric ``BENCHMARK.json`` names for
that mode, with its unit.  A planted wrong answer must be counted as
failed and make the run exit non-zero.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import common

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(common.BENCH_DIR / "run.py")]


def bench(workload: str, trace: int, *extra: str, seed: int = 3,
          commit: str | None = None):
    env = dict(os.environ)
    if commit is not None:
        env["GIT_COMMIT"] = commit
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "2",
               "--trace", str(trace), "--size", "tiny", *extra],
        capture_output=True, text=True, timeout=300, cwd=common.ROOT, env=env)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]), json.loads(lines[-2])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, result, detail = bench(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)
    if not trace and workload != "served":
        # Throughput scaled to the reference speed, latency as measured;
        # the unscaled figures are kept.
        scale = detail["detail"]["calibration"]["scale"]
        raw = detail["detail"]["raw"]
        assert result["metrics"]["qps"]["value"] == pytest.approx(
            raw["qps"] / scale)
        assert result["metrics"]["p50_ms"]["value"] == raw["p50_ms"]


@pytest.mark.parametrize("workload", ["anchored", "served"])
def test_planted_wrong_answer_is_a_failure(workload):
    code, result, detail = bench(workload, 0, "--plant-wrong")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert detail["detail"]["mismatches"]


def test_same_seed_gives_identical_counts():
    """The second run of a seed compares its exact operation counters
    with the first (``check_counts``) and fails the run if they moved."""
    seed = 7_001
    for path in common.STATE_DIR.glob(f"counts-tiny-unanchored-{seed}-*"):
        path.unlink()
    first = bench("unanchored", 0, seed=seed)
    second = bench("unanchored", 0, seed=seed)
    assert first[0] == second[0] == 0
    assert first[2]["detail"]["counts_check"] == "first"
    assert second[2]["detail"]["counts_check"] == "same"
    assert first[2]["detail"]["operation_counts"] \
        == second[2]["detail"]["operation_counts"]
    assert first[2]["detail"]["operation_counts"]["rank_ops"] > 0


def test_counts_of_other_code_are_not_compared():
    """Counts recorded by other code (here: planted ones) must not fail a
    run of changed code; counts that moved on the same code must."""
    seed = 7_002
    for path in common.STATE_DIR.glob(f"counts-tiny-unanchored-{seed}-*"):
        path.unlink()
    code, _, detail = bench("unanchored", 0, seed=seed, commit="before")
    assert code == 0 and detail["detail"]["counts_check"] == "first"
    [path] = common.STATE_DIR.glob(f"counts-tiny-unanchored-{seed}-*")
    counts = json.loads(path.read_text())
    counts["rank_ops"] += 1  # as if the earlier code pruned less
    path.write_text(json.dumps(counts))
    code, _, detail = bench("unanchored", 0, seed=seed, commit="after")
    assert code == 0 and detail["detail"]["counts_check"] == "first"
    proc = subprocess.run(
        RUN + ["--workload", "unanchored", "--seed", str(seed), "--seconds",
               "2", "--trace", "0", "--size", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=common.ROOT,
        env={**os.environ, "GIT_COMMIT": "before"})
    assert proc.returncode == 2
    assert "operation counts differ" in proc.stderr


def test_calibrator_samples_in_its_own_process():
    cal = common.Calibrator()
    try:
        for _ in range(3):
            cal.sample()
    finally:
        cal.close()
    assert cal.proc.returncode == 0
    assert len(cal.samples) == 3 and min(cal.samples) > 0
    assert cal.scale == pytest.approx(
        common.CALIBRATION_REFERENCE_S / common.median(cal.samples))


def test_answer_checker_catches_a_changed_pair_set():
    checker = common.AnswerChecker({"q": common.answer_digest({("a", "b")})})
    assert checker.check("q", {("a", "b")})
    assert checker.check("q", {("a", "b")})
    assert not checker.check("q", {("a", "c")})
    assert checker.mismatches == ["q"]


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    t = common.tail(values)
    assert t["value"] == 89 and t["samples"] == 100
    assert sum(v > t["value"] for v in values) == 10
