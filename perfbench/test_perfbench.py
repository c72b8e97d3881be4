"""Tests of the benchmark itself, at the tiny size:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "tests"))

import calibrate  # noqa: E402
import oracle  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    rows = {line.split()[0]: line.split() for line in lines[:-1] if line.startswith("  ")}
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), rows, digest


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_and_repeats(workload):
    plain, plain_rows, plain_digest = parse(bench(workload, 0))
    traced = [parse(bench(workload, 1)) for _ in range(2)]
    for result, listed in [(plain, SPEC["end_to_end"])] + [(t[0], SPEC["per_layer"]) for t in traced]:
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in listed}
        for m in listed:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    # The summary names every metric with its unit, fail_frac and verdict_fail too.
    for m in SPEC["end_to_end"]:
        assert plain_rows[m["name"]][2] == m["unit"]
    assert float(plain_rows["fail_frac"][1]) == 0
    # Same seed, same outputs and the same work counts.
    assert {plain_digest, traced[0][2], traced[1][2]} == {plain_digest}
    assert plain_rows["verdict_fail"][1] == traced[0][1]["verdict_fail"][1]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    first, second = (t[0]["metrics"] for t in traced)
    assert [first[n]["value"] for n in counts] == [second[n]["value"] for n in counts]


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("peel", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("moduli", [(0,), (0, 0), (7, 7), (0, 5), (9, 0)])
def test_oracle_layers_match_naive_sumsets(moduli):
    rng = random.Random(f"oracle:{moduli}")
    for _ in range(25):
        a = [tuple(rng.randint(-30, 30) for _ in moduli) for _ in range(rng.randint(1, 12))]
        b = [tuple(rng.randint(-6, 9) for _ in moduli) for _ in range(rng.randint(1, 5))]
        layers = oracle.sumset_layers(a, b, 4, moduli)
        for i, layer in enumerate(layers):
            assert layer == sorted(oracles.naive_iterated(a, b, i, moduli))


def test_tail_is_the_highest_percentile_with_ten_jobs_above():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3 jobs")
    values = [float(v) for v in range(30)]
    value, label = run.tail(values)
    assert label == "p66 of 30 jobs"
    assert 19.0 < value < 20.0  # between the order statistics around it


def test_quantile_is_a_smooth_estimate():
    assert run.quantile([5.0] * 7, 0.5) == pytest.approx(5.0)
    assert run.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    spread = [1.0, 2.0, 10.0, 11.0]
    assert 2.0 < run.quantile(spread, 0.5) < 10.0


def test_normalise_divides_by_the_kernel_times_around_each_job():
    gaps = [[1.0, 1.0], [2.0, 2.0], [4.0]]
    inside = [[], [8.0, 8.0]]
    assert calibrate.normalise([3.0, 6.0], gaps, inside) == [2.0, 1.5]


def test_first_round_is_whole_and_every_job_is_calibrated():
    class Cli:
        @staticmethod
        def main(argv):
            start = time.perf_counter()
            while time.perf_counter() - start < 0.3:
                pass
            print(argv[0])
            return 0

    jobs = [workloads.Job([str(i)], "fake", i) for i in range(3)]
    rounds = run.measure(Cli, jobs, 2.0, None)
    assert len(rounds) > 1 and len(rounds[0].times) == len(jobs)
    for rnd in rounds:
        assert len(rnd.gaps) == len(rnd.times) + 1
        assert len(rnd.inside) == len(rnd.cal_times) == len(rnd.times)
        # A 0.3 s job holds kernel samples, and their time is not the job's.
        assert all(len(samples) >= 1 for samples in rnd.inside)
        assert all(0.2 < t < 0.35 for t in rnd.times)
