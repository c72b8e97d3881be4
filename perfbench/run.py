#!/usr/bin/env python3
"""End-to-end benchmark of the sumsetlab command line on seeded workloads.

    python3 perfbench/run.py --workload {stream,peel,suite} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]
    python3 perfbench/run.py --record

Run from the root of a source checkout; the package is imported from
`src/`.  One process, one thread, one client: each job is one in-process
`sumsetlab.cli.main([...])` call with its standard output captured in
memory, and jobs run back to back (a closed loop).  A round is the
workload's fixed job list; rounds repeat until the next job would end
after `--seconds`.  Between jobs `calibrate` times a fixed reference
kernel, and job times are reported in its units (`cal`), which cancels
most of the shared host's drift; the same times in seconds are printed
for reading.

With `--trace 0` the last line of output carries the end-to-end metrics,
with `--trace 1` the per-layer metrics of `spans.Tracer`, taken from traced
rounds that alternate with untraced ones.  Metric names and units come
from BENCHMARK.json.  Every job's exit code and output are hashed and
checked: against the first round, against `checks` (independent of the
package), and for the default seed against references.json.
`--record` rewrites references.json from the code in `src/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 7
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import sumsetlab.cli\n"
    "t = time.perf_counter() - t\n"
    "print(repr(t), sumsetlab.__file__)\n"
)

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def measure_setup() -> list[float]:
    """Import time of sumsetlab.cli, each in a fresh interpreter."""
    env = dict(os.environ)
    env.pop("SUMSETLAB_THREADS", None)
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"cannot import sumsetlab.cli from {SRC}: {proc.stderr.strip()}")
        seconds, path = proc.stdout.split(maxsplit=1)
        if not _under_src(path.strip()):
            raise BenchError(f"sumsetlab was imported from {path.strip()}, not from {SRC}")
        samples.append(float(seconds))
    return samples


def require_sources() -> None:
    if not (SRC / "sumsetlab" / "cli.py").is_file():
        raise BenchError(f"no sumsetlab sources under {SRC}")


def import_cli():
    require_sources()
    sys.path.insert(0, str(SRC))
    try:
        import sumsetlab.cli as cli
    except ImportError as exc:
        raise BenchError(f"cannot import sumsetlab.cli: {exc}") from exc
    if not _under_src(cli.__file__):
        raise BenchError(f"sumsetlab was imported from {cli.__file__}, not from {SRC}")
    return cli


@contextlib.contextmanager
def fresh_inputs(name: str):
    """An emptied input directory under .perfbench, as the working directory."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(cwd)


def digest(code, text: str) -> str:
    return hashlib.sha256(f"exit {code}\n".encode() + text.encode()).hexdigest()


class Round:
    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.wall = 0.0  # summed job times: excludes hashing and bookkeeping
        self.elapsed = 0.0
        self.calibrating = 0.0  # time spent in the reference kernel
        self.codes: list = []
        self.digests: list[str] = []
        self.times: list[float] = []
        self.cal_times: list[float] = []  # job times in units of the kernel's
        self.gaps: list[list[float]] = []  # kernel times before, between and after jobs
        self.inside: list[list[float]] = []  # kernel times taken while each job ran
        self.outputs: list[bytes] = []  # compressed, kept for the first round only
        self.spans = (0, 0)
        self.counts: dict = {}


def run_round(cli, jobs, traced: bool, keep: bool, tracer: spans.Tracer | None,
              deadline: float | None = None, expected: list[float] | None = None) -> Round:
    """The job list once, or as much of it as ends by `deadline`, judged by
    each job's `expected` time."""
    rnd = Round(traced)
    if traced:
        before = tracer.counts.copy()
        first = len(tracer.starts)
        tracer.install()
    start = time.perf_counter()
    gaps = [calibrate.gap()]
    for index, job in enumerate(jobs):
        if deadline is not None and time.perf_counter() + expected[index] > deadline:
            break
        if traced:
            tracer.job = index
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        # Not in traced rounds, whose spans would time the kernel too.
        with calibrate.Sampler(active=not traced) as sampler:
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(job.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a job that raises is a failed job, not a dead run
                code = f"raised {exc!r}"
        rnd.times.append(time.perf_counter() - t0 - sum(sampler.samples))
        rnd.inside.append(sampler.samples)
        gaps.append(calibrate.gap())
        text = out.getvalue()
        rnd.codes.append(code)
        rnd.digests.append(digest(code, text))
        if keep:
            rnd.outputs.append(zlib.compress(text.encode(), 1))
    rnd.elapsed = time.perf_counter() - start
    rnd.wall = sum(rnd.times)
    rnd.gaps = gaps
    rnd.calibrating = sum(map(sum, gaps + rnd.inside))
    rnd.cal_times = calibrate.normalise(rnd.times, gaps, rnd.inside)
    if traced:
        tracer.uninstall()
        rnd.spans = (first, len(tracer.starts))
        rnd.counts = tracer.counts - before
    return rnd


def measure(cli, jobs, seconds: float, tracer: spans.Tracer | None) -> list[Round]:
    """Rounds until the next job would end after `seconds`, so the last
    round may stop short; with a tracer, untraced and traced rounds
    alternate.  The first round, and with a tracer the first two, always run
    whole."""
    rounds: list[Round] = []
    deadline = time.perf_counter() + seconds
    whole = 2 if tracer is not None else 1
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        limit = None if len(rounds) < whole else deadline
        rnd = run_round(cli, jobs, traced, keep=not rounds, tracer=tracer,
                        deadline=limit, expected=rounds[0].times if rounds else None)
        if rnd.times:
            rounds.append(rnd)
        if len(rnd.times) < len(jobs):
            return rounds


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass over
    [(i-1)/n, i/n].  A job list mixes kinds and sizes, so a single order
    statistic jumps when a seed reorders the jobs near p; this moves
    smoothly."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule per interval
    weights = [sum(math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
                   for x in ((i + (k + 0.5) / steps) / n for k in range(steps)))
               for i in range(n)]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten values above it; the maximum
    when there are ten values or fewer."""
    n = len(values)
    if n <= 10:
        return max(values), f"max of {n} jobs"
    return quantile(values, (n - 10) / n), f"p{100 * (n - 10) // n} of {n} jobs"


def load_reference(workload: str, seed: int, size: str, jobs):
    if seed != DEFAULT_SEED or size != "full" or not REFERENCES.is_file():
        return None
    stored = json.loads(REFERENCES.read_text())["workloads"].get(workload)
    if stored is None:
        return None
    if [j["argv"] for j in stored["jobs"]] != [job.argv for job in jobs]:
        raise BenchError("references.json was recorded for another job list; re-record it")
    return stored


def verify(jobs, rounds: list[Round], reference) -> tuple[list[str | None], int, list[bool]]:
    """Per-job problems, failed job runs, and which jobs are verdict failures."""
    first = rounds[0]
    checker = checks.Checker()
    problems: list[str | None] = []
    for j, job in enumerate(jobs):
        problem = checker.check(job, first.codes[j], zlib.decompress(first.outputs[j]).decode())
        if reference is not None and reference["jobs"][j]["sha256"] != first.digests[j]:
            problem = problem or "output differs from the stored reference"
        problems.append(problem)
    failed = sum(1 for rnd in rounds for j in range(len(rnd.digests))
                 if problems[j] is not None or rnd.digests[j] != first.digests[j])
    verdicts = [p is None and first.codes[j] == 1 for j, p in enumerate(problems)]
    return problems, failed, verdicts


def layer_metrics(tracer: spans.Tracer, rnd: Round) -> dict[str, float]:
    self_time, covered = tracer.self_times(*rnd.spans)
    counts = rnd.counts
    out = {f"{span}_s": self_time.get(span, 0.0) for span in spans.SPANS}
    for _, _, _, counters in spans.TARGETS:
        for name, _ in counters:
            out[name] = counts.get(name, 0)
    out["groups.pairs_per_s"] = _rate(out["groups.pairs_computed"], out["groups.sumset_s"])
    out["graphs.edges_per_s"] = _rate(out["graphs.edges"], out["graphs.build_s"])
    out["magnification.cuts_per_call"] = _rate(counts.get(spans.FLOW_CUTS, 0),
                                               out["magnification.flow_calls"])
    out["trace.coverage"] = covered / (rnd.elapsed - rnd.calibrating)
    return out


def _rate(amount, per) -> float:
    return amount / per if per else 0.0


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    require_sources()
    os.environ.pop("SUMSETLAB_THREADS", None)
    setup = measure_setup()
    cli = import_cli()
    tracer = spans.Tracer() if args.trace else None
    with fresh_inputs(f"{args.workload}-{args.size}-seed{args.seed}") as inputs:
        jobs = workloads.build(args.workload, args.seed, args.size, inputs)
        reference = load_reference(args.workload, args.seed, args.size, jobs)
        rounds = measure(cli, jobs, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems, failed, verdicts = verify(jobs, rounds, reference)

    plain = [r for r in rounds if not r.traced]
    attempted = sum(len(r.times) for r in rounds)
    metrics = {"setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb,
               "fail_frac": failed / attempted, "verdict_fail": sum(verdicts)}
    notes = {"setup_s": f"median of {len(setup)} fresh imports",
             "fail_frac": f"{failed} of {attempted} job runs",
             "verdict_fail": f"of {len(jobs)} jobs exit 1 with a recorded failed verdict"}
    # The same three timings in kernel units (the metrics) and in seconds
    # (shown for reading only: they drift with the host).
    for unit, field in (("cal", "cal_times"), ("s", "times")):
        per_job = [statistics.median(getattr(r, field)[j] for r in plain if j < len(r.times))
                   for j in range(len(jobs))]
        metrics[f"wall_{unit}"] = sum(per_job)
        metrics[f"job_p50_{unit}"] = quantile(per_job, 0.5)
        metrics[f"job_tail_{unit}"], notes[f"job_tail_{unit}"] = tail(per_job)
        notes[f"wall_{unit}"] = f"sum of {len(jobs)} per-job medians"
        notes[f"job_p50_{unit}"] = f"median of {len(jobs)} per-job medians"
    metrics["kernel_s"] = statistics.median(k for r in plain for gap in r.gaps for k in gap)
    notes["kernel_s"] = "median time of the reference kernel, the cal unit"
    if tracer is not None:
        traced = [r for r in rounds if r.traced and len(r.times) == len(jobs)]
        per_round = [layer_metrics(tracer, r) for r in traced]
        for name in per_round[0]:
            metrics[name] = statistics.median(m[name] for m in per_round)
        metrics["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                       - metrics["wall_s"])
        tracer.write(WORK / "trace" / f"{args.workload}-{args.size}-seed{args.seed}.spans")

    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(plain)} untraced + {len(rounds) - len(plain)} traced rounds of {len(jobs)} jobs")
    combined = hashlib.sha256("\n".join(rounds[0].digests).encode()).hexdigest()
    print(f"digest {combined} (" + ("checked against references.json" if reference else
                                    "no stored reference for this seed and size") + ")")
    print("round walls: " + " ".join(
        f"{r.wall:.3f}{'t' if r.traced else ''}"
        + (f"({len(r.times)} jobs)" if len(r.times) < len(jobs) else "") for r in rounds))
    listed = spec["per_layer"] if tracer is not None else spec["end_to_end"]
    shown = {m["name"]: m["unit"] for m in spec["end_to_end"] + listed}
    shown.update({"fail_frac": "ratio", "verdict_fail": "count", "kernel_s": "s", "wall_s": "s",
                  "job_p50_s": "s", "job_tail_s": "s"})
    for name, unit in shown.items():
        print(f"  {name:<32} {metrics[name]:>14.6g} {unit:<9} {notes.get(name, '')}")
    for job, problem in zip(jobs, problems):
        if problem is not None:
            print(f"  job {' '.join(job.argv)}: {problem}")
    if tracer is not None and tracer.absent:
        print(f"  absent, reported as 0: {', '.join(tracer.absent)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


def record() -> int:
    """Rewrite references.json from one round of each workload at the
    default seed, cross-checking stream cardinalities against the naive
    oracle in tests/oracles.py."""
    cli = import_cli()
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    stored = {}
    for workload in workloads.WORKLOADS:
        with fresh_inputs(f"{workload}-record") as inputs:
            jobs = workloads.build(workload, DEFAULT_SEED, "full", inputs)
            rnd = run_round(cli, jobs, False, keep=True, tracer=None)
        problems, failed, verdicts = verify(jobs, [rnd], None)
        for j, job in enumerate(jobs):
            if job.kind == "cardinality":
                d = job.data
                naive = [len(oracles.naive_iterated(d["a"], d["b"], i, d["moduli"]))
                         for i in range(d["h"] + 1)]
                payload = json.loads(zlib.decompress(rnd.outputs[j]))
                if payload["cardinalities"] != naive:
                    problems[j] = problems[j] or "cardinalities differ from tests/oracles.py"
        bad = [(j, p) for j, p in enumerate(problems) if p is not None]
        if bad:
            raise BenchError(f"{workload}: refusing to record wrong outputs: {bad}")
        stored[workload] = {
            "digest": hashlib.sha256("\n".join(rnd.digests).encode()).hexdigest(),
            "verdict_fail": sum(verdicts),
            "jobs": [{"argv": job.argv, "exit": code, "sha256": d}
                     for job, code, d in zip(jobs, rnd.codes, rnd.digests)],
        }
        print(f"{workload}: {len(jobs)} jobs, {sum(verdicts)} verdict failures, "
              f"digest {stored[workload]['digest']}")
    # One job per line, so a re-recording diffs job by job.
    body = ",\n".join(
        f'  "{w}": {{"digest": "{e["digest"]}", "verdict_fail": {e["verdict_fail"]}, "jobs": [\n'
        + ",\n".join(f"    {json.dumps(job)}" for job in e["jobs"]) + "]}"
        for w, e in stored.items())
    REFERENCES.write_text(f'{{"seed": {DEFAULT_SEED}, "size": "full", "workloads": {{\n{body}}}}}\n')
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--record", action="store_true", help="rewrite references.json")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    try:
        return record() if args.record else run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
