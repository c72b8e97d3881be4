"""Seeded inputs and job lists for the three workloads.

Every input is generated here from the workload seed and written as a set
or graph JSON document in the package's documented schemas, without
calling sumsetlab, so neither the inputs nor their generation time move
when the package's own builders change.  A job is the argument list of one
`sumsetlab` command line, run in the directory that holds the inputs.

Instance sizes are stratified rather than drawn freely: each slot of a
workload draws its sizes from its own narrow range, so the work in one job
list barely depends on the seed, while the elements themselves are random.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracle

WORKLOADS = ("stream", "peel", "suite")
SIZES = ("full", "tiny")


@dataclass
class Job:
    argv: list[str]
    kind: str
    instance: int
    # What the checks need to judge this job's output independently.
    data: dict = field(default_factory=dict, repr=False)


# stream: (space kind, |A| range, |B|, h of the cardinality job, modulus of
# the cyclic coordinates).  The strata together span |A| in [200, 1000], |B|
# in [8, 20] and h in [3, 6]; each stratum's own range is narrow and its other
# sizes fixed, so that one job list costs about the same time and memory for
# every seed.  Large |A| goes with small |B| or h, which keeps the instances
# at similar cost; sparse Z instances grow as |A| * |hB|, so they take the
# small end.
STREAM_STRATA = (
    ("Z-dense", (970, 990), 8, 3, None),
    ("Z-dense", (205, 210), 16, 6, None),
    ("Z-sparse", (465, 475), 8, 3, None),
    ("Z-sparse", (203, 207), 12, 4, None),
    ("Z^2", (705, 725), 9, 3, None),
    ("Z^2", (285, 295), 14, 5, None),
    ("Z_m^2", (970, 990), 20, 6, 45),
    ("Z_m^2", (205, 210), 8, 3, 79),
    ("Z x Z_m", (455, 465), 12, 4, 8),
    ("Z x Z_m", (243, 247), 16, 5, 15),
)
STREAM_SLOTS = {
    # Two instances per stratum, as for peel.
    "full": tuple(stratum for stratum in STREAM_STRATA for _ in range(2)),
    "tiny": (
        ("Z-dense", (30, 40), 4, 3, None),
        ("Z-sparse", (20, 30), 4, 3, None),
        ("Z^2", (30, 40), 4, 3, None),
        ("Z_m^2", (30, 40), 4, 3, 41),
        ("Z x Z_m", (30, 40), 4, 3, 9),
    ),
}

# peel: (space kind, |A| range, modulus range).  Narrow strata spanning
# |A| in [30, 90] and m in [30, 43], alternating Z and Z_m^2 so both spaces
# see small and large instances.  Cost grows faster than |A|, so the strata
# crowd the small end: many mid-size instances average out the seed.  Each
# stratum holds two instances, because the cost of one random instance
# varies by up to 2x with its elements.
PEEL_STRATA = (("Z", (30, 32), None), ("Z_m^2", (34, 36), (30, 31)),
               ("Z", (38, 40), None), ("Z_m^2", (42, 44), (34, 35)),
               ("Z", (48, 50), None), ("Z_m^2", (54, 56), (38, 39)),
               ("Z_m^2", (62, 64), (42, 43)), ("Z", (88, 90), None))
PEEL_SLOTS = {
    "full": tuple(stratum for stratum in PEEL_STRATA for _ in range(2)),
    "tiny": (("Z", (10, 12), None), ("Z_m^2", (10, 12), (30, 33))),
}
PEEL_H = 3
PEEL_B = 6

SUITE_SEEDS = 3
SUITE_CASES = {"full": None, "tiny": 1}


def _distinct(rng: random.Random, count: int, shape: tuple[int, ...]) -> list[tuple]:
    """`count` distinct points of the box [0, s_1) x ... x [0, s_k)."""
    out = []
    for index in rng.sample(range(math.prod(shape)), count):
        coords = []
        for side in reversed(shape):
            index, c = divmod(index, side)
            coords.append(c)
        out.append(tuple(reversed(coords)))
    return out


def _shift(points, offset):
    return [tuple(c + o for c, o in zip(p, offset)) for p in points]


def stream_sets(rng: random.Random, kind: str, n: int, k: int, m: int | None):
    """(moduli, A, B) for one stream instance of the given space kind."""
    if kind == "Z-dense":
        return (0,), _shift(_distinct(rng, n, (20 * n,)), (-10 * n,)), _distinct(rng, k, (k + 4,))
    if kind == "Z-sparse":
        span = 10**6
        return (0,), _shift(_distinct(rng, n, (2 * span,)), (-span,)), _distinct(rng, k, (k + 4,))
    if kind == "Z^2":
        side = math.ceil(math.sqrt(20 * n))
        width = math.ceil(math.sqrt(2 * k))
        a = _shift(_distinct(rng, n, (side, side)), (-(side // 2), -(side // 2)))
        return (0, 0), a, _distinct(rng, k, (width, width))
    if kind == "Z_m^2":
        return (m, m), _distinct(rng, n, (m, m)), _distinct(rng, k, (m, m))
    if kind == "Z x Z_m":
        rows = math.ceil(20 * n / m)
        a = _shift(_distinct(rng, n, (rows, m)), (-(rows // 2), 0))
        return (0, m), a, _distinct(rng, k, (4, m))
    raise ValueError(f"unknown space kind {kind}")


def peel_sets(rng: random.Random, kind: str, n: int, m_range):
    """(moduli, A, B) for one peel instance, as in the partition sizing table."""
    if kind == "Z":
        return (0,), _shift(_distinct(rng, n, (10 * n,)), (-5 * n,)), _distinct(rng, PEEL_B, (40,))
    m = rng.randint(*m_range)
    return (m, m), _distinct(rng, n, (m, m)), _distinct(rng, PEEL_B, (m, m))


def _write(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def _write_set(path: Path, moduli, elements) -> None:
    _write(path, {"moduli": list(moduli), "elements": [list(e) for e in elements]})


def build(workload: str, seed: int, size: str, outdir: Path) -> list[Job]:
    """Write the inputs of (workload, seed, size) into outdir; return the jobs."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    jobs: list[Job] = []
    if workload == "stream":
        for i, (kind, n_range, k, h, m) in enumerate(STREAM_SLOTS[size]):
            moduli, a, b = stream_sets(rng, kind, rng.randint(*n_range), k, m)
            a_name, b_name = f"A{i:02d}.json", f"B{i:02d}.json"
            _write_set(outdir / a_name, moduli, a)
            _write_set(outdir / b_name, moduli, b)
            data = {"moduli": moduli, "a": a, "b": b}
            jobs.append(Job(["sumset", a_name, b_name, "--cardinality-only", "--h", str(h)],
                            "cardinality", i, dict(data, h=h)))
            jobs.append(Job(["sumset", a_name, b_name, "--h", "2"], "sumset", i, dict(data, h=2)))
            jobs.append(Job(["graph", "build", a_name, b_name, "--h", "2"], "graph", i, dict(data, h=2)))
    elif workload == "peel":
        for i, (kind, n_range, m_range) in enumerate(PEEL_SLOTS[size]):
            moduli, a, b = peel_sets(rng, kind, rng.randint(*n_range), m_range)
            layers = oracle.sumset_layers(a, b, PEEL_H, moduli)
            graph = oracle.addition_graph(layers, b, moduli)
            names = [f"{x}{i:02d}.json" for x in "ABG"]
            _write_set(outdir / names[0], moduli, a)
            _write_set(outdir / names[1], moduli, b)
            _write(outdir / names[2], graph)
            hb = oracle.sumset_layers([(0,) * len(moduli)], b, PEEL_H, moduli)[-1]
            data = {"moduli": moduli, "b": b, "layers": layers, "hb": hb}
            edges = len(graph["edges"])
            jobs.append(Job(["partition", names[2]], "partition", i, data))
            jobs.append(Job(["mag", names[2], "--level", str(PEEL_H)], "mag", i, data))
            jobs.append(Job(["bounds", names[0], names[1], "--h", str(PEEL_H)], "bounds", i, data))
            jobs.append(Job(["graph", "check", names[2], "--max-edges", str(edges + 1)],
                            "check", i, data))
    elif workload == "suite":
        for i in range(SUITE_SEEDS):
            argv = ["verify", "suite", "--seed", str(rng.randrange(2**31))]
            if SUITE_CASES[size] is not None:
                argv += ["--cases", str(SUITE_CASES[size])]
            jobs.append(Job(argv, "suite", i))
    else:
        raise ValueError(f"unknown workload {workload}")
    return jobs
