"""Independent checks of each job's output.

A job's output is judged against `oracle`, never against the package
itself: sumset cardinalities and elements, graph layers and edges, witness
ratios of tight sets, partition covers, and the counts a bound report
quotes.  Exit code 1 is accepted only when the payload itself records the
failed verdict; such a job is a verdict failure, not a wrong output.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import oracle

SUITE_LINE = re.compile(r"criterion (\d+): (PASS|FAIL) \[")
SUITE_CRITERIA = 11


class Checker:
    """Checks the jobs of one job list; instances share their oracle data."""

    def __init__(self) -> None:
        self._layers: dict[int, list] = {}
        self._partitions: dict[int, dict] = {}

    def check(self, job, code, text: str) -> str | None:
        """None when the output is right, else what is wrong with it."""
        if code not in (0, 1):
            return f"exit code {code!r}"
        try:
            if job.kind == "suite":
                return _check_suite(code, text)
            payload = json.loads(text)
            problem = getattr(self, "_" + job.kind)(job, code, payload)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"
        return problem

    # -- stream ---------------------------------------------------------------

    def _stream_layers(self, job):
        layers = self._layers.get(job.instance)
        if layers is None or len(layers) <= job.data["h"]:
            d = job.data
            layers = oracle.sumset_layers(d["a"], d["b"], max(d["h"], 2), d["moduli"])
            self._layers[job.instance] = layers
        return layers

    def _cardinality(self, job, code, payload):
        want = [len(layer) for layer in self._stream_layers(job)[: job.data["h"] + 1]]
        expected = {"schema": 1, "h": job.data["h"], "cardinalities": want}
        return None if code == 0 and payload == expected else "cardinalities differ from oracle"

    def _sumset(self, job, code, payload):
        top = self._stream_layers(job)[2]
        expected = {"moduli": list(job.data["moduli"]), "elements": [list(x) for x in top]}
        return None if code == 0 and payload == expected else "A+2B differs from oracle"

    def _graph(self, job, code, payload):
        if code != 0 or payload["height"] != 2:
            return "graph build failed"
        layers = self._stream_layers(job)[:3]
        moduli = job.data["moduli"]
        labels = {int(v): tuple(c) for v, c in payload["labels"].items()}
        layer_of = {}
        for i, (ids, want) in enumerate(zip(payload["layers"], layers)):
            if sorted(labels[v] for v in ids) != want:
                return f"layer {i} differs from oracle"
            layer_of.update((v, i) for v in ids)
        b = {oracle.normalize(y, moduli) for y in job.data["b"]}
        edges = {tuple(e) for e in payload["edges"]}
        if len(edges) != len(payload["edges"]) or len(edges) != len(b) * (len(layers[0]) + len(layers[1])):
            return "edge count differs from |B| (|A| + |A+B|)"
        for u, v in edges:
            step = oracle.normalize([q - p for p, q in zip(labels[u], labels[v])], moduli)
            if layer_of[v] != layer_of[u] + 1 or step not in b:
                return f"edge ({u}, {v}) is not an addition step"
        return None

    # -- peel -----------------------------------------------------------------

    @staticmethod
    def _bottom(job, ids):
        # Generated graphs number the bottom layer 0..|A|-1 in label order.
        bottom = job.data["layers"][0]
        if not ids or len(set(ids)) != len(ids) or not all(0 <= v < len(bottom) for v in ids):
            raise ValueError("vertex ids outside the bottom layer")
        return [bottom[v] for v in ids]

    def _check(self, job, code, payload):
        ok = payload["commutative"] and payload["upward_ok"] and payload["downward_ok"]
        # Addition graphs of abelian groups always satisfy both exchange rules.
        return None if code == 0 and ok and payload["violations"] == [] else "addition graph not commutative"

    def _mag(self, job, code, payload):
        d = job.data
        tight = self._bottom(job, payload["tight_set"])
        ratio = oracle.fraction(payload["ratio"])
        if code != 0 or payload["level"] != 3 or not payload["witness_check"]:
            return "magnification failed"
        if oracle.image_size(tight, d["hb"], d["moduli"]) != ratio * len(tight):
            return "tight set does not attain the ratio"
        if ratio > len(d["hb"]) or ratio > Fraction(len(d["layers"][3]), len(d["layers"][0])):
            return "ratio above a singleton's or the whole layer's"
        return None

    def _partition(self, job, code, payload):
        d = job.data
        blocks = payload["blocks"]
        cover = [v for block in blocks for v in block]
        if sorted(cover) != list(range(len(d["layers"][0]))):
            return "blocks do not cover the bottom layer exactly once"
        if len(payload["ratios"]) != len(blocks):
            return "ratios do not match blocks"
        for k in payload["degenerate"]:
            if payload["ratios"][k] != [0, 1] or len(blocks[k]) != 1:
                return f"degenerate block {k} is not a ratio-0 singleton"
        first = self._bottom(job, blocks[0])
        if oracle.image_size(first, d["b"], d["moduli"]) != oracle.fraction(payload["ratios"][0]) * len(first):
            return "first block is not tight at its ratio"
        if (code == 0) != all(payload["checks"].values()):
            return "exit code disagrees with the partition checks"
        self._partitions[job.instance] = payload
        return None

    def _bounds(self, job, code, payload):
        d = job.data
        layers = d["layers"]
        counts = (payload["h"], payload["m"], payload["ab"], payload["hb"], payload["observed"])
        if counts != (3, len(layers[0]), len(layers[1]), len(d["hb"]), len(layers[3])):
            return "layer counts differ from oracle"
        if oracle.fraction(payload["alpha"]) != Fraction(len(layers[1]), len(layers[0])):
            return "alpha differs from |A+B| / |A|"
        if (code == 0) != all(row["ok"] is not False for row in payload["bounds"]):
            return "exit code disagrees with the bound verdicts"
        part = self._partitions.get(job.instance)
        if part is not None:
            live = [k for k in range(len(part["blocks"])) if k not in part["degenerate"]]
            if (payload["ratios"] != [part["ratios"][k] for k in live]
                    or payload["block_sizes"] != [len(part["blocks"][k]) for k in live]):
                return "bound report and partition disagree on blocks"
            if payload["alpha_1"] != part["ratios"][0]:
                return "alpha_1 differs from the first block ratio"
        return None


def _check_suite(code, text: str) -> str | None:
    lines = text.splitlines()
    found = [SUITE_LINE.match(line) for line in lines]
    if len(lines) != SUITE_CRITERIA or not all(found):
        return "suite output is not one line per criterion"
    if [int(m.group(1)) for m in found] != list(range(1, SUITE_CRITERIA + 1)):
        return "criteria out of order"
    failed = any(m.group(2) == "FAIL" for m in found)
    return None if code == int(failed) else "exit code disagrees with the criterion lines"
