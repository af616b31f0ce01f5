"""Self-test of the benchmark: ``python3 ecbench/selftest.py`` from the
root of a checkout (about a minute).

* every workload runs at a tiny size, untraced and traced, and prints
  exactly the metric names and units ``BENCHMARK.json`` declares;
* a corrupted answer (one flipped model bit) fed to each workload's
  checker is counted as failed, with no change to the program;
* two seeds give different inputs and the same metric set.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from repro.cnf.assignment import Assignment  # noqa: E402
from repro.service.requests import SolveResponse  # noqa: E402

from ecbench import checks, inputs, paper, run, serving  # noqa: E402


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


@contextlib.contextmanager
def _tiny():
    """Shrink every workload's inputs and set-up for a quick run."""
    saved = [
        (serving.HotHits, "setup_repeats", 1),
        (serving.HotHits, "working_set", 16),
        (serving._StreamWorkload, "setup_repeats", 1),
        (paper, "DESIGNS", 3),
    ]
    old = [(obj, name, getattr(obj, name)) for obj, name, _ in saved]
    for obj, name, value in saved:
        setattr(obj, name, value)
    try:
        yield
    finally:
        for obj, name, value in old:
            setattr(obj, name, value)


def _run(workload: str, seed: int, trace: int) -> dict:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with _tiny(), contextlib.redirect_stdout(out):
            code = run.main([
                "--workload", workload, "--seed", str(seed),
                "--seconds", "0.5", "--trace", str(trace),
            ])
    finally:
        os.chdir(cwd)
    assert code == 0, out.getvalue()
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _breaking_flip(clauses, literals) -> list[int]:
    """*literals* with one bit flipped so that some clause turns false."""
    true = set(literals)
    for clause in clauses:
        sole = [lit for lit in clause if lit in true]
        if len(sole) == 1:
            flipped = [-l if l == sole[0] else l for l in literals]
            assert not checks.satisfies(clauses, flipped)
            return flipped
    raise AssertionError("no single flip breaks this model")


class MetricContract(unittest.TestCase):
    """Tiny runs print exactly the declared metrics, and stay correct."""

    def test_every_workload_prints_declared_metrics(self):
        for workload in run.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = _run(workload, 3, trace)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"}
                    )
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, _declared(kind))
                    if kind == "end_to_end":
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_two_seeds_same_metric_set(self):
        a, b = _run("cold-solves", 4, 0), _run("cold-solves", 5, 0)
        self.assertEqual(set(a["metrics"]), set(b["metrics"]))


class CorruptedAnswers(unittest.TestCase):
    """A flipped model bit is a failed op in every checker."""

    def setUp(self):
        self.rng = random.Random(7)
        self.inst = inputs.planted(self.rng, 30, 120)
        self.good = [v if b else -v for v, b in self.inst.witness.items()]
        self.bad = _breaking_flip(self.inst.clauses, self.good)

    def _response(self, literals, source="cache"):
        return SolveResponse(
            "sat", assignment=Assignment.from_literals(literals), source=source
        )

    def test_verdict_check(self):
        self.assertIsNone(
            checks.check_verdict("sat", self.inst.clauses, "sat", self.good)
        )
        self.assertIsNotNone(
            checks.check_verdict("sat", self.inst.clauses, "sat", self.bad)
        )
        self.assertIsNotNone(
            checks.check_verdict("sat", self.inst.clauses, "unsat", None)
        )

    def test_hot_hits_checker(self):
        prefill = ("sat", self.inst.witness)
        check = serving.HotHits._check
        phase = serving.Phase()
        self.assertIsNone(check(self.inst, prefill, self._response(self.good), phase))
        self.assertIsNotNone(check(self.inst, prefill, self._response(self.bad), phase))
        self.assertIsNotNone(
            check(self.inst, prefill, self._response(self.good, source="cdcl"), phase),
            "a race is not a hit",
        )

    def test_stream_checkers(self):
        tenant = {"clauses": self.inst.clauses, "num_vars": 30, "prior": None}
        reason, _ = serving._SessionStream._check_model(
            tenant, self._response(self.bad)
        )
        self.assertIsNotNone(reason)
        reason, _ = serving._ColdStream._check(self.inst, self._response(self.bad))
        self.assertIsNotNone(reason)
        unsat = inputs.renamed_pigeonhole(self.rng, 3)
        reason, _ = serving._ColdStream._check(
            unsat, SolveResponse("unsat", source="cdcl")
        )
        self.assertIsNone(reason)
        reason, _ = serving._ColdStream._check(
            self.inst, SolveResponse("unsat", source="cdcl")
        )
        self.assertIsNotNone(reason, "unsat on a planted instance")

    def test_paper_checker(self):
        with _tiny():
            rng = random.Random(11)
            change = paper._Stream(rng, paper._setup(rng)).next_change()
        result = paper._run_flow(change)
        self.assertIsNone(paper._check(change, result)[0])
        literals = _breaking_flip(change.clauses, result.assignment.to_literals())
        result.assignment = Assignment.from_literals(literals)
        self.assertIsNotNone(paper._check(change, result)[0])


class Seeds(unittest.TestCase):
    """Different seeds give different inputs; the same seed the same."""

    def test_inputs_follow_the_seed(self):
        def draw(seed):
            rng = random.Random(seed)
            stream = serving._ColdStream(rng, serving.ColdSolves())
            return [stream.next_op().request.packed_bytes for _ in range(4)]

        self.assertEqual(draw(1), draw(1))
        self.assertNotEqual(draw(1), draw(2))
        with _tiny():
            a = paper._setup(random.Random(1))[0].instance.clauses
            b = paper._setup(random.Random(2))[0].instance.clauses
        self.assertNotEqual(a, b)


if __name__ == "__main__":
    unittest.main()
