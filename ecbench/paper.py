"""``paper-ec``: the paper's three flows, in process, single thread.

Set-up builds fresh planted designs and runs Enabling EC (Table 1,
objective mode) on each; its cost is ``setup_s``.  The measured phase
then walks a seeded stream of changes, each starting from its design's
enabled solution.  Ops take the designs in turn and alternate a Table-2
change (eliminate 3 variables, add 10 clauses) absorbed by Fast EC with
a Table-3 change (add and remove 5 variables and 5 clauses) absorbed by
Preserving EC.  Every op is a change drawn fresh, between ops and off
the clock, so a run averages over many changes and many designs: the
cost of these flows differs a lot from design to design.

The changes keep the design's planted model valid: eliminated variables
are ones whose every clause the planted model satisfies through another
literal, and added clauses are drawn satisfied by it.  So every changed
design is satisfiable by construction, and the planted model is the
"known model" a Preserving EC answer must keep at least as much as.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.core.enabling import EnablingOptions, enable_ec
from repro.core.fast import fast_ec
from repro.core.preserving import preserving_ec, resolve_oblivious
from repro.obs.tracing import Tracer

from ecbench import checks, inputs, layers
from ecbench.harness import (
    HostProbe,
    Outcome,
    mean,
    median,
    put_end_to_end,
    self_peak_rss_mb,
)

NUM_VARS = 10
NUM_CLAUSES = 25
DESIGNS = 384
#: Changes drawn per design at set-up to admit it: a design too tight
#: for the paper's changes is replaced before its Enabling EC runs.
TRIAL_CHANGES = 4


@dataclass
class Design:
    """A planted design and its Enabling EC solution."""

    instance: inputs.Instance
    formula: CNFFormula
    enabled: Assignment | None = None
    enable_s: float = 0.0


@dataclass
class Change:
    """One change of a design and what the benchmark knows about it."""

    design: Design
    flow: str                     # "fast" | "preserve"
    formula: CNFFormula           # the changed design handed to the flow
    clauses: list[tuple[int, ...]]  # the benchmark's copy of its clauses
    active: list[int]
    known: dict[int, bool]        # a model of the changed design
    known_share: float = 0.0      # share of the enabled solution it keeps


def _eliminable(clauses, model: dict[int, bool], order, count: int):
    """The first *count* variables of *order* whose elimination keeps
    *model* a model of *clauses*: every clause that loses a literal
    keeps another literal *model* makes true.  None if there are fewer."""
    clauses = list(clauses)
    chosen = []
    for var in order:
        stripped = [tuple(l for l in c if abs(l) != var) for c in clauses]
        if all(
            any((l > 0) == model[abs(l)] for l in c)
            for c, old in zip(stripped, clauses) if len(c) != len(old)
        ):
            clauses = stripped
            chosen.append(var)
            if len(chosen) == count:
                return chosen, clauses
    return None


def _change(rng: random.Random, design: Design, flow: str) -> Change | None:
    """Draw one change of *design*, or None if the design cannot take it.

    The planted model stays a model of the changed design: eliminated
    variables keep every clause true under it, fresh variables get a
    random value, and added clauses are drawn satisfied by it.
    """
    if flow == "fast":
        eliminate, add_clauses, add_vars, remove_clauses = 3, 10, 0, 0
    else:
        eliminate, add_clauses, add_vars, remove_clauses = 5, 5, 5, 5
    inst = design.instance
    formula = design.formula.copy()
    clauses = list(inst.clauses)
    for _ in range(remove_clauses):
        formula.remove_clause(clauses.pop(rng.randrange(len(clauses))))
    order = list(range(1, inst.num_vars + 1))
    rng.shuffle(order)
    picked = _eliminable(clauses, inst.witness, order, eliminate)
    if picked is None:
        return None
    removed, clauses = picked
    for var in removed:
        formula.remove_variable(var)
    model = {v: b for v, b in inst.witness.items() if v not in removed}
    for _ in range(add_vars):
        model[formula.add_variable()] = rng.random() < 0.5
    active = sorted(model)
    for _ in range(add_clauses):
        clause = inputs.clause_satisfied_by(rng, active, model)
        formula.add_clause(clause)
        clauses.append(clause)
    return Change(design, flow, formula, clauses, active, model)


def _draw(rng: random.Random, design: Design, flow: str) -> Change | None:
    """A change of *design* with the share its known model keeps, or
    None when 50 draws found none."""
    for _attempt in range(50):
        change = _change(rng, design, flow)
        if change is not None:
            change.known_share = checks.kept_share(
                design.enabled.as_dict(),
                [v if b else -v for v, b in change.known.items()],
                change.active,
            )
            return change
    return None


def _setup(rng: random.Random) -> list[Design]:
    """Planted designs that can take the paper's changes, each enabled."""
    designs = []
    while len(designs) < DESIGNS:
        inst = inputs.planted(rng, NUM_VARS, NUM_CLAUSES)
        design = Design(inst, CNFFormula(inst.clauses, num_vars=inst.num_vars))
        flows = ("fast", "preserve") * (TRIAL_CHANGES // 2)
        if any(_change(rng, design, flow) is None for flow in flows):
            continue          # too tight to take the paper's changes
        t0 = time.perf_counter()
        result = enable_ec(design.formula, EnablingOptions(mode="objective"))
        design.enable_s = time.perf_counter() - t0
        if result.assignment is None:
            raise RuntimeError("enabling EC found no solution")
        design.enabled = result.assignment
        designs.append(design)
    return designs


class _Stream:
    """Op *i* changes design ``i % DESIGNS``; each design alternates
    Fast EC and Preserving EC changes."""

    def __init__(self, rng: random.Random, designs: list[Design]):
        self.rng = rng
        self.designs = designs
        self.i = 0

    def next_change(self) -> Change:
        """The next change; a design that cannot take the change drawn
        for it (rare: its safe eliminations ran out) passes its turn."""
        for _turn in range(len(self.designs)):
            design = self.designs[self.i % len(self.designs)]
            flow = "fast" if (self.i // len(self.designs)) % 2 == 0 else "preserve"
            self.i += 1
            change = _draw(self.rng, design, flow)
            if change is not None:
                return change
        raise RuntimeError("no design can take the paper's changes")


def _run_flow(change: Change):
    if change.flow == "fast":
        return fast_ec(change.formula, change.design.enabled)
    return preserving_ec(change.formula, change.design.enabled)


def _check(change: Change, result) -> tuple[str | None, float | None]:
    """(failure reason or None, share of the enabled solution kept)."""
    if result.assignment is None:
        return "flow returned no solution on a satisfiable change", None
    literals = result.assignment.to_literals()
    if not checks.satisfies(change.clauses, literals):
        return f"{change.flow} EC answer does not satisfy the change", None
    share = checks.kept_share(
        change.design.enabled.as_dict(), literals, change.active
    )
    if change.flow == "preserve":
        reason = checks.check_preserving(share, change.known_share)
        if reason is not None:
            return reason, share
    return None, share


@dataclass
class Record:
    """One measured op (the flow's result itself is not kept)."""

    flow: str
    latency: float            # CPU seconds of the flow call
    share: float | None
    nodes: int
    lp_solves: int
    fell_back: bool = False
    sub_share: float = 0.0    # Fast EC sub-instance clauses / changed design's


def _measure(stream: _Stream, seconds: float, outcome: Outcome, tracer=None):
    """Run ops for *seconds* of measured time (flow calls and checks).

    An op's latency is the CPU time its flow call takes on this thread.
    The flows are pure computation in this thread, so that is their
    wall time on an idle CPU; wall time would add every preemption by
    other processes on the host, which lands in the tail percentiles.
    The measured time (and so ``ops_per_s``) stays wall time.

    Returns the per-op records and the measured time.
    """
    records = []
    busy = 0.0
    while busy < seconds:
        change = stream.next_change()
        span = tracer.begin(f"core.{change.flow}_ec") if tracer else None
        t0 = time.perf_counter()
        c0 = time.thread_time()
        result = _run_flow(change)
        latency = time.thread_time() - c0
        if span is not None:
            tracer.finish(span)
        reason, share = _check(change, result)
        busy += time.perf_counter() - t0
        outcome.attempted += 1
        if reason is not None:
            outcome.fail(reason)
        record = Record(
            change.flow, latency, share,
            result.stats.nodes, result.stats.lp_solves,
        )
        if change.flow == "fast":
            record.fell_back = result.fell_back
            record.sub_share = (
                result.instance.num_clauses / change.formula.num_clauses
            )
        records.append(record)
    return records, busy


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    probe = HostProbe()
    probe.sample()
    rng = random.Random(seed)
    t0 = time.perf_counter()
    designs = _setup(rng)
    setup_s = time.perf_counter() - t0
    for design in designs:
        if not checks.satisfies(
            design.instance.clauses, design.enabled.to_literals()
        ):
            outcome.fail("enabled solution does not satisfy its design")
    stream = _Stream(rng, designs)
    probe.sample()
    records, busy = _measure(stream, seconds, outcome)
    probe.sample()
    outcome.notes.append(
        f"{DESIGNS} designs of {NUM_VARS} vars/{NUM_CLAUSES} clauses, "
        f"{len(records)} ops"
    )
    if not trace:
        outcome.notes.append(
            f"host.probe_ms={probe.value:.3f} (n={len(probe.samples)})"
        )
        put_end_to_end(
            outcome, [setup_s], len(records), busy,
            [r.latency * 1e3 for r in records], self_peak_rss_mb(),
            [r.share for r in records if r.share is not None],
        )
        return outcome
    untraced = len(records) / busy
    tracer = Tracer(service="ecbench", sample=1.0, ring=1_000_000)
    records, busy = _measure(stream, seconds, outcome, tracer)
    # Table 3's baseline: the oblivious re-solve on one change per design.
    oblivious = []
    baseline_rng = random.Random(f"{seed}-oblivious")
    for design in designs:
        change = _draw(baseline_rng, design, "preserve")
        if change is None:
            continue
        base = resolve_oblivious(change.formula, design.enabled)
        if base.assignment is None:
            outcome.fail("oblivious re-solve found no solution")
        else:
            oblivious.append(base.preserved_fraction)
    probe.sample()
    fast = [r for r in records if r.flow == "fast"]
    spans = layers.self_times(tracer.spans())
    values = layers.in_process([d.instance for d in designs[:64]], outcome)
    layers.finish(outcome, {
        **values,
        "core.enable_ms": 1e3 * median([d.enable_s for d in designs]),
        "core.fast_ms": median(spans.get("core.fast_ec", [])),
        "core.preserve_ms": median(spans.get("core.preserve_ec", [])),
        "core.fast_sub_pct": 100.0 * mean([r.sub_share for r in fast]),
        "core.fast_fallbacks": sum(1 for r in fast if r.fell_back),
        "core.oblivious_pct": 100.0 * mean(oblivious),
        "ilp.nodes_per_call": mean([r.nodes for r in records]),
        "ilp.lp_solves_per_call": mean([r.lp_solves for r in records]),
        "obs.trace_overhead_pct": layers.overhead_pct(untraced, len(records) / busy),
        "host.probe_ms": probe.value,
    }, samples={
        "core.fast_ms": len(spans.get("core.fast_ec", [])),
        "core.preserve_ms": len(spans.get("core.preserve_ec", [])),
        "core.oblivious_pct": len(oblivious),
        "host.probe_ms": len(probe.samples),
    })
    return outcome
