"""Seeded input generators for every workload.

Everything here is a pure function of a ``random.Random`` the caller
seeds from ``--seed``: the same seed gives the same instances, change
batches and op order.  Instances are plain literal tuples plus what the
benchmark knows about them *by construction* (a planted model, or that
they are UNSAT because they contain a pigeonhole core), so the answer
checks in :mod:`ecbench.checks` never depend on the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cnf.packed import PackedCNF

SAT = "sat"
UNSAT = "unsat"


@dataclass
class Instance:
    """One CNF instance and what is known about it by construction.

    Attributes:
        clauses: literal tuples (the harness's own clause store).
        num_vars: variables ``1..num_vars`` are active.
        kind: ``"sat"`` (a planted model exists) or ``"unsat"`` (the
            instance contains a renamed pigeonhole core).
        witness: the planted model for ``"sat"`` instances.
    """

    clauses: list[tuple[int, ...]]
    num_vars: int
    kind: str
    witness: dict[int, bool] | None = None
    _payload: bytes | None = field(default=None, repr=False)

    @property
    def payload(self) -> bytes:
        """The packed-kernel wire bytes a client ships for this instance."""
        if self._payload is None:
            self._payload = PackedCNF.from_clauses(
                self.clauses, variables=range(1, self.num_vars + 1)
            ).to_bytes()
        return self._payload


def _satisfied(clause, model: dict[int, bool]) -> bool:
    return any((lit > 0) == model[abs(lit)] for lit in clause)


def random_model(rng: random.Random, num_vars: int) -> dict[int, bool]:
    """A uniformly random total assignment over ``1..num_vars``."""
    return {v: rng.random() < 0.5 for v in range(1, num_vars + 1)}


def clause_satisfied_by(
    rng: random.Random, variables: list[int], model: dict[int, bool], width: int = 3
) -> tuple[int, ...]:
    """A random ``width``-clause over *variables* that *model* satisfies."""
    while True:
        picked = rng.sample(variables, width)
        clause = tuple(v if rng.random() < 0.5 else -v for v in picked)
        if _satisfied(clause, model):
            return clause


def planted(rng: random.Random, num_vars: int, num_clauses: int) -> Instance:
    """Random 3-SAT with a planted model (satisfiable by construction)."""
    model = random_model(rng, num_vars)
    variables = list(range(1, num_vars + 1))
    clauses = [
        clause_satisfied_by(rng, variables, model) for _ in range(num_clauses)
    ]
    return Instance(clauses, num_vars, SAT, model)


def pigeonhole_clauses(holes: int) -> list[tuple[int, ...]]:
    """PHP(holes + 1, holes) over variables ``1..(holes + 1) * holes``."""
    pigeons = holes + 1

    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append((-var(p1, h), -var(p2, h)))
    return clauses


def _rename(rng: random.Random, clauses, targets: list[int]) -> list[tuple[int, ...]]:
    """Map variable ``i`` to ``targets[i - 1]`` with a random polarity flip
    per variable.  Satisfiability is unchanged; the fingerprint is new."""
    flips = [rng.random() < 0.5 for _ in targets]
    return [
        tuple(
            targets[abs(l) - 1] if (l > 0) != flips[abs(l) - 1]
            else -targets[abs(l) - 1]
            for l in clause
        )
        for clause in clauses
    ]


def renamed_pigeonhole(rng: random.Random, holes: int) -> Instance:
    """PHP(holes + 1, holes) with shuffled variables and flipped
    polarities: UNSAT by construction, a fresh fingerprint every call,
    and a real CDCL refutation."""
    num_vars = (holes + 1) * holes
    targets = list(range(1, num_vars + 1))
    rng.shuffle(targets)
    clauses = _rename(rng, pigeonhole_clauses(holes), targets)
    rng.shuffle(clauses)
    return Instance(clauses, num_vars, UNSAT)


def planted_with_core(
    rng: random.Random, num_vars: int, num_clauses: int, holes: int
) -> Instance:
    """A planted 3-SAT instance plus a pigeonhole core laid over some of
    its variables: UNSAT by construction, the same size class as the
    satisfiable instances beside it."""
    base = planted(rng, num_vars, num_clauses)
    core = pigeonhole_clauses(holes)
    targets = rng.sample(range(1, num_vars + 1), (holes + 1) * holes)
    clauses = base.clauses + _rename(rng, core, targets)
    rng.shuffle(clauses)
    return Instance(clauses, num_vars, UNSAT)
