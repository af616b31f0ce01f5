"""Answer checks the benchmark owns.

The program never vouches for its own answers here: a SAT model is
evaluated against the benchmark's copy of the clauses, UNSAT is accepted
only on instances that are UNSAT by construction, and a Preserving EC
answer must keep at least the share a model known to the benchmark
keeps.  Each check returns ``None`` when the answer is right and a short
reason string when it is not, so callers count failures per workload.
"""

from __future__ import annotations

from ecbench.inputs import SAT, UNSAT


def satisfies(clauses, literals) -> bool:
    """Whether the model given as signed *literals* satisfies every clause.

    A variable the model leaves out satisfies no literal, so a partial
    model passes only when every clause has a true assigned literal.
    """
    true = set(literals)
    if any(-lit in true for lit in true):
        return False
    return all(not true.isdisjoint(clause) for clause in clauses)


def check_verdict(kind: str, clauses, status: str, literals) -> str | None:
    """Check one solve answer against what is known by construction.

    Args:
        kind: ``"sat"`` (a planted model exists) or ``"unsat"`` (the
            instance holds a pigeonhole core).
        clauses: the benchmark's own copy of the instance.
        status: the verdict the program returned.
        literals: the returned model as signed literals, or None.
    """
    if status == SAT:
        if literals is None:
            return "sat without a model"
        if not satisfies(clauses, literals):
            return "model does not satisfy the instance"
        return None
    if status == UNSAT:
        if kind != UNSAT:
            return "unsat on an instance satisfiable by construction"
        return None
    return f"undecided ({status})"


def kept_share(prior: dict[int, bool], literals, active) -> float | None:
    """Share of *prior*'s values the new model keeps, over the active
    variables *prior* assigns; None when there is nothing to compare."""
    new = {abs(lit): lit > 0 for lit in literals}
    comparable = [v for v in active if v in prior]
    if not comparable:
        return None
    return sum(1 for v in comparable if new.get(v) is prior[v]) / len(comparable)


def check_preserving(answer_share: float, known_share: float) -> str | None:
    """A Preserving EC answer must keep at least what a known model keeps
    (the flow maximizes agreement exactly, so a lower share is wrong)."""
    if answer_share + 1e-9 < known_share:
        return (
            f"preserving EC kept {answer_share:.3f} < known model's "
            f"{known_share:.3f}"
        )
    return None
