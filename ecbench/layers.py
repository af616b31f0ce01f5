"""Per-layer metrics for the traced run (``--trace 1``).

Every traced run prints the same metric set, :data:`PER_LAYER`.  A layer
a workload does not exercise reports 0: ``core.*`` and ``ilp.*`` are
non-zero only on ``paper-ec``, and the span and counter metrics of the
serving layers are zero there.

Span self time is a span's duration minus the part of it its child
spans cover.  Spans come from the benchmark's own client tracer and from
the ``--trace-log`` files of the node and router, joined on span ids;
all three use the host's monotonic clock.  Steps the spans lump
together (materialize, fingerprint, model check, codec, raw CDCL) are
timed in process on the workload's own inputs through the layer's
public function.
"""

from __future__ import annotations

import json
import time

from repro.cnf.assignment import Assignment
from repro.cnf.packed import PackedCNF
from repro.engine.config import EngineConfig
from repro.engine.fingerprint import fingerprint_v2
from repro.obs.tracing import load_spans
from repro.sat.cdcl import cdcl_solve_packed
from repro.service.requests import ChangeRequest, SolveRequest
from repro.service.service import SolverService
from repro.service.wire import (
    change_request_to_wire,
    response_from_wire,
    response_to_wire,
    solve_request_to_wire,
)

from ecbench.harness import mean, median, timed_median
from ecbench.inputs import SAT, UNSAT

#: (name, unit) of every per-layer metric, in print order.
PER_LAYER = (
    ("client.self_ms", "ms"),
    ("client.retries", "count"),
    ("wire.request_bytes", "B"),
    ("wire.response_bytes", "B"),
    ("wire.codec_us", "us"),
    ("router.hop_self_ms", "ms"),
    ("router.failovers", "count"),
    ("daemon.solve_self_ms", "ms"),
    ("daemon.change_self_ms", "ms"),
    ("service.materialize_us", "us"),
    ("service.hit_us", "us"),
    ("service.errors", "count"),
    ("engine.fingerprint_us", "us"),
    ("engine.model_check_us", "us"),
    ("engine.hit_pct", "%"),
    ("engine.races", "count"),
    ("engine.solve_self_ms", "ms"),
    ("engine.invariant", "bool"),
    ("session.revalidated_pct", "%"),
    ("session.solver_calls_per_change", "calls/change"),
    ("session.tighten_ms", "ms"),
    ("session.loosen_ms", "ms"),
    ("portfolio.calls_per_race", "calls/race"),
    ("portfolio.escape_pct", "%"),
    ("portfolio.pool_wait_ms", "ms"),
    ("portfolio.pool_starts", "count"),
    ("portfolio.leaked", "count"),
    ("cdcl.sat_ms", "ms"),
    ("cdcl.unsat_ms", "ms"),
    ("cdcl.conflicts_per_solve", "count/solve"),
    ("cdcl.propagations_per_solve", "count/solve"),
    ("core.enable_ms", "ms"),
    ("core.fast_ms", "ms"),
    ("core.preserve_ms", "ms"),
    ("core.fast_sub_pct", "%"),
    ("core.fast_fallbacks", "count"),
    ("core.oblivious_pct", "%"),
    ("ilp.nodes_per_call", "count/call"),
    ("ilp.lp_solves_per_call", "count/call"),
    ("obs.trace_overhead_pct", "%"),
    ("host.probe_ms", "ms"),
)


def finish(outcome, values: dict, samples: dict | None = None) -> None:
    """Put every per-layer metric on *outcome*; absent layers read 0."""
    unknown = set(values) - {name for name, _unit in PER_LAYER}
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    samples = samples or {}
    for name, unit in PER_LAYER:
        outcome.put(name, values.get(name, 0.0), unit, samples.get(name))


def overhead_pct(untraced_ops: float, traced_ops: float) -> float:
    """Throughput lost to tracing, as a share of the untraced rate."""
    return 100.0 * (untraced_ops - traced_ops) / untraced_ops


def self_times(spans) -> dict[str, list[float]]:
    """Span name -> self times (ms): duration minus the union of the
    children's intervals, clipped to the span."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent:
            start = span["start"]
            children.setdefault(parent, []).append((start, start + span["dur"]))
    out: dict[str, list[float]] = {}
    for span in spans:
        lo, hi = span["start"], span["start"] + span["dur"]
        covered, reach = 0.0, lo
        for a, b in sorted(children.get(span["span"], ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out.setdefault(span["name"], []).append(
            max(0.0, span["dur"] - covered) * 1e3
        )
    return out


def _frame_bytes(header: dict, payload: bytes = b"") -> int:
    return 8 + len(json.dumps(header, separators=(",", ":"))) + len(payload)


def _encode(request):
    if isinstance(request, ChangeRequest):
        return change_request_to_wire(request), b""
    return solve_request_to_wire(request)


def _codec(pair) -> None:
    request, raw = pair
    header, _payload = _encode(request)
    json.dumps(header, separators=(",", ":"))
    response_from_wire(json.loads(raw))


def wire_layer(samples) -> dict:
    """Frame sizes and codec time over the sampled (request, response)
    pairs of the traced phase."""
    if not samples:
        return {}
    pairs = [
        (request, json.dumps(response_to_wire(response), separators=(",", ":")))
        for request, response in samples
    ]
    return {
        "wire.request_bytes": mean([_frame_bytes(*_encode(r)) for r, _ in pairs]),
        "wire.response_bytes": mean([8 + len(raw) for _, raw in pairs]),
        "wire.codec_us": 1e6 * timed_median(_codec, pairs, repeat=3),
    }


def in_process(instances, outcome) -> dict:
    """Materialize, fingerprint, model check, in-process cache hit and
    raw CDCL, timed on the workload's own instances."""
    if not instances:
        return {}
    payloads = [inst.payload for inst in instances]
    values = {
        "service.materialize_us": 1e6 * timed_median(
            lambda b: PackedCNF.from_bytes(b).to_formula(), payloads, repeat=3
        ),
        # Fresh formulas each time: fp-v2 caches its digests on the kernel.
        "engine.fingerprint_us": 1e6 * median([
            _timed(fingerprint_v2, PackedCNF.from_bytes(b).to_formula())
            for b in payloads for _ in range(3)
        ]),
    }
    models = [
        (PackedCNF.from_bytes(inst.payload).to_formula(), Assignment(inst.witness))
        for inst in instances if inst.witness is not None
    ]
    if models:
        values["engine.model_check_us"] = 1e6 * timed_median(
            lambda fm: fm[0].is_satisfied(fm[1]), models, repeat=3
        )
    requests = [SolveRequest(packed_bytes=b) for b in payloads]
    with SolverService(EngineConfig(jobs=1)) as service:
        for request in requests:
            service.solve(request)
        values["service.hit_us"] = 1e6 * timed_median(
            service.solve, requests, repeat=3
        )
    for kind, name in ((SAT, "cdcl.sat_ms"), (UNSAT, "cdcl.unsat_ms")):
        packed = [
            PackedCNF.from_bytes(inst.payload)
            for inst in instances if inst.kind == kind
        ]
        if not packed:
            continue
        values[name] = 1e3 * median(
            [_timed(cdcl_solve_packed, p, seed=0) for p in packed]
        )
        for p in packed:
            verdict = cdcl_solve_packed(p, seed=0).satisfiable
            if verdict is not (kind == SAT):
                outcome.fail(f"raw CDCL said {verdict} on a {kind} instance")
    return values


def _timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def serving(outcome, workload, state, phase, traced, delta, tracer,
            trace_logs, probe) -> None:
    """Per-layer metrics of a serving workload's traced run."""
    logged = load_spans(trace_logs)
    spans = self_times(list(tracer.spans()) + logged)
    client = [
        t for n, ts in spans.items() if n.startswith("client.") for t in ts
    ]
    quick = [s for s in logged if s["name"] == "quick_slice"]
    escaped = sum(
        1 for s in quick if s.get("tags", {}).get("status") not in ("sat", "unsat")
    )
    races = delta["races"]
    values = {
        "client.self_ms": median(client),
        "client.retries": traced.retried,
        "router.hop_self_ms": median(spans.get("router.forward", [])),
        "router.failovers": delta["failovers"],
        "daemon.solve_self_ms": median(spans.get("daemon.solve", [])),
        "daemon.change_self_ms": median(spans.get("daemon.change", [])),
        "service.errors": delta["errors"],
        "engine.hit_pct": 100.0 * delta["cache_hits"] / max(1, delta["solves"]),
        "engine.races": races,
        "engine.solve_self_ms": median(spans.get("engine.solve", [])),
        "engine.invariant": delta["invariant"],
        "portfolio.calls_per_race": delta["solver_calls"] / races if races else 0.0,
        "portfolio.escape_pct": 100.0 * escaped / len(quick) if quick else 0.0,
        "portfolio.pool_wait_ms": median(
            [s["dur"] * 1e3 for s in logged if s["name"] == "pool.wait"]
        ),
        "portfolio.pool_starts": delta["pool_starts"],
        "portfolio.leaked": delta["leaked"],
        "cdcl.conflicts_per_solve": delta["conflicts"] / races if races else 0.0,
        "cdcl.propagations_per_solve": delta["propagations"] / races if races else 0.0,
        "obs.trace_overhead_pct": overhead_pct(
            phase.ops / phase.elapsed, traced.ops / traced.elapsed
        ),
        "host.probe_ms": probe.value,
    }
    if traced.changes:
        changes = traced.changes
        values["session.revalidated_pct"] = 100.0 * sum(
            n for s, n in traced.sources.items() if s == "change:revalidation"
        ) / changes
        values["session.solver_calls_per_change"] = delta["solver_calls"] / changes
        values["session.tighten_ms"] = 1e3 * median(traced.by_kind.get("tighten", []))
        values["session.loosen_ms"] = 1e3 * median(
            traced.by_kind.get("loosen-remove", [])
            + traced.by_kind.get("loosen-add-var", [])
        )
    values.update(wire_layer(traced.samples))
    values.update(in_process(workload.layer_instances(state), outcome))
    finish(outcome, values, samples={
        "client.self_ms": len(client),
        "host.probe_ms": len(probe.samples),
    })
