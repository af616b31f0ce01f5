"""The serving workloads: ``hot-hits``, ``ec-sessions``, ``cold-solves``.

Each run boots the program from its CLI (``repro serve --tcp`` and, for
``hot-hits``, ``repro route`` in front of it), drives a closed loop
through the wire client, checks every answer with :mod:`ecbench.checks`,
and stops every process it started.  Engine counters come from the
node's ``stats`` op before and after the measured phase; the pool's
leak counter from its ``health`` op.

``ec-sessions`` and ``cold-solves`` draw their next op from a seeded
stream between requests.  That drawing is kept off the clock: their
measured time is the time spent in requests and answer checks.
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.cnf.clause import Clause
from repro.core.change import AddClause, AddVariable, ChangeSet, RemoveClause
from repro.obs.tracing import Tracer
from repro.service.client import ServiceClient
from repro.service.requests import ChangeRequest, SolveRequest

from ecbench import checks, inputs, layers
from ecbench.harness import (
    Daemon,
    HostProbe,
    Outcome,
    children_peak_rss_mb,
    put_end_to_end,
)

SERVE_MARKER = "repro serve: listening on "
ROUTE_MARKER = "repro route: listening on "
CLIENT_TIMEOUT = 30.0


class Cluster:
    """One ``repro serve`` node, optionally behind a ``repro route``."""

    def __init__(
        self, workdir: str, *, routed: bool, trace: bool,
        cpus: set[int] | None = None,
    ):
        self.trace_logs: list[str] = []
        node_args = ["serve", "--tcp", "127.0.0.1:0"]
        if trace:
            node_args += self._trace_args(workdir, "node")
        self.node = Daemon(node_args, workdir, "node", SERVE_MARKER, cpus)
        self.router = None
        try:
            if routed:
                route_args = [
                    "route", "--listen", "tcp://127.0.0.1:0",
                    "--node", self.node.address,
                ]
                if trace:
                    route_args += self._trace_args(workdir, "router")
                self.router = Daemon(route_args, workdir, "router", ROUTE_MARKER)
            self.admin = ServiceClient(self.node.address, timeout=CLIENT_TIMEOUT)
        except BaseException:
            self.stop()
            raise
        self.entry = self.router.address if routed else self.node.address

    def _trace_args(self, workdir: str, name: str) -> list[str]:
        path = os.path.join(workdir, f"{name}-trace.jsonl")
        self.trace_logs.append(path)
        return ["--trace-log", path, "--trace-sample", "0"]

    def client(self, tracer: Tracer | None = None) -> ServiceClient:
        return ServiceClient(self.entry, timeout=CLIENT_TIMEOUT, tracer=tracer)

    def counters(self) -> dict:
        """Node engine counters, service error count, pool health, and
        router counters (routed clusters) at one moment."""
        stats = self.admin.stats()
        health = self.admin.health()
        snap = dict(stats["engine"])
        snap["errors"] = stats["metrics"]["counters"].get("errors", 0)
        pool = health["engine"]["pool"]
        snap["pool_generation"] = pool["generation"]
        snap["pool_alive"] = int(pool["pool_alive"])
        snap["leaked"] = pool["leaked"]
        snap["failovers"] = 0
        if self.router is not None:
            with ServiceClient(self.router.address, timeout=CLIENT_TIMEOUT) as c:
                snap["failovers"] = c.cluster_health()["router"].get("failovers", 0)
        return snap

    def stop(self) -> int:
        """Stop router then node; returns the stragglers killed."""
        admin = getattr(self, "admin", None)
        if admin is not None:
            admin.close()
        stragglers = 0
        if self.router is not None:
            stragglers += self.router.stop()
        return stragglers + self.node.stop()


@dataclass
class Phase:
    """What one measured phase recorded."""

    ops: int = 0
    elapsed: float = 0.0
    latencies: list[float] = field(default_factory=list)
    by_kind: dict = field(default_factory=dict)
    shares: list[float] = field(default_factory=list)
    sources: Counter = field(default_factory=Counter)
    changes: int = 0
    retried: int = 0
    #: (request, response) pairs kept for the in-process codec timings.
    samples: list = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def record(self, kind: str, latency: float) -> None:
        self.ops += 1
        self.latencies.append(latency)
        self.by_kind.setdefault(kind, []).append(latency)

    def merge(self, other: "Phase") -> None:
        """Fold another connection's records into this one."""
        self.ops += other.ops
        self.latencies += other.latencies
        for kind, values in other.by_kind.items():
            self.by_kind.setdefault(kind, []).extend(values)
        self.shares += other.shares
        self.sources.update(other.sources)
        self.samples += other.samples
        self.failures += other.failures


def _literals(response):
    if response.assignment is None:
        return None
    return response.assignment.to_literals()


# ----------------------------------------------------------------------
# hot-hits
# ----------------------------------------------------------------------
class HotHits:
    """Stateless packed solves of a prefilled working set, via the router."""

    routed = True
    setup_repeats = 3
    pinned = False            # router and node overlap across both CPUs
    connections = 2
    working_set = 128
    unsat_every = 8          # one instance in eight is UNSAT by construction
    num_vars, num_clauses, holes = 60, 250, 4

    def setup(self, cluster: Cluster, seed: int, outcome: Outcome):
        rng = random.Random(seed)
        instances = []
        for i in range(self.working_set):
            if i % self.unsat_every == self.unsat_every - 1:
                inst = inputs.planted_with_core(
                    rng, self.num_vars, self.num_clauses, self.holes
                )
            else:
                inst = inputs.planted(rng, self.num_vars, self.num_clauses)
            instances.append(inst)
        requests = [SolveRequest(packed_bytes=inst.payload) for inst in instances]
        prefill = []
        with cluster.client() as client:
            for inst, request in zip(instances, requests):
                outcome.attempted += 1
                response = client.solve(request)
                literals = _literals(response)
                reason = checks.check_verdict(
                    inst.kind, inst.clauses, response.status, literals
                )
                if reason is not None:
                    outcome.fail(f"prefill: {reason}")
                model = {abs(l): l > 0 for l in literals or ()}
                prefill.append((response.status, model))
        return {"rng": rng, "instances": instances, "requests": requests,
                "prefill": prefill}

    def measure(self, cluster, state, seconds, outcome, tracer=None) -> Phase:
        phase = Phase()
        lock = threading.Lock()
        instances, requests = state["instances"], state["requests"]
        prefill = state["prefill"]
        seeds = [state["rng"].getrandbits(32) for _ in range(self.connections)]
        clients = [cluster.client(tracer) for _ in range(self.connections)]
        deadline = time.perf_counter() + seconds

        def loop(client: ServiceClient, rng: random.Random, own: range) -> None:
            # Each answer is checked as it arrives, outside the timed
            # region, and dropped: holding thousands of responses would
            # make this process's garbage collector pause the loop.
            mine = Phase()
            while time.perf_counter() < deadline:
                i = rng.choice(own)
                t0 = time.perf_counter()
                try:
                    response = client.solve(requests[i])
                except Exception as exc:  # counted, the loop keeps going
                    mine.record("solve", time.perf_counter() - t0)
                    mine.failures.append(repr(exc))
                    continue
                mine.record("solve", time.perf_counter() - t0)
                reason = self._check(instances[i], prefill[i], response, mine)
                if reason is not None:
                    mine.failures.append(reason)
                if len(mine.samples) < 32:
                    mine.samples.append((requests[i], response))
            with lock:
                phase.merge(mine)

        start = time.perf_counter()
        # Each connection owns its own slice of the working set, so two
        # in-flight requests never share a fingerprint (they would
        # coalesce into an inflight-join instead of two cache hits).
        threads = [
            threading.Thread(
                target=loop,
                args=(c, random.Random(s),
                      range(k, len(instances), self.connections)),
            )
            for k, (c, s) in enumerate(zip(clients, seeds))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        phase.elapsed = time.perf_counter() - start
        for client in clients:
            phase.retried += client.retried
            client.close()
        outcome.attempted += phase.ops
        for reason in phase.failures:
            outcome.fail(reason)
        return phase

    @staticmethod
    def _check(inst, prefill, response, phase) -> str | None:
        """Right verdict, from the cache, and the same as the prefill's."""
        verdict, model = prefill
        phase.sources[response.source] += 1
        literals = _literals(response)
        reason = checks.check_verdict(
            inst.kind, inst.clauses, response.status, literals
        )
        if reason is None and response.status != verdict:
            reason = f"verdict {response.status} != prefill {verdict}"
        if reason is None and response.source != "cache":
            reason = f"answered by {response.source!r}, not the cache"
        if reason is None and literals is not None:
            phase.shares.append(checks.kept_share(model, literals, model))
        return reason

    def layer_instances(self, state) -> list:
        return state["instances"][:64]


# ----------------------------------------------------------------------
# one-connection streams: ec-sessions, cold-solves
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One request of a stream and how to check its answer."""

    kind: str
    request: object
    check: object            # callable(response) -> (reason, share)


class _StreamWorkload:
    """Closed loop over one direct connection, ops drawn off the clock."""

    routed = False
    setup_repeats = 5         # set-up is one process boot: repeat it more
    #: The loop is serial: one request in flight, so client and node
    #: never run at once.  Sharing one CPU spares every op two cross-CPU
    #: wake-ups, whose cost swung ops/s by half between runs.
    pinned = True

    def measure(self, cluster, state, seconds, outcome, tracer=None) -> Phase:
        phase = Phase()
        stream = state["stream"]
        busy = 0.0
        with cluster.client(tracer) as client:
            while busy < seconds:
                op = stream.next_op()
                t0 = time.perf_counter()
                try:
                    response = self._send(client, op)
                except Exception as exc:  # counted, the loop keeps going
                    latency = time.perf_counter() - t0
                    outcome.attempted += 1
                    outcome.fail(f"{op.kind}: {exc!r}")
                    phase.record(op.kind, latency)
                    busy += latency
                    stream.failed(op)
                    continue
                latency = time.perf_counter() - t0
                reason, share = op.check(response)
                busy += time.perf_counter() - t0
                outcome.attempted += 1
                phase.record(op.kind, latency)
                if reason is not None:
                    outcome.fail(f"{op.kind}: {reason}")
                if share is not None:
                    phase.shares.append(share)
                source = getattr(response, "source", None)
                if source is not None:
                    phase.sources[source] += 1
                if op.kind in stream.change_kinds:
                    phase.changes += 1
                    phase.sources["change:" + source] += 1
                if len(phase.samples) < 64 and not isinstance(response, bool):
                    phase.samples.append((op.request, response))
            phase.retried = client.retried
        phase.elapsed = busy
        return phase

    @staticmethod
    def _send(client: ServiceClient, op: Op):
        if op.kind == "close":
            return client.close_session(op.request)
        if isinstance(op.request, ChangeRequest):
            return client.change(op.request)
        return client.solve(op.request)


class _SessionStream:
    """Interleaved tenants' sessions: open, a fixed change pattern, close,
    then reopen as the next generation over a fresh design."""

    #: One generation's op kinds after the open; each tenant walks it.
    PATTERN = (
        "tighten", "loosen-remove", "tighten", "requery", "tighten",
        "loosen-add-var", "force", "tighten", "loosen-remove", "tighten",
        "requery", "force",
    )
    change_kinds = ("tighten", "loosen-remove", "loosen-add-var", "force")

    def __init__(self, rng: random.Random, workload: "ECSessions"):
        self.rng = rng
        self.w = workload
        self.seen: list = []
        self.tenants = [
            {"id": t, "gen": 0, "step": None} for t in range(workload.tenants)
        ]
        self.turn = 0

    def next_op(self) -> Op:
        tenant = self.tenants[self.turn]
        self.turn = (self.turn + 1) % len(self.tenants)
        step = tenant["step"]
        if step is None:
            return self._open(tenant)
        if step == len(self.PATTERN):
            tenant["step"] = None
            tenant["gen"] += 1
            return Op("close", tenant["name"], self._check_close)
        tenant["step"] += 1
        kind = self.PATTERN[step]
        if kind == "requery":
            request = SolveRequest(session=tenant["name"], seed=0)
            return Op(kind, request, lambda r, t=tenant: self._check_model(t, r))
        if kind == "loosen-remove":
            index = self.rng.randrange(len(tenant["clauses"]))
            clause = tenant["clauses"].pop(index)
            changes = ChangeSet([RemoveClause(Clause(clause))])
        elif kind == "loosen-add-var":
            tenant["num_vars"] += 1
            tenant["witness"][tenant["num_vars"]] = self.rng.random() < 0.5
            changes = ChangeSet([AddVariable()])
        else:
            added = self._tighten(tenant, 1 if kind == "force" else 2)
            changes = ChangeSet([AddClause(Clause(c)) for c in added])
        request = ChangeRequest(
            tenant["name"], changes, seed=0,
            ec_mode="force" if kind == "force" else "auto",
        )
        return Op(kind, request, lambda r, t=tenant: self._check_model(t, r))

    def failed(self, op: Op) -> None:
        """A transport failure leaves the session state unknown: retire
        every tenant's generation so the stream restarts from opens."""
        for tenant in self.tenants:
            if tenant["step"] is not None:
                tenant["step"] = None
                tenant["gen"] += 1

    def _open(self, tenant) -> Op:
        design = inputs.planted(self.rng, self.w.num_vars, self.w.num_clauses)
        if len(self.seen) < 64:
            self.seen.append(design)
        tenant.update(
            name=f"tenant{tenant['id']}-gen{tenant['gen']}",
            clauses=list(design.clauses),
            num_vars=design.num_vars,
            witness=dict(design.witness),
            prior=None,
            step=0,
        )
        request = SolveRequest(
            packed_bytes=design.payload, session=tenant["name"], seed=0
        )
        return Op("open", request, lambda r, t=tenant: self._check_model(t, r))

    def _tighten(self, tenant, count: int):
        variables = list(range(1, tenant["num_vars"] + 1))
        added = [
            inputs.clause_satisfied_by(self.rng, variables, tenant["witness"])
            for _ in range(count)
        ]
        tenant["clauses"].extend(added)
        return added

    @staticmethod
    def _check_model(tenant, response):
        literals = _literals(response)
        reason = checks.check_verdict(
            inputs.SAT, tenant["clauses"], response.status, literals
        )
        if reason is not None:
            return reason, None
        share = None
        if tenant["prior"] is not None:
            share = checks.kept_share(
                tenant["prior"], literals, range(1, tenant["num_vars"] + 1)
            )
        tenant["prior"] = {abs(l): l > 0 for l in literals}
        return None, share

    @staticmethod
    def _check_close(existed):
        return (None if existed else "session was gone before close"), None


class ECSessions(_StreamWorkload):
    """Many tenants' EC sessions interleaved on one connection."""

    tenants = 8
    num_vars, num_clauses = 60, 240

    def setup(self, cluster: Cluster, seed: int, outcome: Outcome):
        return {"stream": _SessionStream(random.Random(seed), self)}

    def layer_instances(self, state) -> list:
        return state["stream"].seen


class _ColdStream:
    """Distinct stateless instances: planted 3-SAT and renamed pigeonhole."""

    PATTERN = (inputs.SAT, inputs.SAT, inputs.SAT, inputs.UNSAT)
    change_kinds = ()

    def __init__(self, rng: random.Random, workload: "ColdSolves"):
        self.rng = rng
        self.w = workload
        self.i = 0
        self.seen: list = []

    def next_op(self) -> Op:
        kind = self.PATTERN[self.i % len(self.PATTERN)]
        self.i += 1
        if kind == inputs.SAT:
            inst = inputs.planted(self.rng, self.w.num_vars, self.w.num_clauses)
        else:
            inst = inputs.renamed_pigeonhole(self.rng, self.w.holes)
        if len(self.seen) < 64:
            self.seen.append(inst)
        request = SolveRequest(packed_bytes=inst.payload)
        return Op(kind, request, lambda r, inst=inst: self._check(inst, r))

    def failed(self, op: Op) -> None:
        pass

    @staticmethod
    def _check(inst, response):
        literals = _literals(response)
        reason = checks.check_verdict(
            inst.kind, inst.clauses, response.status, literals
        )
        share = None
        if reason is None and literals is not None:
            share = checks.kept_share(inst.witness, literals, inst.witness)
        return reason, share


class ColdSolves(_StreamWorkload):
    """Every request a distinct instance: a cache miss and a cache write."""

    num_vars, num_clauses, holes = 60, 256, 4

    def setup(self, cluster: Cluster, seed: int, outcome: Outcome):
        return {"stream": _ColdStream(random.Random(seed), self)}

    def layer_instances(self, state) -> list:
        return state["stream"].seen


WORKLOADS = {
    "hot-hits": HotHits,
    "ec-sessions": ECSessions,
    "cold-solves": ColdSolves,
}


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def _delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before[k] for k in after if isinstance(after[k], (int, float))}


def _check_counters(delta: dict, after: dict, outcome: Outcome) -> None:
    """Engine accounting invariant on the phase's deltas, and no leaks."""
    answered = (
        delta["cache_hits"] + delta["revalidations"] + delta["races"]
        + delta["batch_dedups"] + delta["inflight_joins"]
    )
    delta["invariant"] = int(delta["solves"] == answered)
    if not delta["invariant"]:
        outcome.fail(
            f"engine invariant broken: solves {delta['solves']} != {answered}"
        )
    if after["leaked"]:
        outcome.fail(f"pool leaked {after['leaked']} workers")


def _phase(workload, cluster, state, seconds, outcome, tracer=None):
    before = cluster.counters()
    phase = workload.measure(cluster, state, seconds, outcome, tracer)
    after = cluster.counters()
    delta = _delta(before, after)
    # A start is the pool coming up, or any rebuild (a bumped generation).
    delta["pool_starts"] = max(0, delta["pool_alive"]) + delta["pool_generation"]
    _check_counters(delta, after, outcome)
    return phase, delta


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    workload = WORKLOADS[name]()
    outcome = Outcome()
    probe = HostProbe()
    probe.sample()
    setups: list[float] = []
    stragglers = 0
    cluster = None
    cpus = None
    if workload.pinned:
        cpus = {min(os.sched_getaffinity(0))}
        os.sched_setaffinity(0, cpus)
    try:
        for i in range(workload.setup_repeats):
            t0 = time.perf_counter()
            cluster = Cluster(
                workdir, routed=workload.routed, trace=trace, cpus=cpus
            )
            state = workload.setup(cluster, seed, outcome)
            setups.append(time.perf_counter() - t0)
            if i < workload.setup_repeats - 1:
                stragglers += cluster.stop()
                cluster = None
        probe.sample()
        phase, delta = _phase(workload, cluster, state, seconds, outcome)
        probe.sample()
        traced = traced_delta = None
        if trace:
            tracer = Tracer(service="ecbench-client", sample=1.0, ring=1_000_000)
            traced, traced_delta = _phase(
                workload, cluster, state, seconds, outcome, tracer
            )
            probe.sample()
    finally:
        if cluster is not None:
            stragglers += cluster.stop()
    if stragglers:
        outcome.fail(f"{stragglers} straggling process groups killed")
    outcome.notes.append(
        f"stragglers={stragglers} races={delta['races']} "
        f"solver_calls={delta['solver_calls']} hits={delta['cache_hits']} "
        f"solves={delta['solves']} pool_starts={delta['pool_starts']} "
        f"leaked={delta['leaked']} "
        f"invariant={'held' if delta['invariant'] else 'BROKEN'}"
    )
    if not trace:
        outcome.notes.append(
            f"host.probe_ms={probe.value:.3f} (n={len(probe.samples)})"
        )
        put_end_to_end(
            outcome, setups, phase.ops, phase.elapsed,
            [x * 1e3 for x in phase.latencies], children_peak_rss_mb(),
            phase.shares,
        )
    else:
        layers.serving(
            outcome, workload, state, phase, traced, traced_delta,
            tracer, cluster.trace_logs, probe,
        )
    return outcome
