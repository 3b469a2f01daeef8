"""The three benchmark workloads, each one user-sized job timed from outside.

A job only calls the library's public entry points: ``build_system``,
``bootstrap``, ``run_transaction`` and the JSON export for the two
simulation kernels; ``ServeSystem(...)``, ``up`` and
``run_transaction_async`` for the serve plane.  A simulation job is split into
fixed slices (set-up, each transaction, export) and returns each slice's
time on the normalized clock (see :func:`sim_rep`), together with
fingerprints of its outputs (set-up, each block of transactions, export),
so repetitions of one seed can be checked to do identical work.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from repro import HiRepConfig, build_system
from repro.core.semantics import TRUST_TRAFFIC_CATEGORIES
from repro.errors import ReproError
from repro.experiments.common import ExperimentResult, Series
from repro.experiments.export import result_to_json
from repro.net.churn import ChurnModel
from repro.serve.load import build_trace
from repro.serve.system import ServeSystem
from repro.workloads import PooledRequestorWorkload

from hibench.stats import host_slowdown

__all__ = [
    "MIN_REPS",
    "SERVE_OPEN",
    "SIM_ARRAY",
    "SIM_OBJECT",
    "ServeRun",
    "ServeSpec",
    "SimRep",
    "SimSpec",
    "export_outcomes",
    "normalize_latency",
    "open_loop",
    "serve_job",
    "sim_rep",
]

def export_outcomes(name: str, outcomes: Sequence[Any]) -> str:
    """The job's export: per-transaction outcomes as deterministic JSON."""
    index = [float(i) for i in range(len(outcomes))]
    result = ExperimentResult(
        experiment_id=name,
        title=f"{name} transaction outcomes",
        x_label="transaction",
        y_label="value",
        series=[
            Series("estimate", index, [o.estimate for o in outcomes]),
            Series("truth", index, [o.truth for o in outcomes]),
            Series("squared_error", index, [o.squared_error for o in outcomes]),
            Series("trust_messages", index, [float(o.trust_messages) for o in outcomes]),
            Series("answered", index, [float(o.answered) for o in outcomes]),
        ],
    )
    return result_to_json(result)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _counts(system: Any) -> tuple:
    counter = system.counter
    return (counter.total, tuple(sorted(counter.by_category.items())))


def _trust_traffic(system: Any) -> int:
    by_category = system.counter.by_category
    return sum(by_category.get(c, 0) for c in TRUST_TRAFFIC_CATEGORIES)


def _tx_print(o: Any) -> tuple:
    return (
        o.requestor,
        o.provider,
        o.estimate,
        o.truth,
        o.answered,
        o.asked,
        o.trust_messages,
        o.total_messages,
    )


def _retries(system: Any) -> tuple[int, int]:
    peers = getattr(system, "peers", None)
    if peers is None:  # the array kernel keeps no peer objects
        stats = system.retry_stats()
        return stats["retries_sent"], stats["queries_timed_out"]
    return (
        sum(p.retries_sent for p in peers),
        sum(p.queries_timed_out for p in peers),
    )


# ---------------------------------------------------------------------------
# Simulation kernels: closed loop, one transaction after the other.
# ---------------------------------------------------------------------------

#: Fewest same-seed repetitions a timed simulation run makes.
MIN_REPS = 4


@dataclass(frozen=True)
class SimSpec:
    """A closed-loop job on one simulation kernel."""

    name: str
    system: str
    network_size: int
    transactions: int
    block: int
    rep_s: float  # nominal wall seconds of one repetition; sizes the run
    population: dict[str, float] = field(default_factory=dict)
    churn: tuple[float, float] | None = None
    requestors: int | None = None  # pool size; None lets the kernel pick

    def config(self, seed: int) -> HiRepConfig:
        return HiRepConfig(network_size=self.network_size, seed=seed, **self.population)

    def repetitions(self, seconds: float) -> int:
        """How many same-seed repetitions a run of ``seconds`` makes.

        A function of the arguments only: a faster or slower host (or
        program) makes the same number, so the per-slice minimum is
        always taken over the same count of samples.
        """
        return max(MIN_REPS, int(seconds / self.rep_s))

    def pool(self, seed: int) -> list[int] | None:
        """The requestors transactions cycle through, drawn from the seed."""
        if self.requestors is None:
            return None
        rng = np.random.default_rng([seed, 0x9001])
        return PooledRequestorWorkload(self.network_size, rng, self.requestors).pool

    def build(self, seed: int) -> Any:
        opts: dict[str, Any] = {}
        if self.churn is not None:
            leave, rejoin = self.churn
            opts["churn"] = ChurnModel(leave, rejoin, protected=set(self.pool(seed) or ()))
        return build_system(self.system, self.config(seed), **opts)

    def tiny(self) -> "SimSpec":
        """The same job at a size that takes a fraction of a second."""
        return replace(self, network_size=80, transactions=200, block=10)


#: Fig. 6 population at the paper's scale with churn: eviction, backup
#: probes, onion rebuilds and re-discovery keep running between queries.
#: Requestors are a pool protected from churn: one fixed requestor makes
#: the job's cost that peer's neighbourhood, which moves tx/s by ±25 %
#: from seed to seed.
SIM_OBJECT = SimSpec(
    name="sim-object",
    system="hirep",
    network_size=1000,
    transactions=400,
    block=10,
    rep_s=6.0,
    population={"poor_agent_fraction": 0.1, "malicious_fraction": 0.1},
    churn=(0.02, 0.4),
    requestors=40,
)

#: The array kernel at twice the paper's scale, honest Table-1 population,
#: every peer online: discovery runs in bulk at the protocol bootstrap.
SIM_ARRAY = SimSpec(
    name="sim-array",
    system="hirep-array",
    network_size=2000,
    transactions=8000,
    block=100,
    rep_s=12.0,
)


@dataclass
class SimRep:
    """One repetition of a simulation job."""

    slices: list[float]  # normalized seconds: set-up, each transaction, export
    prints: list[Any]  # output fingerprints: set-up, each block, export
    attempted: int
    failed: int
    lost: int
    trust_msgs_per_tx: float
    mse: float
    retries: tuple[int, int]
    state_bytes_per_peer: float

    @property
    def work_s(self) -> float:
        """Normalized seconds of the whole repetition."""
        return sum(self.slices)


def sim_rep(spec: SimSpec, seed: int, tracer: Any) -> SimRep:
    """Build, bootstrap, run ``spec.transactions`` one by one, export.

    Every transaction is its own timed slice: host contention comes and
    goes within tens of milliseconds, so the finer the slices, the more
    of them some repetition catches uncontended.  Slice times are on the
    normalized clock: wall time divided by the host slowdown measured by
    the reference loop right before and after (per block of
    transactions; around the whole set-up, which is one call).
    """
    before = host_slowdown(9)
    t0 = time.perf_counter()
    with tracer.phase("build"):
        system = spec.build(seed)
    with tracer.phase("bootstrap"):
        system.bootstrap()
    setup_wall = time.perf_counter() - t0
    prints: list[Any] = [_counts(system)]
    system.reset_metrics()
    slowdown = host_slowdown(9)
    slices = [setup_wall / ((before + slowdown) / 2)]

    pool = spec.pool(seed)
    outcomes: list[Any] = []
    failed = lost = 0
    with tracer.phase("run"):
        for first in range(0, spec.transactions, spec.block):
            block: list[Any] = []
            walls: list[float] = []
            for i in range(first, min(first + spec.block, spec.transactions)):
                tracer.set_run(i)
                requestor = pool[i % len(pool)] if pool else None
                ts = time.perf_counter()
                try:
                    outcome = system.run_transaction(requestor)
                except ReproError as exc:
                    outcome = exc
                walls.append(time.perf_counter() - ts)
                if isinstance(outcome, ReproError):
                    lost += 1
                    block.append(("raised", type(outcome).__name__, str(outcome)))
                else:
                    failed += outcome.answered == 0
                    outcomes.append(outcome)
                    block.append(_tx_print(outcome))
            before, slowdown = slowdown, host_slowdown()
            slices += [t / ((before + slowdown) / 2) for t in walls]
            prints.append((tuple(block), _counts(system)))
    tracer.set_run(-1)

    with tracer.phase("export"):
        te = time.perf_counter()
        text = export_outcomes(spec.name, outcomes)
        slices.append((time.perf_counter() - te) / slowdown)
    prints.append(_digest(text))

    trust = sum(o.trust_messages for o in outcomes)
    state_bytes = (
        system.state_nbytes() / spec.network_size if hasattr(system, "state_nbytes") else 0.0
    )
    return SimRep(
        slices=slices,
        prints=prints,
        attempted=spec.transactions,
        failed=failed + lost,
        lost=lost,
        trust_msgs_per_tx=trust / max(len(outcomes), 1),
        mse=system.mse.mse(),
        retries=_retries(system),
        state_bytes_per_peer=state_bytes,
    )


# ---------------------------------------------------------------------------
# Serve plane: open loop at a fixed arrival rate.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeSpec:
    """An open-loop load against a live fleet on the in-process transport."""

    name: str
    network_size: int
    rate_tps: float
    setups: int
    min_transactions: int

    def config(self, seed: int) -> HiRepConfig:
        return HiRepConfig(network_size=self.network_size, seed=seed)

    def tiny(self) -> "ServeSpec":
        return replace(self, rate_tps=10.0, setups=1, min_transactions=10)


#: About 40 % of the fleet's closed-loop capacity on a quiet 2-vCPU host
#: (≈25 tx/s at concurrency 4): latency is service time plus the waits
#: independent users impose on each other.  At 15 tx/s (60 %) the fleet
#: saturated whenever other tenants halved the host's speed.  A set-up
#: takes about 50 ms, so fifteen of them cost under a second and steady
#: the median ``setup_s``.
SERVE_OPEN = ServeSpec(
    name="serve-open",
    network_size=32,
    rate_tps=10.0,
    setups=15,
    min_transactions=200,
)


#: The open loop samples the host only when no transaction is in flight
#: and the next release is at least this far off, so the sample (about a
#: millisecond of interpreter work) delays no transaction.
IDLE_GAP_S = 0.005


@dataclass
class LoadResult:
    """What the open-loop generator saw, in trace order."""

    due_s: list[float]  # clock time each transaction was due
    latency_ms: list[float]  # completion minus due time
    late_ms: list[float]  # release minus due time
    outcomes: list[Any]  # None where the transaction raised
    errors: list[str]
    wall_s: float  # first due time to last completion
    host: list[tuple[float, float]]  # (clock time, host slowdown) while idle


async def open_loop(
    system: Any,
    pairs: Sequence[tuple[int, int]],
    rate_tps: float,
    *,
    set_run: Callable[[int], None] = lambda i: None,
) -> LoadResult:
    """Release transaction ``i`` at ``start + i / rate_tps``, whatever is in flight.

    Latency runs from the due time, so a stall also counts against the
    transactions queued behind it.  Transactions of one requestor keep
    their order (a peer has one query in flight); others overlap freely.
    Whenever the last transaction in flight completes well before the next
    release, the host's slowdown is sampled.  Uses only
    ``system.run_transaction_async``.
    """
    n = len(pairs)
    due_s = [0.0] * n
    latency = [float("nan")] * n
    late = [0.0] * n
    outcomes: list[Any] = [None] * n
    errors: list[str] = []
    locks: dict[int, asyncio.Lock] = defaultdict(asyncio.Lock)
    host: list[tuple[float, float]] = []
    in_flight = 0
    next_due = 0.0

    async def one(i: int, req: int, prov: int, due: float) -> None:
        nonlocal in_flight
        set_run(i)
        async with locks[req]:
            try:
                outcomes[i] = await system.run_transaction_async(req, prov)
            except Exception as exc:  # a lost transaction is reported, not fatal
                errors.append(f"tx {i} ({req}->{prov}): {type(exc).__name__}: {exc}")
        end = time.perf_counter()
        latency[i] = (end - due) * 1000.0
        in_flight -= 1
        if in_flight == 0 and next_due - end > IDLE_GAP_S:
            host.append((end, host_slowdown(1)))

    start = time.perf_counter()
    tasks = []
    for i, (req, prov) in enumerate(pairs):
        due = next_due = due_s[i] = start + i / rate_tps
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late[i] = (time.perf_counter() - due) * 1000.0
        in_flight += 1
        tasks.append(asyncio.create_task(one(i, req, prov, due)))
    await asyncio.gather(*tasks)
    wall = time.perf_counter() - start
    return LoadResult(due_s, latency, late, outcomes, errors, wall, host)


def normalize_latency(load: LoadResult) -> list[float]:
    """Each latency divided by the host slowdown sampled around it (the
    mean of the samples within 250 ms of the transaction's midpoint, else
    the nearest sample).

    On the in-process transport a fully answered transaction waits on no
    timer: every wait is for another task's interpreter work, which the
    slowdown stretches.  The run checks that every query was fully
    answered, so no query window is in any latency.  Without a single
    sample the latencies stay raw, and the run is flagged.
    """
    if not load.host:
        return list(load.latency_ms)
    at = np.array([t for t, _ in load.host])
    slow = np.array([s for _, s in load.host])
    out = []
    for due, lat in zip(load.due_s, load.latency_ms):
        gap = np.abs(at - (due + lat / 2000.0))
        near = gap <= 0.25
        out.append(lat / (slow[near].mean() if near.any() else slow[gap.argmin()]))
    return out


@dataclass
class ServeRun:
    """One serve-open job: several set-ups, then one load phase."""

    setup_s: list[float]  # normalized seconds
    load: LoadResult
    latency_ms: list[float]  # normalized; NaN where the transaction raised
    run_s: float  # wall seconds: load phase plus the final drain
    export_s: float  # normalized seconds
    prints: list[Any]
    attempted: int
    failed: int
    lost: int
    trust_msgs_per_tx: float
    mse: float
    busy_frac: float
    retries: tuple[int, int]

    @property
    def work_s(self) -> float:
        """Normalized seconds of the set-ups plus every completed
        transaction's latency."""
        return sum(self.setup_s) + float(np.nansum(self.latency_ms)) / 1000.0


def serve_job(
    spec: ServeSpec,
    seed: int,
    seconds: float,
    tracer: Any,
    *,
    setups: int | None = None,
) -> ServeRun:
    """Set the fleet up ``setups`` times, then load the last one open loop
    for about ``seconds`` (never fewer than ``spec.min_transactions``)."""
    config = spec.config(seed)
    setup_s: list[float] = []
    setup_prints: list[Any] = []

    def set_up() -> ServeSystem:
        before = host_slowdown(9)
        t0 = time.perf_counter()
        with tracer.phase("build"):
            fleet = ServeSystem(config, transport="inproc")
        with tracer.phase("bootstrap"):
            fleet.up()
        wall = time.perf_counter() - t0
        setup_s.append(wall / ((before + host_slowdown(9)) / 2))
        setup_prints.append(_counts(fleet))
        return fleet

    system = set_up()
    for _ in range((setups or spec.setups) - 1):
        system.down()
        system = set_up()
    try:
        count = max(spec.min_transactions, round(spec.rate_tps * seconds))
        rng = np.random.default_rng([seed, 0x5E7E])
        pairs = [
            (t.requestor, t.provider)
            for t in build_trace("uniform", spec.network_size, count, rng)
        ]
        # Overlapping transactions must not wait for fleet-wide quiescence.
        system.drain_per_tx = False
        trust0 = _trust_traffic(system)

        async def load() -> LoadResult:
            result = await open_loop(system, pairs, spec.rate_tps, set_run=tracer.set_run)
            await system.drain()
            return result

        with tracer.phase("run"):
            tr = time.perf_counter()
            c0 = time.process_time()
            # The fleet's actors live on the loop ``up()`` created; the load
            # has to run there too.
            result = system._loop.run_until_complete(load())
            busy = (time.process_time() - c0) / result.wall_s
            run_s = time.perf_counter() - tr
        tracer.set_run(-1)
        done = [o for o in result.outcomes if o is not None]
        with tracer.phase("export"):
            te = time.perf_counter()
            text = export_outcomes(spec.name, done)
            export_s = (time.perf_counter() - te) / host_slowdown()
        trust = _trust_traffic(system) - trust0
        per_tx = [
            (req, prov, None if o is None else (o.estimate, o.truth, o.answered, o.asked))
            for (req, prov), o in zip(pairs, result.outcomes)
        ]
        # The export holds the estimates, which sum concurrent responses in
        # arrival order, so its fingerprint is its row count.
        exported = len(json.loads(text)["series"][0]["x"])
        prints = [setup_prints, per_tx, trust, _counts(system), exported]
        return ServeRun(
            setup_s=setup_s,
            load=result,
            latency_ms=normalize_latency(result),
            run_s=run_s,
            export_s=export_s,
            prints=prints,
            attempted=count,
            failed=len(result.errors) + sum(o.answered == 0 for o in done),
            lost=len(result.errors),
            trust_msgs_per_tx=trust / max(len(done), 1),
            mse=system.mse.mse(),
            busy_frac=busy,
            retries=_retries(system),
        )
    finally:
        system.down()
