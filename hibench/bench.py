"""One benchmark run: the timed mode (``--trace 0``) and the traced mode
(``--trace 1``) of a workload, with the output checks that set ``correct``.

Timed mode repeats the same-seed job a fixed number of times (set by the
time budget and the workload's nominal cost, never by how fast this run
goes; at least four), checks that every repetition produced identical
outputs slice by slice, and reports each slice's minimum over the
repetitions: host contention only adds time, so the minimum is the
steadiest estimate of the uncontended cost.  Traced mode runs the job once
untraced and once with every layer boundary wrapped, checks that both
runs produce the same outputs and that each layer worked exactly where
the layer table says it should, and reports per-layer counts and self
time.
"""

from __future__ import annotations

import gc
import math
import operator
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
from repro.experiments.traffic_bound import exact_messages_per_tx, paper_bound_per_tx

from hibench import layers
from hibench.jobs import (
    SERVE_OPEN,
    SIM_ARRAY,
    SIM_OBJECT,
    ServeRun,
    ServeSpec,
    SimSpec,
    serve_job,
    sim_rep,
)
from hibench.spans import NullTracer, SpanRecorder
from hibench.stats import peak_rss_mb, reference_ms, slice_minimum, tail_percentile

__all__ = ["END_TO_END", "WORKLOADS", "Result", "measure", "run", "trace_layers"]

WORKLOADS: dict[str, SimSpec | ServeSpec] = {
    spec.name: spec for spec in (SIM_OBJECT, SIM_ARRAY, SERVE_OPEN)
}

#: Every end-to-end metric, in report order, with its unit.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("job_s", "s"),
    ("tx_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("trust_msgs_per_tx", "count"),
    ("mse", "1"),
)


@dataclass
class Result:
    """What a run prints: metrics, counts and the checks that failed."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.errors


def _trust_errors(spec: SimSpec | ServeSpec, per_tx: float, config: Any) -> list[str]:
    """Trust traffic never exceeds the §4.1 count, and meets it exactly
    when every peer stays online (with churn, offline relays drop hops)."""
    c, o = config.agents_queried, config.onion_relays
    exact = exact_messages_per_tx(c, o)
    errors = []
    if per_tx > paper_bound_per_tx(c, o, o):
        errors.append(f"trust_msgs_per_tx {per_tx} exceeds the paper bound")
    churn = getattr(spec, "churn", None)
    if churn is None and per_tx != exact:
        errors.append(f"trust_msgs_per_tx {per_tx} != exact count {exact}")
    if churn is not None and not 0 < per_tx <= exact:
        errors.append(f"trust_msgs_per_tx {per_tx} outside (0, {exact}]")
    return errors


def _warm_up(spec: SimSpec | ServeSpec, seed: int) -> None:
    """Run the job once at a tiny size so imports and caches are warm."""
    if isinstance(spec, SimSpec):
        sim_rep(spec.tiny(), seed, NullTracer())
    else:
        serve_job(spec.tiny(), seed, 0.0, NullTracer())
    gc.collect()


def _close(a: Any, b: Any) -> bool:
    """Equal, except that floats may differ in their last bits.

    On the serve plane the responses to one query arrive in whatever order
    the fleet interleaves them, so the weighted-mean estimate is the same
    sum taken in another order.
    """
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def _compare(
    name: str,
    reference: list[Any],
    other: list[Any],
    same: Callable[[Any, Any], bool] = operator.eq,
) -> list[str]:
    if len(reference) != len(other):
        return [f"{name}: {len(other)} slices, expected {len(reference)}"]
    return [
        f"{name}: slice {i} outputs differ"
        for i, (a, b) in enumerate(zip(reference, other))
        if not same(a, b)
    ]


# ---------------------------------------------------------------------------
# Timed mode
# ---------------------------------------------------------------------------


def _measure_sim(spec: SimSpec, seed: int, seconds: float) -> Result:
    reps = []
    for _ in range(spec.repetitions(seconds)):
        gc.collect()
        reps.append(sim_rep(spec, seed, NullTracer()))
    first = reps[0]
    errors = [f"{first.lost} transactions raised"] if first.lost else []
    for k, rep in enumerate(reps[1:], start=1):
        errors += _compare(f"repetition {k}", first.prints, rep.prints)
    errors += _trust_errors(spec, first.trust_msgs_per_tx, spec.config(seed))

    mins = slice_minimum([rep.slices for rep in reps])
    tx_min = mins[1:-1]
    run_s = sum(tx_min)
    # The set-up is one long call, normalized only by the slowdown at its
    # ends; its minimum picks the repetition whose slowdown was most
    # overestimated, so the set-up takes the median (over ten seeds on a
    # 2-vCPU VM, job_s spread 4-5 % this way, 7-9 % with the minimum).
    setup = statistics.median(rep.slices[0] for rep in reps)
    metrics = {
        "setup_s": setup,
        "job_s": setup + run_s + mins[-1],
        "tx_per_s": spec.transactions / run_s,
        "lat_p50_ms": tail_percentile(tx_min, 50) * 1000.0,
        "lat_p95_ms": tail_percentile(tx_min, 95) * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
        "trust_msgs_per_tx": first.trust_msgs_per_tx,
        "mse": first.mse,
    }
    return Result(
        metrics=metrics,
        attempted=sum(rep.attempted for rep in reps),
        failed=sum(rep.failed for rep in reps),
        errors=errors,
        notes=[
            f"{len(reps)} repetitions of {spec.transactions} transactions; "
            f"latency over {len(tx_min)} per-transaction minima",
            "setup_s per repetition: " + " ".join(f"{rep.slices[0]:.3f}" for rep in reps),
        ],
        info={"reps": len(reps)},
    )


def _serve_errors(spec: ServeSpec, job: ServeRun, seed: int) -> list[str]:
    setups = job.prints[0]
    errors = [f"set-up {k} outputs differ" for k, p in enumerate(setups) if p != setups[0]]
    if job.lost:
        errors.append(f"{job.lost} transactions lost")
        errors += job.load.errors[:5]
    partial = sum(o.answered < o.asked for o in job.load.outcomes if o is not None)
    if partial:
        errors.append(f"{partial} queries waited out their window (not fully answered)")
    errors += _trust_errors(spec, job.trust_msgs_per_tx, spec.config(seed))
    return errors


def _behind_schedule(spec: ServeSpec, job: ServeRun) -> list[str]:
    """The generator must release on time, or the load is not open loop;
    and the fleet must fall idle now and then, or the host is never sampled."""
    errors = []
    late_p95 = float(np.percentile(job.load.late_ms, 95))
    interval_ms = 1000.0 / spec.rate_tps
    if late_p95 > interval_ms:
        errors.append(
            f"generator behind schedule: late p95 {late_p95:.1f} ms > {interval_ms:.1f} ms"
        )
    if not job.load.host:
        errors.append("the fleet was never idle: no host sample to normalize latencies")
    return errors


def _measure_serve(spec: ServeSpec, seed: int, seconds: float) -> Result:
    job = serve_job(spec, seed, seconds, NullTracer())
    errors = _serve_errors(spec, job, seed) + _behind_schedule(spec, job)
    done = [lat for lat, o in zip(job.latency_ms, job.load.outcomes) if o is not None]
    setup = statistics.median(job.setup_s)
    metrics = {
        "setup_s": setup,
        "job_s": setup + job.run_s + job.export_s,
        "tx_per_s": len(done) / job.load.wall_s,
        "lat_p50_ms": tail_percentile(done, 50),
        "lat_p95_ms": tail_percentile(done, 95),
        "peak_rss_mb": peak_rss_mb(),
        "trust_msgs_per_tx": job.trust_msgs_per_tx,
        "mse": job.mse,
    }
    return Result(
        metrics=metrics,
        attempted=job.attempted,
        failed=job.failed,
        errors=errors,
        notes=[
            f"{len(job.setup_s)} set-ups; {job.attempted} transactions at "
            f"{spec.rate_tps:g} tx/s; latency over {len(done)} samples",
            f"{len(job.load.host)} idle host samples, slowdown median "
            f"{statistics.median(s for _, s in job.load.host or [(0, 0)]):.3f}",
            f"load busy {job.busy_frac:.3f}, late p95 "
            f"{np.percentile(job.load.late_ms, 95):.3f} ms",
        ],
        info={"reps": len(job.setup_s)},
    )


# ---------------------------------------------------------------------------
# Traced mode
# ---------------------------------------------------------------------------


def _job(spec: SimSpec | ServeSpec, seed: int, seconds: float, tracer: Any) -> Any:
    gc.collect()
    if isinstance(spec, SimSpec):
        return sim_rep(spec, seed, tracer)
    return serve_job(spec, seed, seconds, tracer, setups=1)


def trace_layers(spec: SimSpec | ServeSpec, seed: int, seconds: float, out_dir: Path) -> Result:
    """Traced mode: the per-layer metrics of ``spec``."""
    ref = statistics.median(reference_ms() for _ in range(5))
    plain = _job(spec, seed, seconds, NullTracer())
    rec = SpanRecorder()
    counters = layers.install(rec)
    try:
        traced = _job(spec, seed, seconds, rec)
    finally:
        rec.restore()
    same = _close if isinstance(spec, ServeSpec) else operator.eq
    errors = _compare("traced run", plain.prints, traced.prints, same)
    if isinstance(spec, ServeSpec):
        errors += _serve_errors(spec, plain, seed)
        errors += _behind_schedule(spec, plain)
        load = {
            "load.busy_frac": plain.busy_frac,
            "load.late_p95_ms": float(np.percentile(plain.load.late_ms, 95)),
        }
    else:
        errors += [f"{plain.lost} transactions raised"] if plain.lost else []
        load = {"load.busy_frac": 0.0, "load.late_p95_ms": 0.0}
    extras = {
        "retry.sent": traced.retries[0],
        "retry.timed_out": traced.retries[1],
        "vector.state_bytes_per_peer": getattr(traced, "state_bytes_per_peer", 0.0),
        "host.ref_ms": ref,
        "trace.overhead_frac": traced.work_s / plain.work_s - 1.0,
        **load,
    }
    metrics = layers.derive(rec.layer_totals(), counters, extras)
    errors += layers.coverage_errors(spec.name, metrics)
    spans_path = rec.save(out_dir / f"spans-{spec.name}-{seed}.npz")
    return Result(
        metrics=metrics,
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        errors=errors,
        notes=[f"{len(rec)} spans written to {spans_path}"],
        info={"reps": 1, "spans": len(rec)},
    )


def measure(spec: SimSpec | ServeSpec, seed: int, seconds: float) -> Result:
    """Timed mode: the end-to-end metrics of ``spec``.

    The host reference loop runs after peak memory is read, so its
    allocations never show in ``peak_rss_mb``.
    """
    if isinstance(spec, SimSpec):
        result = _measure_sim(spec, seed, seconds)
    else:
        result = _measure_serve(spec, seed, seconds)
    ref = statistics.median(reference_ms() for _ in range(5))
    result.notes.append(f"host.ref_ms {ref:.3f}")
    result.info["host_ref_ms"] = round(ref, 3)
    return result


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> Result:
    """Warm up, then run ``workload`` in the requested mode."""
    spec = WORKLOADS[workload]
    _warm_up(spec, seed)
    if trace:
        return trace_layers(spec, seed, seconds, out_dir)
    return measure(spec, seed, seconds)
