"""The layer table: which public functions the traced run wraps, the
per-layer metrics it derives from their spans, and where each layer must
(and must not) record work.

Every target is named where its caller looks it up, so rebinding it there
intercepts the call without changing the program: a module global for
functions imported by name, a class attribute for methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from hibench.spans import SpanRecorder

__all__ = [
    "EXERCISED_ON",
    "PER_LAYER",
    "LayerCounters",
    "coverage_errors",
    "derive",
    "install",
]

WORKLOADS = ("sim-object", "sim-array", "serve-open")
_OBJECT_AND_SERVE = frozenset({"sim-object", "serve-open"})

#: (span name, target) pairs; several targets may feed one layer.
SPANS: tuple[tuple[str, str], ...] = (
    ("net.topology", "repro.core.world:topology_for_degree"),
    ("net.send", "repro.net.network:P2PNetwork.send"),
    ("net.send", "repro.serve.network:ServeNetwork.send"),
    ("net.churn", "repro.net.churn:ChurnModel.step"),
    ("sim", "repro.sim.engine:SimEngine.step"),
    ("crypto.keygen", "repro.crypto.keys:PeerKeys.generate"),
    ("crypto.ops", "repro.crypto.simulated:SimulatedBackend.sign"),
    ("crypto.ops", "repro.crypto.simulated:SimulatedBackend.verify"),
    ("crypto.ops", "repro.crypto.simulated:SimulatedBackend.encrypt"),
    ("crypto.ops", "repro.crypto.simulated:SimulatedBackend.decrypt"),
    ("onion.handshake", "repro.onion.relay:perform_handshake"),
    ("onion.route", "repro.onion.routing:OnionRouter.send"),
    ("onion.route", "repro.onion.routing:OnionRouter.handle"),
    ("discovery", "repro.core.services:discover_agent_lists"),
    ("discovery", "repro.vector.system:discover_agent_lists"),
    ("ranking", "repro.core.services:rank_within_list"),
    ("ranking", "repro.core.services:select_agents"),
    ("ranking", "repro.vector.system:rank_within_list"),
    ("ranking", "repro.vector.system:select_agents"),
    ("query", "repro.core.peer:HiRepPeer.start_query"),
    ("query", "repro.core.peer:HiRepPeer.finish_query"),
    ("query", "repro.core.agent:ReputationAgent.handle_trust_request"),
    ("settle", "repro.core.peer:HiRepPeer.settle_transaction"),
    ("settle", "repro.core.agent:ReputationAgent.handle_report"),
    ("maintain", "repro.core.services:MaintenanceService.maintain"),
    ("dispatch", "repro.core.dispatch:ProtocolDispatcher.dispatch"),
    ("wire.size", "repro.core.wire:wire_size"),
    ("wire.encode", "repro.serve.network:encode"),
    ("wire.decode", "repro.serve.network:decode"),
    ("serve.deliver", "repro.serve.network:ServeNetwork.deliver_frame"),
    ("vector.bootstrap", "repro.vector.system:ArrayHiRepSystem.bootstrap"),
    ("vector.tx", "repro.vector.system:ArrayHiRepSystem.run_transaction"),
    ("vector.state.add", "repro.vector.state:VectorTrustState.add"),
)

#: Layers reported as ``<layer>.calls`` and ``<layer>.self_ms``.
_CALL_LAYERS = (
    "net.send",
    "net.churn",
    "crypto.keygen",
    "crypto.ops",
    "onion.handshake",
    "onion.route",
    "discovery",
    "ranking",
    "query",
    "settle",
    "maintain",
    "dispatch",
    "wire.size",
    "wire.encode",
    "wire.decode",
    "serve.deliver",
    "vector.tx",
    "vector.state.add",
)

_PHASES = ("build", "bootstrap", "run", "export")


def _per_layer() -> tuple[tuple[str, str], ...]:
    rows: list[tuple[str, str]] = [(f"phase.{p}_ms", "ms") for p in _PHASES]
    rows.append(("net.topology.ms", "ms"))
    rows += [("sim.events", "count"), ("sim.self_ms", "ms")]
    for layer in _CALL_LAYERS:
        rows += [(f"{layer}.calls", "count"), (f"{layer}.self_ms", "ms")]
    rows += [
        ("discovery.entries", "count"),
        ("ranking.selected_frac", "ratio"),
        ("query.answered_frac", "ratio"),
        ("dispatch.dropped", "count"),
        ("retry.sent", "count"),
        ("retry.timed_out", "count"),
        ("wire.encode.bytes", "bytes"),
        ("transport.frames", "count"),
        ("transport.wait_p50_ms", "ms"),
        ("transport.wait_p95_ms", "ms"),
        ("load.busy_frac", "ratio"),
        ("load.late_p95_ms", "ms"),
        ("vector.bootstrap.self_ms", "ms"),
        ("vector.state_bytes_per_peer", "bytes/peer"),
        ("host.ref_ms", "ms"),
        ("trace.overhead_frac", "ratio"),
    ]
    return tuple(rows)


#: Every per-layer metric, in report order, with its unit.
PER_LAYER: tuple[tuple[str, str], ...] = _per_layer()

#: Metric -> the workloads that must record work on it (a value > 0).
#: On every other workload the layer is bypassed and the value must be 0.
EXERCISED_ON: dict[str, frozenset[str]] = {
    "net.topology.ms": frozenset(WORKLOADS),
    "net.send.calls": _OBJECT_AND_SERVE,
    "net.churn.calls": frozenset({"sim-object"}),
    "sim.events": frozenset({"sim-object"}),
    "crypto.keygen.calls": _OBJECT_AND_SERVE,
    "crypto.ops.calls": _OBJECT_AND_SERVE,
    "onion.handshake.calls": _OBJECT_AND_SERVE,
    "onion.route.calls": _OBJECT_AND_SERVE,
    "discovery.calls": frozenset(WORKLOADS),
    "ranking.calls": frozenset(WORKLOADS),
    "query.calls": _OBJECT_AND_SERVE,
    "settle.calls": _OBJECT_AND_SERVE,
    "maintain.calls": _OBJECT_AND_SERVE,
    "dispatch.calls": _OBJECT_AND_SERVE,
    "wire.size.calls": _OBJECT_AND_SERVE,
    "wire.encode.calls": frozenset({"serve-open"}),
    "wire.decode.calls": frozenset({"serve-open"}),
    "transport.frames": frozenset({"serve-open"}),
    "serve.deliver.calls": frozenset({"serve-open"}),
    "vector.bootstrap.self_ms": frozenset({"sim-array"}),
    "vector.tx.calls": frozenset({"sim-array"}),
    "vector.state.add.calls": frozenset({"sim-array"}),
}


@dataclass
class LayerCounters:
    """Counts the probes take at layer boundaries, beside the spans."""

    clock: Callable[[], float]
    discovery_entries: int = 0
    ranking_candidates: int = 0
    ranking_selected: int = 0
    asked: int = 0
    answered: int = 0
    dispatch_dropped: int = 0
    encode_bytes: int = 0
    frames: int = 0
    waits_ms: list[float] = field(default_factory=list)
    _posted_at: dict[int, float] = field(default_factory=dict)

    def on_discovery(self, args: tuple, kwargs: dict, outcome: Any) -> None:
        for reply in outcome.replies:
            self.discovery_entries += len(reply.entries)
            self.discovery_entries += reply.self_entry is not None

    def on_select(self, args: tuple, kwargs: dict, selected: Any) -> None:
        self.ranking_candidates += len(args[0])
        self.ranking_selected += len(selected)

    def on_finish_query(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.asked += result.asked
        self.answered += result.answered

    def on_dispatch(self, args: tuple, kwargs: dict, handled: Any) -> None:
        self.dispatch_dropped += not handled

    def on_encode(self, args: tuple, kwargs: dict, frame: Any) -> None:
        self.encode_bytes += len(frame)

    def on_post(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.frames += 1
        self._posted_at[id(args[1])] = self.clock()

    def on_get(self, args: tuple, kwargs: dict, frame: Any) -> None:
        posted = self._posted_at.pop(id(frame), None)
        if posted is not None:
            self.waits_ms.append((self.clock() - posted) * 1000.0)


def install(rec: SpanRecorder) -> LayerCounters:
    """Wrap every layer boundary; undo with ``rec.restore()``."""
    counters = LayerCounters(rec.clock)
    probes = {
        "repro.core.services:discover_agent_lists": counters.on_discovery,
        "repro.vector.system:discover_agent_lists": counters.on_discovery,
        "repro.core.services:select_agents": counters.on_select,
        "repro.vector.system:select_agents": counters.on_select,
        "repro.core.peer:HiRepPeer.finish_query": counters.on_finish_query,
        "repro.core.dispatch:ProtocolDispatcher.dispatch": counters.on_dispatch,
        "repro.serve.network:encode": counters.on_encode,
    }
    try:
        for name, target in SPANS:
            rec.wrap(target, name, probes.get(target))
        # Posting and pulling a frame only mark its queue wait: no spans.
        rec.observe("repro.serve.transport:InProcessTransport.post", counters.on_post)
        rec.observe("repro.serve.transport:InProcessTransport.get", counters.on_get)
    except BaseException:
        rec.restore()
        raise
    return counters


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(
    totals: dict[str, tuple[int, float, float]],
    counters: LayerCounters,
    extras: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics from span totals, probe counters and job extras
    (``retry.*``, ``load.*``, ``vector.state_bytes_per_peer``, ``host.ref_ms``,
    ``trace.overhead_frac``)."""

    def span(name: str) -> tuple[int, float, float]:
        return totals.get(name, (0, 0.0, 0.0))

    m: dict[str, float] = {f"phase.{p}_ms": span(f"phase.{p}")[1] for p in _PHASES}
    m["net.topology.ms"] = span("net.topology")[1]
    m["sim.events"] = span("sim")[0]
    m["sim.self_ms"] = span("sim")[2]
    for layer in _CALL_LAYERS:
        calls, _, self_ms = span(layer)
        m[f"{layer}.calls"] = calls
        m[f"{layer}.self_ms"] = self_ms
    waits = np.asarray(counters.waits_ms) if counters.waits_ms else np.zeros(1)
    m.update(
        {
            "discovery.entries": counters.discovery_entries,
            "ranking.selected_frac": _ratio(
                counters.ranking_selected, counters.ranking_candidates
            ),
            "query.answered_frac": _ratio(counters.answered, counters.asked),
            "dispatch.dropped": counters.dispatch_dropped,
            "wire.encode.bytes": counters.encode_bytes,
            "transport.frames": counters.frames,
            "transport.wait_p50_ms": float(np.percentile(waits, 50)),
            "transport.wait_p95_ms": float(np.percentile(waits, 95)),
            "vector.bootstrap.self_ms": span("vector.bootstrap")[2],
        }
    )
    m.update(extras)
    missing = [name for name, _ in PER_LAYER if name not in m]
    if missing:
        raise KeyError(f"per-layer metrics not derived: {missing}")
    return {name: float(m[name]) for name, _ in PER_LAYER}


def coverage_errors(workload: str, metrics: dict[str, float]) -> list[str]:
    """Layers that worked where they should be bypassed, or the reverse."""
    errors = []
    for name, exercised in EXERCISED_ON.items():
        value = metrics[name]
        if workload in exercised and not value > 0:
            errors.append(f"{name} = {value:g}: layer not exercised on {workload}")
        if workload not in exercised and value != 0:
            errors.append(f"{name} = {value:g}: layer should be bypassed on {workload}")
    return errors
