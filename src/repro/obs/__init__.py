"""Observability: per-rank tracing, metrics, and trace analysis.

The layer is always importable and near-free when off (the default):
runtime call sites hold :data:`NULL_TRACER` handles whose methods are
allocation-free no-ops.  Opt in by constructing a
:class:`~repro.runtime.communicator.Fabric` with ``tracer=Tracer(...)``,
or via the CLI's ``--trace`` flags (``python -m repro explain`` reads
the file).

* :mod:`repro.obs.tracer` — per-rank event buffers, Chrome trace export.
* :mod:`repro.obs.metrics` — labelled counters/gauges/histograms.
* :mod:`repro.obs.analyze` — measured bubble ratio, overlap fraction,
  per-turn chunk accounting, cost-model reconciliation.
* :mod:`repro.obs.schema` — structural trace validation (CI smoke gate).
* :mod:`repro.obs.merge` — cross-process trace spills, clock alignment
  and merging (the process backend's path into the analyzer).
* :mod:`repro.obs.flight` — always-on bounded flight recorder and
  post-mortem bundles.
"""

from .analyze import (
    HIER_TRAFFIC_TOL,
    RATIO_TOL,
    WALL_TOL,
    analyze_trace,
    heal_events,
    link_traffic,
    load_trace,
    per_turn_chunks,
    reconcile,
    trace_metadata,
)
from .flight import (
    EVENT_NAMES,
    POSTMORTEM_SCHEMA,
    FlightBox,
    FlightRecorder,
    build_postmortem,
    dump_postmortem,
    load_postmortem,
    postmortem_dir,
    render_postmortem,
)
from .merge import (
    SPILL_SCHEMA,
    ClockAlignment,
    align_clock,
    dump_trace_spill,
    load_trace_spill,
    merge_trace_spill,
)
from .metrics import METRICS_SCHEMA, Counter, Gauge, Histogram, MetricsRegistry
from .schema import validate_chrome_trace
from .tracer import (
    NULL_RANK_TRACER,
    NULL_TRACER,
    TRACE_SCHEMA,
    NullRankTracer,
    NullTracer,
    RankTracer,
    Tracer,
)

__all__ = [
    "TRACE_SCHEMA",
    "METRICS_SCHEMA",
    "Tracer",
    "RankTracer",
    "NullTracer",
    "NullRankTracer",
    "NULL_TRACER",
    "NULL_RANK_TRACER",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "link_traffic",
    "load_trace",
    "analyze_trace",
    "heal_events",
    "per_turn_chunks",
    "reconcile",
    "trace_metadata",
    "validate_chrome_trace",
    "WALL_TOL",
    "RATIO_TOL",
    "HIER_TRAFFIC_TOL",
    "SPILL_SCHEMA",
    "ClockAlignment",
    "align_clock",
    "dump_trace_spill",
    "load_trace_spill",
    "merge_trace_spill",
    "POSTMORTEM_SCHEMA",
    "EVENT_NAMES",
    "FlightRecorder",
    "FlightBox",
    "build_postmortem",
    "dump_postmortem",
    "load_postmortem",
    "render_postmortem",
    "postmortem_dir",
]
