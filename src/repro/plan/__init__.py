"""Auto-parallelism planner: ``python -m repro plan``.

Given a model / context / cluster spec, enumerate the parallelism
config space, prune on the analytic memory model, rank by the tokens/s
the discrete-event simulator (``repro.sim.run_cell``) gives each
survivor, and validate the top pick with a live traced run gated by
``repro.obs.analyze.reconcile`` — the predict-then-validate loop of
DESIGN.md §15.
"""

from .report import (
    PLAN_SCHEMA,
    build_report,
    format_report,
    validate_plan_report,
)
from .search import (
    Candidate,
    Evaluated,
    SearchResult,
    enumerate_candidates,
    evaluate_candidate,
    search,
)
from .spec import (
    ClusterSpec,
    ModelSpec,
    PlanSpec,
    PlanSpecError,
    SearchSpace,
    ValidationSpec,
    load_spec,
)
from .validate import validate_candidate

__all__ = [
    "PLAN_SCHEMA",
    "Candidate",
    "ClusterSpec",
    "Evaluated",
    "ModelSpec",
    "PlanSpec",
    "PlanSpecError",
    "SearchSpace",
    "SearchResult",
    "ValidationSpec",
    "build_report",
    "enumerate_candidates",
    "evaluate_candidate",
    "format_report",
    "load_spec",
    "search",
    "validate_candidate",
    "validate_plan_report",
]
