"""Paper experiment runners: one function per table/figure (DESIGN.md §4)."""

from .configs import (
    ROUNDS_PER_ITERATION,
    STRATEGY_ORDER,
    TABLE2_ROWS,
    TABLE3_ROWS,
    TABLE4_ROWS,
    exec_for,
    make_dims,
    table2_cluster,
    table3_cluster,
    table4_cluster,
    zb_microbatch,
)
from .figures import (
    ScalingPoint,
    ScalingResult,
    run_figure6,
    run_figure7,
    run_figure8,
    run_figure9,
    run_scaling,
)
from .tables import TableResult, run_table, run_table2, run_table3, run_table4

__all__ = [
    "ROUNDS_PER_ITERATION",
    "STRATEGY_ORDER",
    "ScalingPoint",
    "ScalingResult",
    "TABLE2_ROWS",
    "TABLE3_ROWS",
    "TABLE4_ROWS",
    "TableResult",
    "exec_for",
    "make_dims",
    "run_figure6",
    "run_figure7",
    "run_figure8",
    "run_figure9",
    "run_scaling",
    "run_table",
    "run_table2",
    "run_table3",
    "run_table4",
    "table2_cluster",
    "table3_cluster",
    "table4_cluster",
    "zb_microbatch",
]
