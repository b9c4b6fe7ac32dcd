"""Machine-readable experiment reports (JSON).

The text tables regenerate the paper's layout; these helpers expose the
same measurements as plain dictionaries for downstream tooling
(plotting, regression tracking, CI dashboards).
"""

from __future__ import annotations

from typing import Iterable

from repro.experiments.harness import Table1Row, Table3Row
from repro.experiments.supervisor import RowFailure


def _failure_entry(failure: RowFailure) -> dict:
    return {"circuit": failure.label, "failure": failure.to_dict()}


def table1_to_dict(rows: "Iterable[Table1Row | RowFailure]") -> dict:
    return {
        "table": "I",
        "description": "% of logical paths identified robust dependent",
        "rows": [
            _failure_entry(row)
            if isinstance(row, RowFailure)
            else {
                "circuit": row.name,
                "total_logical_paths": row.total_logical,
                "fus_percent": row.fus_percent,
                "heu1_percent": row.heu1_percent,
                "heu2_percent": row.heu2_percent,
                "heu2_inverse_percent": row.heu2_inverse_percent,
                "time_heu1_s": row.time_heu1,
                "time_heu2_s": row.time_heu2,
                "shape_violations": row.check_expected_shape(),
            }
            for row in rows
        ],
    }


def table3_to_dict(rows: "Iterable[Table3Row | RowFailure]") -> dict:
    return {
        "table": "III",
        "description": "approach of [1] vs Heuristic 2",
        "rows": [
            _failure_entry(row)
            if isinstance(row, RowFailure)
            else {
                "circuit": row.name,
                "total_logical_paths": row.total_logical,
                "baseline_rd_percent": row.baseline_percent,
                "baseline_time_s": row.baseline_time,
                "heu2_rd_percent": row.heu2_percent,
                "heu2_time_s": row.heu2_time,
                "quality_gap_percent": row.quality_gap,
                "speedup": row.speedup,
            }
            for row in rows
        ],
    }
