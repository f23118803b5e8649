"""Minimum vertex cuts by Dinitz max-flow (BalancedCut's cut engine)."""

from repro.flow.vertex_cut import (
    max_flow,
    min_vertex_cut_between_regions,
    min_vertex_cut_pair,
)

__all__ = [
    "max_flow",
    "min_vertex_cut_between_regions",
    "min_vertex_cut_pair",
]
