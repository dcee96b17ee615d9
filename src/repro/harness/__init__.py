"""Experiment harness: presets, formatting, and per-table/figure runs."""

from .formatting import geomean, percent, render_table, sci
from .presets import (
    EXPERIMENT_LLC_SETS,
    experiment_maya,
    experiment_maya_iso_area,
    experiment_mirage,
    experiment_system,
)

__all__ = [
    "EXPERIMENT_LLC_SETS",
    "experiment_maya",
    "experiment_maya_iso_area",
    "experiment_mirage",
    "experiment_system",
    "geomean",
    "percent",
    "render_table",
    "sci",
]
