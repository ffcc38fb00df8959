"""Analysis helpers: offset distributions, MPKI aggregation, sweep plotting."""

from repro.analysis.offset_analysis import OffsetDistribution, offset_distribution, combined_distribution
from repro.analysis.aggregate import geometric_mean
from repro.analysis.plotting import PlotSchemaError, plot_csv, render_svg

__all__ = [
    "OffsetDistribution",
    "offset_distribution",
    "combined_distribution",
    "geometric_mean",
    "PlotSchemaError",
    "plot_csv",
    "render_svg",
]
