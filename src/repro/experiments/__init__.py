"""Experiment drivers: one module per table/figure in the paper.

Each module exposes ``run(...)`` returning a plain result structure and
``format_report(result)`` rendering the same rows/series the paper
prints.  :mod:`repro.experiments.registry` lists every experiment once,
and ``python -m repro`` runs any of them::

    python -m repro fig2
    python -m repro table1 --full
    python -m repro fig6 --sizes-gb 1,4 --out results/

``--full`` reproduces the paper's exact input sizes (minutes of wall
time); the default is a scaled-down sweep with the same shape.
:mod:`repro.experiments.paper` holds the published numbers each report
compares against.
"""

from repro.experiments import paper
from repro.experiments.reporting import (
    Table,
    format_series,
    compare_to_paper,
)

__all__ = ["paper", "Table", "format_series", "compare_to_paper"]
