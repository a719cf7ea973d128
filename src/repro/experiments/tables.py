"""Table drivers: regenerate Table 1 and Table 2 with paper comparison.

``table1()`` reruns the local dual-replayer series and summarizes the
edit-script move distances; ``table2()`` reruns all nine environments and
assembles the mean-metric table, optionally annotated with the paper's
reported values for side-by-side comparison (the EXPERIMENTS.md format).

``table2(ci=True)`` is the statistically honest variant: instead of one
session per environment it runs a PASTRAMI-style stability screen
(:mod:`repro.analysis.stability`) over several seeds and reports κ with
bootstrap interval columns — ``kappa_ci_low``/``kappa_ci_high``, the
effective sample size ``n_eff`` after MAD outlier screening, and the
count of flagged-but-reported ``outliers``.  Seed 0 of each screen is the
scenario's registered seed, so the interval brackets the exact series the
point-estimate table prints.
"""

from __future__ import annotations

from ..analysis.tables import render_table1, table1_rows
from ..analysis.textplot import render_metric_rows
from .runner import run_scenario, run_scenarios, screen_scenarios
from .scenarios import SCENARIOS

__all__ = [
    "table1",
    "render_table1_text",
    "table2",
    "render_table2_text",
    "TABLE2_CI_COLUMNS",
]

#: The interval columns ``table2(ci=True)`` adds to every row.
TABLE2_CI_COLUMNS = ["kappa_ci_low", "kappa_ci_high", "n_eff", "outliers"]


def table1(**run_kwargs) -> list[dict]:
    """Table 1 rows (move-distance statistics, local dual-replayer)."""
    return table1_rows(run_scenario("local-dual", **run_kwargs))


def render_table1_text(**run_kwargs) -> str:
    """Table 1 as text."""
    return render_table1(run_scenario("local-dual", **run_kwargs))


def table2(
    *,
    with_paper: bool = True,
    ci: bool = False,
    ci_seeds: int = 4,
    **run_kwargs,
) -> list[dict]:
    """Table 2: one mean-metrics row per environment, presentation order.

    With ``with_paper=True`` each row carries ``paper_*`` columns holding
    the published values, so the shape comparison is in the data itself.
    ``ci=True`` replaces each point estimate with a ``ci_seeds``-session
    stability screen: κ becomes the screened mean and every row gains the
    interval columns (:data:`TABLE2_CI_COLUMNS`).  Screens reuse the
    persistent series store when one is configured.  Either way every
    series resolves in one sweep, so ``jobs`` fans out nine units (nine
    times ``ci_seeds`` with ``ci=True``).
    """
    if ci_seeds < 1:
        raise ValueError("ci_seeds must be >= 1")
    keys = [sc.key for sc in SCENARIOS]
    if ci:
        rows = [st.row() for st in screen_scenarios(keys, ci_seeds, **run_kwargs)]
    else:
        rows = [rep.mean_row() for rep in run_scenarios(keys, **run_kwargs)]
    for sc, row in zip(SCENARIOS, rows):
        if with_paper:
            row.update(
                paper_U=sc.paper.u,
                paper_O=sc.paper.o,
                paper_I=sc.paper.i,
                paper_L=sc.paper.l,
                paper_kappa=sc.paper.kappa,
            )
    return rows


def render_table2_text(
    *,
    with_paper: bool = True,
    ci: bool = False,
    ci_seeds: int = 4,
    **run_kwargs,
) -> str:
    """Table 2 as text (measured, with paper values interleaved if asked)."""
    rows = table2(with_paper=with_paper, ci=ci, ci_seeds=ci_seeds, **run_kwargs)
    if ci:
        columns = ["environment", "kappa"] + TABLE2_CI_COLUMNS
        if with_paper:
            columns.append("paper_kappa")
        header = (
            "Table 2: mean kappa per environment with 95% bootstrap "
            f"intervals ({ci_seeds} seeded sessions each; outliers are "
            "MAD-flagged and excluded from the interval, never dropped "
            "from the data)"
        )
    elif with_paper:
        columns = [
            "environment",
            "U", "paper_U",
            "O", "paper_O",
            "I", "paper_I",
            "L", "paper_L",
            "kappa", "paper_kappa",
        ]
        header = "Table 2: mean Section-3 metrics per environment (measured vs paper)"
    else:
        columns = ["environment", "U", "O", "I", "L", "kappa"]
        header = "Table 2: mean Section-3 metrics per environment"
    return header + ".\n" + render_metric_rows(rows, columns=columns)
