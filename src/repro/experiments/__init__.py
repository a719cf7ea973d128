"""Experiment drivers: scenarios, runners, figures, tables.

The per-figure/table reproduction index lives in DESIGN.md; this package
implements it.  Typical use::

    from repro.experiments import run_scenario, table2, fig4

    report = run_scenario("local-single")      # Section 6.1 series
    print(report.mean_row())
    rows = table2()                            # all nine environments
    fig4a, fig4b = fig4()
    print(fig4a.render())
"""

from .figures import (
    ALL_FIGURES,
    FigureSeries,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
)
from .runner import (
    run_scenario,
    run_scenario_trials,
    run_scenarios,
    run_trials,
)
from .scenarios import SCENARIOS, PaperRow, Scenario, default_duration_scale, scenario
from .tables import render_table1_text, render_table2_text, table1, table2
from .validation import ScenarioVerdict, ValidationResult, validate_against_paper

__all__ = [
    "Scenario",
    "PaperRow",
    "SCENARIOS",
    "scenario",
    "default_duration_scale",
    "run_trials",
    "run_scenario",
    "run_scenarios",
    "run_scenario_trials",
    "FigureSeries",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "ALL_FIGURES",
    "table1",
    "table2",
    "render_table1_text",
    "render_table2_text",
    "validate_against_paper",
    "ValidationResult",
    "ScenarioVerdict",
]
