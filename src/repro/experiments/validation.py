"""One-command reproduction validation: measured vs paper, with verdicts.

``repro validate`` (or :func:`validate_against_paper`) reruns every
scenario, compares the mean metrics against the published Table-2 values
under explicit tolerances, and returns structured verdicts — the same
checks the benchmark suite asserts, packaged for downstream users who
want a single yes/no "does this reproduction still hold on my machine?".

Tolerances encode the DESIGN.md shape contract:

* κ within ``kappa_abs_tol`` absolute (the headline number);
* I within ``i_rel_tol`` relative when the paper's I is non-negligible;
* U and O must be zero exactly where the paper has them zero, and
  non-zero where the paper reports drops/reordering;
* the full κ ordering across environments must match the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass

from .runner import run_scenarios, screen_scenarios
from .scenarios import SCENARIOS, Scenario, default_duration_scale

__all__ = ["ScenarioVerdict", "ValidationResult", "validate_against_paper"]

#: Per-scenario κ tolerance overrides (multipliers on the base tolerance).
#: local-dual: the paper's printed κ (0.9282) is not consistent with Eq. 5
#: applied to its own printed I values (0.149-0.311 → κ ≈ 0.84-0.93, mean
#: ≈ 0.90); see EXPERIMENTS.md "Known deviations".  We grade it against
#: the published number anyway, but with slack covering that discrepancy
#: plus the scenario's high run-to-run offset variance.
_KAPPA_TOL_MULTIPLIER = {"local-dual": 2.5}
#: Same reasoning for I: the dual-replayer interleave inflates I at
#: reduced window scales (offsets are duration-independent).
_I_TOL_MULTIPLIER = {"local-dual": 2.0}


@dataclass(frozen=True)
class ScenarioVerdict:
    """Pass/fail detail for one environment.

    The interval fields are populated only by CI-aware validation
    (``validate_against_paper(ci=True)``); point-estimate runs leave them
    at their NaN/zero defaults.
    """

    key: str
    passed: bool
    kappa_measured: float
    kappa_paper: float
    i_measured: float
    i_paper: float
    failures: tuple[str, ...]
    kappa_ci_low: float = float("nan")
    kappa_ci_high: float = float("nan")
    n_eff: int = 0
    outliers: int = 0

    @property
    def has_interval(self) -> bool:
        """True when this verdict was graded against a bootstrap interval."""
        return self.kappa_ci_low == self.kappa_ci_low  # not NaN


@dataclass(frozen=True)
class ValidationResult:
    """The whole validation run."""

    verdicts: tuple[ScenarioVerdict, ...]
    ordering_ok: bool

    @property
    def passed(self) -> bool:
        return self.ordering_ok and all(v.passed for v in self.verdicts)

    def render(self) -> str:
        lines = []
        for v in self.verdicts:
            mark = "PASS" if v.passed else "FAIL"
            interval = (
                f" [{v.kappa_ci_low:.4f}, {v.kappa_ci_high:.4f}]"
                f" n_eff={v.n_eff}"
                + (f" outliers={v.outliers}" if v.outliers else "")
                if v.has_interval
                else ""
            )
            lines.append(
                f"[{mark}] {v.key:28s} kappa {v.kappa_measured:.4f}"
                f"{interval} "
                f"(paper {v.kappa_paper:.4f})  I {v.i_measured:.4f} "
                f"(paper {v.i_paper:.4f})"
            )
            for f in v.failures:
                lines.append(f"       - {f}")
        lines.append(
            f"[{'PASS' if self.ordering_ok else 'FAIL'}] "
            "cross-environment kappa ordering matches Table 2"
        )
        lines.append(
            f"overall: {'PASS' if self.passed else 'FAIL'} "
            f"({sum(v.passed for v in self.verdicts)}/{len(self.verdicts)} "
            "environments in tolerance)"
        )
        return "\n".join(lines) + "\n"


def _check_one(
    sc: Scenario,
    *,
    kappa_abs_tol: float,
    i_rel_tol: float,
    stability=None,
    report=None,
) -> tuple[ScenarioVerdict, float]:
    failures: list[str] = []
    kappa_abs_tol = kappa_abs_tol * _KAPPA_TOL_MULTIPLIER.get(sc.key, 1.0)
    i_rel_tol = i_rel_tol * _I_TOL_MULTIPLIER.get(sc.key, 1.0)

    interval = {}
    if stability is not None:
        # CI-aware grading: the screened cross-seed means carry the κ
        # check, and the distance that must clear the tolerance is from
        # the paper value to the *interval*, not to the point estimate —
        # an environment is out of tolerance only when its whole
        # plausible range is.
        lo, k, hi = stability.interval()
        i = float(stability.i_values.mean())
        u = float(stability.u_values.mean())
        o = float(stability.o_values.mean())
        kappa_gap = max(lo - sc.paper.kappa, sc.paper.kappa - hi, 0.0)
        interval = dict(
            kappa_ci_low=lo,
            kappa_ci_high=hi,
            n_eff=stability.n_eff,
            outliers=stability.screen.n_flagged,
        )
    else:
        k = float(report.values("kappa").mean())
        i = float(report.values("I").mean())
        u = float(report.values("U").mean())
        o = float(report.values("O").mean())
        kappa_gap = abs(k - sc.paper.kappa)

    if kappa_gap > kappa_abs_tol:
        failures.append(
            f"kappa off by {kappa_gap:.4f} (tol {kappa_abs_tol})"
        )
    if sc.paper.i >= 0.01 and abs(i - sc.paper.i) > i_rel_tol * sc.paper.i:
        failures.append(
            f"I off by {abs(i - sc.paper.i) / sc.paper.i:.0%} (tol {i_rel_tol:.0%})"
        )
    if sc.paper.u == 0.0 and u != 0.0:
        failures.append(f"unexpected drops: U = {u:.2e}")
    if sc.paper.u > 0.0 and u == 0.0:
        failures.append("expected drops (paper U > 0) but observed none")
    if sc.paper.o == 0.0 and o != 0.0:
        failures.append(f"unexpected reordering: O = {o:.2e}")
    if sc.paper.o > 0.0 and o == 0.0:
        failures.append("expected reordering (paper O > 0) but observed none")

    return (
        ScenarioVerdict(
            key=sc.key,
            passed=not failures,
            kappa_measured=k,
            kappa_paper=sc.paper.kappa,
            i_measured=i,
            i_paper=sc.paper.i,
            failures=tuple(failures),
            **interval,
        ),
        k,
    )


def validate_against_paper(
    *,
    kappa_abs_tol: float = 0.08,
    i_rel_tol: float = 0.5,
    ci: bool = False,
    ci_seeds: int = 4,
    **run_kwargs,
) -> ValidationResult:
    """Rerun all nine environments and grade them against Table 2.

    Requires ``duration_scale >= 0.05`` (given, or else from
    ``REPRO_SCALE``): the dual-replayer environment's inter-replayer start
    offsets are duration-*independent* (milliseconds of scheduling
    latency), so below ~15 ms captures they dominate the window and O/L
    leave the paper's regime.  Shorter scales are fine for
    structural tests, not for grading magnitudes.

    ``ci=True`` grades each environment against a ``ci_seeds``-session
    stability screen instead of one series: κ must bring its whole
    bootstrap interval within tolerance of the paper value (measured from
    the nearest interval edge), and every verdict carries the interval
    columns.  This is both stricter (a wobbly environment whose point
    estimate lands in tolerance by luck now fails) and fairer (a stable
    environment is not failed for one unlucky realization).
    """
    scale = run_kwargs.get("duration_scale")
    if scale is None:
        scale = default_duration_scale()
    if scale < 0.05:
        raise ValueError(
            f"validation needs duration_scale >= 0.05 (got {scale}); "
            "the dual-replayer offsets do not shrink with the window"
        )
    keys = [sc.key for sc in SCENARIOS]
    if ci:
        screens = screen_scenarios(keys, ci_seeds, **run_kwargs)
        reports = [None] * len(keys)
    else:
        screens = [None] * len(keys)
        reports = run_scenarios(keys, **run_kwargs)
    verdicts = []
    measured_k = {}
    for sc, stability, report in zip(SCENARIOS, screens, reports):
        verdict, k = _check_one(
            sc, kappa_abs_tol=kappa_abs_tol, i_rel_tol=i_rel_tol,
            stability=stability, report=report,
        )
        verdicts.append(verdict)
        measured_k[sc.key] = k

    paper_order = sorted(SCENARIOS, key=lambda s: s.paper.kappa)
    measured_order = sorted(SCENARIOS, key=lambda s: measured_k[s.key])
    # Grade ordering on the well-separated groups: environments whose
    # paper kappas differ by < 0.01 (e.g. the three quiet 80G rows) may
    # legitimately swap.
    ordering_ok = True
    for a, b in zip(paper_order[:-1], paper_order[1:]):
        if b.paper.kappa - a.paper.kappa < 0.01:
            continue
        if measured_k[b.key] <= measured_k[a.key]:
            ordering_ok = False
    del measured_order
    return ValidationResult(verdicts=tuple(verdicts), ordering_ok=ordering_ok)
