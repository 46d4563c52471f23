"""OLS core and the two-way DiD design on hand-built panels."""

import ast
import math
import os
import subprocess
import sys
from datetime import date
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import stdtr, stdtrit

import causalpanel
from causalpanel.did import (
    DidFit,
    DidSpec,
    _cells,
    _t_quantile,
    _t_two_sided,
    _two_way_residuals,
    fit_did,
    parallel_trends_diagnostic,
    solve_ols,
)
from causalpanel.errors import (
    DiagnosticUnavailableError,
    SingularDesignError,
    SpecError,
    ValidationError,
)

from _builders import day, make_panel


def gauss_solve(A, b):
    """Explicit elimination with partial pivoting, pure Python; used as an
    independent normal-equations oracle."""
    A = [list(map(float, row)) for row in A]
    b = list(map(float, b))
    n = len(A)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col]))
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            f = A[r][col] / A[col][col]
            for c in range(col, n):
                A[r][c] -= f * A[col][c]
            b[r] -= f * b[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = b[r] - sum(A[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / A[r][r]
    return x


class TestSolveOls:
    def test_identity_system(self):
        coef, resid, _ = solve_ols(np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(coef, [1.0, 2.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(resid, 0.0, atol=1e-12)

    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([np.ones(4), x])
        coef, resid, _ = solve_ols(X, 2.0 + 3.0 * x)
        np.testing.assert_allclose(coef, [2.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(resid, 0.0, atol=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(1234)
        X = rng.normal(0, 1, (50, 4))
        y = rng.normal(0, 1, 50)
        coef, resid, stderrs = solve_ols(X, y)
        ref = gauss_solve((X.T @ X).tolist(), (X.T @ y).tolist())
        np.testing.assert_allclose(coef, ref, rtol=1e-8)
        # classical stderrs against the explicit inverse from the oracle
        dof = 50 - 4
        sigma2 = float(resid @ resid) / dof
        XtX = X.T @ X
        cols = np.array([gauss_solve(XtX.tolist(), list(e)) for e in np.eye(4)]).T
        np.testing.assert_allclose(stderrs, np.sqrt(sigma2 * np.diag(cols)), rtol=1e-8)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_residuals_orthogonal_to_design(self, seed):
        rng = np.random.default_rng(seed)
        n, p = 30, 5
        X = rng.normal(0, 1, (n, p))
        y = rng.normal(0, 1, n)
        _, resid, _ = solve_ols(X, y)
        scale = np.linalg.norm(X, axis=0) * np.linalg.norm(resid) + 1e-30
        assert np.all(np.abs(X.T @ resid) / scale < 1e-8)

    def test_duplicate_column_named(self):
        x = np.arange(6.0)
        X = np.column_stack([np.ones(6), x, x])
        with pytest.raises(SingularDesignError, match="rank deficient"):
            solve_ols(X, np.arange(6.0))

    def test_underdetermined_rejected(self):
        with pytest.raises(ValidationError):
            solve_ols(np.ones((2, 3)), np.ones(2))

    def test_non_finite_rejected(self):
        X = np.ones((4, 2))
        X[1, 1] = np.inf
        with pytest.raises(ValidationError):
            solve_ols(X, np.ones(4))

    def test_zero_dof_stderrs_are_nan(self):
        _, _, stderrs = solve_ols(np.eye(2), np.array([1.0, 2.0]))
        assert np.isnan(stderrs).all()


class TestStudentT:
    """The numpy-free t distribution against scipy.special as an oracle,
    and dof 1 and 2 against their closed forms."""

    @given(
        dof=st.one_of(st.integers(3, 200), st.sampled_from([1000, 100_000])),
        log_t=st.floats(-8.0, 3.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=400, deadline=None)
    def test_two_sided_p_matches_scipy(self, dof, log_t, sign):
        t = sign * 10.0**log_t
        # 1e-12 relative holds down to p ~ 1e-300; the largest errors
        # (~2e-13) come from exp() of exponents near -700
        assert math.isclose(
            _t_two_sided(t, dof), 2.0 * stdtr(dof, -abs(t)), rel_tol=1e-12, abs_tol=1e-300
        )

    def test_quantile_matches_scipy(self):
        off = [
            dof
            for dof in [*range(3, 201), 1000, 100_000]
            if not math.isclose(_t_quantile(dof, 0.975), stdtrit(dof, 0.975), rel_tol=1e-13)
        ]
        assert off == []

    @given(log_t=st.floats(-8.0, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_closed_forms(self, log_t):
        # scipy's stdtr(1, t) is off by up to 3e-9 relative near t = 1e-8,
        # so dof 1 and 2 are checked against the textbook formulas instead
        t = 10.0**log_t
        cauchy = 2.0 / math.pi * math.atan(1.0 / t)
        assert math.isclose(_t_two_sided(t, 1), cauchy, rel_tol=1e-14)
        with localcontext() as ctx:
            ctx.prec = 40
            exact = 1 - Decimal(t) / (2 + Decimal(t) ** 2).sqrt()
        assert math.isclose(_t_two_sided(t, 2), float(exact), rel_tol=1e-14)

    def test_closed_form_quantiles(self):
        assert math.isclose(_t_quantile(1, 0.975), math.tan(math.pi * 0.475), rel_tol=1e-14)
        two = (2 * 0.975 - 1) / math.sqrt(2 * 0.975 * 0.025)
        assert math.isclose(_t_quantile(2, 0.975), two, rel_tol=1e-14)

    @given(
        dof=st.one_of(st.integers(1, 300), st.sampled_from([1000, 100_000, 10**9])),
        t=st.floats(0.0, 1e300),
        factor=st.floats(1.001, 1e6),
    )
    @settings(max_examples=400, deadline=None)
    def test_p_in_unit_interval_and_falls_with_t(self, dof, t, factor):
        # between adjacent floats p wiggles by rounding (up to 5e-14
        # relative, inside the 1e-12 bound above), so the two points are
        # at least a factor 1.001 apart
        near, far = _t_two_sided(t, dof), _t_two_sided(t * factor, dof)
        assert 0.0 <= far <= near <= 1.0


def test_no_module_imports_scipy():
    # the runtime needs numpy alone; scipy is a test-only oracle
    package = Path(causalpanel.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.append(path.name)
    assert importers == []


def test_cli_import_loads_no_scipy():
    src = str(Path(causalpanel.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, causalpanel.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def flat_effect_panel(tau=2.0, n=10, t0=5, base=5.0):
    """Control flat at base; treated flat pre, base+tau from t0 on."""
    control = [base] * n
    treated = [base] * t0 + [base + tau] * (n - t0)
    return make_panel({"T": treated, "C": control}), day(t0)


class TestFitDid:
    def test_noiseless_effect_recovered_exactly(self):
        panel, t0 = flat_effect_panel(tau=2.0)
        fit = fit_did(panel, DidSpec({"T"}, {"C"}, t0))
        assert fit.beta0 == pytest.approx(2.0, abs=1e-9)
        assert fit.p_value < 1e-10
        assert fit.n_obs == 20
        lo, hi = fit.confidence_interval
        assert lo <= fit.beta0 <= hi

    def test_identical_series_zero_effect(self):
        y = [5.0, 5.1, 4.9, 5.2, 5.0, 5.3, 4.8, 5.1]
        panel = make_panel({"A": y, "B": y})
        fit = fit_did(panel, DidSpec({"A"}, {"B"}, day(4)))
        assert fit.beta0 == pytest.approx(0.0, abs=1e-12)

    def test_parallel_slopes_absorbed(self):
        t = np.arange(12.0)
        control = 5.0 + 0.1 * t
        treated = 5.0 + 0.1 * t + 2.0 * (t >= 6)
        panel = make_panel({"T": list(treated), "C": list(control)})
        fit = fit_did(panel, DidSpec({"T"}, {"C"}, day(6)))
        assert fit.beta0 == pytest.approx(2.0, abs=1e-9)

    def test_unit_levels_absorbed(self):
        # each unit at its own level and all sharing one daily shock: the
        # unit and date effects take both, so the fit is exact
        n, t0 = 10, 5
        shock = np.random.default_rng(7).normal(0.0, 1.0, n)
        series = {}
        for i, unit in enumerate(["T1", "T2", "C1", "C2"]):
            bump = 2.0 * (np.arange(n) >= t0) if unit.startswith("T") else 0.0
            series[unit] = list(5.0 + 0.5 * i * i + shock + bump)
        fit = fit_did(make_panel(series), DidSpec({"T1", "T2"}, {"C1", "C2"}, day(t0)))
        assert fit.beta0 == pytest.approx(2.0, abs=1e-12)
        assert fit.stderr_beta0 < 1e-12
        assert fit.n_obs == 4 * n

    def test_treatment_absorbed_by_fixed_effects_raises(self):
        # the treated unit's post dates are observed for it alone, so
        # their date effects take its whole post-period level
        series = {"T": [5.0, 5.2, 5.1, 5.3, 7.0, 7.1, 0.0, 0.0],
                  "C": [4.0, 4.1, 4.3, 4.2, 0.0, 0.0, 4.4, 4.0]}
        absent = [False] * 4
        panel = make_panel(series, mask={"T": absent + [False, False, True, True],
                                         "C": absent + [True, True, False, False]})
        with pytest.raises(SingularDesignError) as err:  # and no RuntimeWarning
            fit_did(panel, DidSpec({"T"}, {"C"}, day(4)))
        assert str(err.value).endswith("dependent columns: treatment_effect")

    def test_no_residual_dof_raises(self):
        # one cycle of shared dates (0 and 4) and every other cell alone
        # on its date: the fixed effects and the treatment effect fit all
        # eight cells exactly
        rng = np.random.default_rng(3)
        series = {"T": list(rng.normal(5.0, 1.0, 8)), "C": list(rng.normal(4.0, 1.0, 8))}
        panel = make_panel(series, mask={
            "T": [False, False, True, True, False, False, True, True],
            "C": [False, True, True, False, False, True, True, False],
        })
        with pytest.raises(SpecError, match="no residual degrees of freedom"):
            fit_did(panel, DidSpec({"T"}, {"C"}, day(4)))

    def test_missing_units_listed(self):
        panel, t0 = flat_effect_panel()
        with pytest.raises(ValidationError, match="X"):
            fit_did(panel, DidSpec({"T"}, {"C", "X"}, t0))

    def test_empty_post_period(self):
        panel, _ = flat_effect_panel(n=10)
        with pytest.raises(SpecError):
            fit_did(panel, DidSpec({"T"}, {"C"}, day(10)))

    def test_too_few_pre_observations(self):
        panel, _ = flat_effect_panel(n=10)
        with pytest.raises(SpecError):
            fit_did(panel, DidSpec({"T"}, {"C"}, day(1)))

    def test_masked_cells_dropped(self):
        panel, t0 = flat_effect_panel(tau=2.0, n=10, t0=5)
        masked = make_panel(
            {
                "T": list(panel.outcomes[panel.unit_index("T")]),
                "C": list(panel.outcomes[panel.unit_index("C")]),
            },
            mask={"T": [False, True, False, False, False] + [False] * 5},
        )
        fit = fit_did(masked, DidSpec({"T"}, {"C"}, t0))
        assert fit.n_obs == 19
        assert fit.beta0 == pytest.approx(2.0, abs=1e-9)

    def test_location_invariance(self):
        panel, t0 = flat_effect_panel(tau=2.0)
        shifted = make_panel(
            {
                "T": list(panel.outcomes[0] + 11.0),
                "C": list(panel.outcomes[1] + 11.0),
            }
        )
        base = fit_did(panel, DidSpec({"T"}, {"C"}, t0))
        moved = fit_did(shifted, DidSpec({"T"}, {"C"}, t0))
        assert moved.beta0 == pytest.approx(base.beta0, abs=1e-9)

    def test_unit_order_invariance_is_exact(self):
        rng = np.random.default_rng(55)
        n, t0 = 14, 7
        series = {
            u: list(rng.normal(5.0, 1.0, n))
            for u in ["T1", "C1", "T2", "C2"]
        }
        spec = DidSpec({"T1", "T2"}, {"C1", "C2"}, day(t0))
        fit_a = fit_did(make_panel(series), spec)
        reordered = {u: series[u] for u in ["C2", "T2", "C1", "T1"]}
        fit_b = fit_did(make_panel(reordered), spec)
        assert fit_a == fit_b

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            DidSpec(set(), {"C"}, day(5))
        with pytest.raises(ValidationError):
            DidSpec({"A"}, set(), day(5))
        with pytest.raises(ValidationError):
            DidSpec({"A"}, {"A", "B"}, day(5))

    def test_fit_validation(self):
        with pytest.raises(ValidationError):
            DidFit(
                beta0=5.0,
                stderr_beta0=1.0,
                p_value=0.5,
                confidence_interval=(0.0, 1.0),
                n_obs=10,
            )


def dummy_design_fit(panel, spec):
    """beta0, its stderr and n_obs from solve_ols on the explicit design:
    a dummy for each unit, one for each observed date but the first, and
    the treatment indicator D."""
    observed, y, treated, post = _cells(panel, spec)
    dates = np.flatnonzero(observed.any(axis=0))
    cells = [(i, j) for i in range(observed.shape[0]) for j in dates if observed[i, j]]
    X = np.zeros((len(cells), observed.shape[0] + dates.size))
    for r, (i, j) in enumerate(cells):
        X[r, i] = 1.0
        k = int(np.searchsorted(dates, j))
        if k:
            X[r, observed.shape[0] + k - 1] = 1.0
        X[r, -1] = float(treated[i] and post[j])
    coef, _, stderrs = solve_ols(X, np.array([y[i, j] for i, j in cells]))
    return float(coef[-1]), float(stderrs[-1]), X.shape[0], X.shape[0] - X.shape[1]


class TestTwoWayOracle:
    """The fixed-effects elimination against solve_ols on the explicit
    unit and date dummy design, on small balanced and masked panels."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_units=st.integers(2, 5),
        n_dates=st.integers(4, 9),
        masked=st.sampled_from([0.0, 0.25]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_dummy_design(self, seed, n_units, n_dates, masked):
        rng = np.random.default_rng(seed)
        t0 = int(rng.integers(2, n_dates - 1))
        units = [f"U{i}" for i in range(n_units)]
        values = (
            rng.normal(5.0, 1.0, (n_units, n_dates))
            + rng.normal(0.0, 2.0, (n_units, 1))
            + rng.normal(0.0, 2.0, n_dates)
        )
        missing = rng.random((n_units, n_dates)) < masked
        panel = make_panel(
            {u: list(values[i]) for i, u in enumerate(units)},
            mask={u: list(missing[i]) for i, u in enumerate(units)},
        )
        n_treated = int(rng.integers(1, n_units))
        spec = DidSpec(set(units[:n_treated]), set(units[n_treated:]), day(t0))
        try:
            beta0, stderr, n_obs, dof = dummy_design_fit(panel, spec)
        except (SingularDesignError, ValidationError):
            assume(False)  # no unique fit
        assume(dof >= 1)
        try:
            fit = fit_did(panel, spec)
        except SpecError as err:
            assert "observations on each side" in str(err)
            assume(False)
        assert math.isclose(fit.beta0, beta0, rel_tol=1e-9)
        assert math.isclose(fit.stderr_beta0, stderr, rel_tol=1e-9)
        assert fit.n_obs == n_obs

        # the two-way residuals are orthogonal to every unit and date
        # indicator, and the fit's residual also to D
        observed, y, treated, post = _cells(panel, spec)
        seen = observed.any(axis=0)
        observed, y = observed[:, seen], y[:, seen]
        d = (treated[:, None] & post[seen]) & observed
        (y_res, d_res), _ = _two_way_residuals(observed, np.stack([y, d.astype(float)]))
        residuals = y_res - fit.beta0 * d_res
        scale = 1e-9 * float(np.abs(y).sum())
        for r in (y_res, d_res, residuals):
            assert np.abs(r.sum(axis=1)).max() <= scale
            assert np.abs(r.sum(axis=0)).max() <= scale
        assert abs(float(np.sum(residuals * d))) <= scale


def dummy_design_slope_gap(panel, spec):
    """The pre-period slope gap, its stderr and the residual dof from
    solve_ols on the explicit design over the pre-period cells: a dummy for
    each unit with such a cell, one for each of their dates but the first,
    and treated x (days since the panel's first date)."""
    observed, y, treated, post = _cells(panel, spec)
    pre = observed & ~post
    units, dates = np.flatnonzero(pre.any(axis=1)), np.flatnonzero(pre.any(axis=0))
    cells = [(i, j) for i in units for j in dates if pre[i, j]]
    X = np.zeros((len(cells), units.size + dates.size))
    for r, (i, j) in enumerate(cells):
        X[r, int(np.searchsorted(units, i))] = 1.0
        k = int(np.searchsorted(dates, j))
        if k:
            X[r, units.size + k - 1] = 1.0
        X[r, -1] = float(treated[i]) * (panel.dates[j] - panel.dates[0]).days
    coef, _, stderrs = solve_ols(X, np.array([y[i, j] for i, j in cells]))
    return float(coef[-1]), float(stderrs[-1]), X.shape[0] - X.shape[1]


class TestParallelTrends:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_units=st.integers(2, 5),
        n_dates=st.integers(5, 10),
        masked=st.sampled_from([0.0, 0.25]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_dummy_design(self, seed, n_units, n_dates, masked):
        """The slope gap from the fixed-effects elimination equals
        solve_ols's on the unit and date dummy design, as TestTwoWayOracle
        checks for beta0."""
        rng = np.random.default_rng(seed)
        t0 = int(rng.integers(3, n_dates))
        units = [f"U{i}" for i in range(n_units)]
        n_treated = int(rng.integers(1, n_units))
        values = (
            rng.normal(5.0, 1.0, (n_units, n_dates))
            + rng.normal(0.0, 2.0, (n_units, 1))
            + rng.normal(0.0, 2.0, n_dates)
            + 0.1 * (np.arange(n_units) < n_treated)[:, None] * np.arange(n_dates)
        )
        missing = rng.random((n_units, n_dates)) < masked
        panel = make_panel(
            {u: list(values[i]) for i, u in enumerate(units)},
            mask={u: list(missing[i]) for i, u in enumerate(units)},
        )
        spec = DidSpec(set(units[:n_treated]), set(units[n_treated:]), day(t0))
        try:
            gap, stderr, dof = dummy_design_slope_gap(panel, spec)
        except (SingularDesignError, ValidationError):
            assume(False)  # no unique fit
        assume(dof >= 1)
        try:
            got = parallel_trends_diagnostic(panel, spec)
        except DiagnosticUnavailableError as err:
            assert "at least 3 pre-period dates" in str(err)
            assume(False)
        assert math.isclose(got[0], gap, rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(got[1], stderr, rel_tol=1e-9)

    def test_slope_absorbed_by_fixed_effects_unavailable(self):
        """T's pre-period cells on days 0 and 1 are alone on their dates and
        its day-2 cell sets its unit effect, so the effects absorb treated x
        time: the diagnostic is unavailable (a pooled design reported a gap
        here, and an unguarded elimination a stderr of order 1e15), while
        fit_did still fits."""
        rng = np.random.default_rng(3)
        panel = make_panel(
            {u: list(rng.normal(5.0, 1.0, 12)) for u in ("T", "C", "C2")},
            mask={
                "T": [3 <= j <= 5 for j in range(12)],
                "C": [j < 2 for j in range(12)],
                "C2": [j < 2 for j in range(12)],
            },
        )
        spec = DidSpec({"T"}, {"C", "C2"}, day(6))
        fit_did(panel, spec)
        with pytest.raises(DiagnosticUnavailableError, match="dependent columns: treated_time"):
            parallel_trends_diagnostic(panel, spec)

    def test_shared_slope_zero_gap(self):
        t = np.arange(10.0)
        panel = make_panel({"T": list(1.0 + 0.1 * t), "C": list(3.0 + 0.1 * t)})
        gap, _ = parallel_trends_diagnostic(panel, DidSpec({"T"}, {"C"}, day(6)))
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_slope_difference_recovered(self):
        t = np.arange(10.0)
        panel = make_panel({"T": list(1.0 + 0.2 * t), "C": list(3.0 + 0.1 * t)})
        gap, _ = parallel_trends_diagnostic(panel, DidSpec({"T"}, {"C"}, day(6)))
        assert gap == pytest.approx(0.1, abs=1e-9)

    def test_requires_three_pre_dates(self):
        panel, _ = flat_effect_panel(n=10)
        with pytest.raises(DiagnosticUnavailableError):
            parallel_trends_diagnostic(panel, DidSpec({"T"}, {"C"}, day(2)))

    def test_gap_within_two_stderr_under_equal_slopes(self):
        # frozen-seed Monte Carlo: with truly parallel trends the gap should
        # sit inside 2 stderr in at least ~95% of draws
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(10_000 + seed)
            t = np.arange(30.0)
            panel = make_panel(
                {
                    "T": list(2.0 + 0.1 * t + rng.normal(0, 0.3, 30)),
                    "C": list(4.0 + 0.1 * t + rng.normal(0, 0.3, 30)),
                }
            )
            gap, se = parallel_trends_diagnostic(
                panel, DidSpec({"T"}, {"C"}, day(20))
            )
            if abs(gap) < 2.0 * se:
                hits += 1
        assert hits >= 90
