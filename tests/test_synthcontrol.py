"""Simplex projection, weight fitting, and placebo inference.

Weight recovery is checked against dense grid searches over the simplex;
the projection is checked against its defining optimality property (no
feasible point may be closer to the input).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalpanel.synthcontrol as sc
from causalpanel.errors import ConvergenceWarning, SpecError, ValidationError
from causalpanel.synthcontrol import (
    SynthFit,
    SynthSpec,
    fit_synth,
    fit_weights,
    project_to_simplex,
    randomization_inference,
)

from _builders import day, make_panel


class TestProjectToSimplex:
    def test_feasible_point_unchanged(self):
        np.testing.assert_allclose(
            project_to_simplex([0.5, 0.5]), [0.5, 0.5], atol=1e-12
        )

    def test_clamps_to_vertex(self):
        np.testing.assert_allclose(project_to_simplex([2.0, 0.0]), [1.0, 0.0], atol=1e-12)

    def test_interior_shift(self):
        # all coordinates stay positive, so both drop by theta = (sum-1)/n
        np.testing.assert_allclose(
            project_to_simplex([0.8, 0.6]), [0.6, 0.4], atol=1e-12
        )

    def test_single_coordinate(self):
        np.testing.assert_allclose(project_to_simplex([-3.0]), [1.0], atol=1e-15)

    @given(
        v=st.lists(
            st.floats(-50, 50, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_output_feasible(self, v):
        w = project_to_simplex(v)
        assert (w >= 0).all()
        assert abs(w.sum() - 1.0) <= 1e-9

    @given(
        v=st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=6,
        ),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_feasible_point_is_closer(self, v, seed):
        # defining property of the Euclidean projection
        w = project_to_simplex(v)
        v = np.asarray(v, dtype=float)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            z = rng.dirichlet(np.ones(v.size))
            assert np.sum((v - w) ** 2) <= np.sum((v - z) ** 2) + 1e-9

    def test_idempotent(self):
        w = project_to_simplex([3.0, -1.0, 0.4, 0.2])
        np.testing.assert_allclose(project_to_simplex(w), w, atol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            project_to_simplex([])
        with pytest.raises(ValidationError):
            project_to_simplex([1.0, np.inf])


def donor_pool(seed, T0=60, J=5, loc=5.0):
    rng = np.random.default_rng(seed)
    return rng.normal(loc, 1.0, (T0, J)), rng


class TestFitWeights:
    def test_vertex_optimum(self):
        A, _ = donor_pool(1)
        b = A[:, 0].copy()
        w, rmse = fit_weights(b, A)
        assert w[0] == pytest.approx(1.0, abs=1e-4)
        assert rmse == pytest.approx(0.0, abs=1e-6)

    def test_two_donor_blend_matches_grid_oracle(self):
        A, _ = donor_pool(2, J=2)
        b = 0.3 * A[:, 0] + 0.7 * A[:, 1]
        w, rmse = fit_weights(b, A)
        grid = np.arange(0.0, 1.0 + 1e-12, 0.001)
        objs = [np.sum((b - g * A[:, 0] - (1 - g) * A[:, 1]) ** 2) for g in grid]
        best = grid[int(np.argmin(objs))]
        assert best == pytest.approx(0.3, abs=1e-12)
        assert w[0] == pytest.approx(best, abs=1e-4)
        assert w[1] == pytest.approx(1.0 - best, abs=1e-4)
        assert rmse < 1e-6

    def test_five_donor_blend_with_irrelevant_donors(self):
        A, _ = donor_pool(3, J=5)
        truth = np.array([0.2, 0.5, 0.3, 0.0, 0.0])
        b = A @ truth
        w, rmse = fit_weights(b, A)
        np.testing.assert_allclose(w, truth, atol=1e-3)
        assert w[3] < 1e-3 and w[4] < 1e-3
        assert rmse < 1e-6

    def test_single_donor_pool_allowed(self):
        A, _ = donor_pool(4, J=1)
        w, _ = fit_weights(A[:, 0] * 1.1, A)
        np.testing.assert_allclose(w, [1.0])

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=50, deadline=None)
    def test_feasibility_and_vertex_dominance(self, seed):
        rng = np.random.default_rng(seed)
        T0 = int(rng.integers(2, 30))
        J = int(rng.integers(1, 8))
        A = rng.normal(0, 1, (T0, J))
        b = rng.normal(0, 1, T0)
        w, rmse = fit_weights(b, A)
        assert (w >= -1e-9).all() and (w <= 1 + 1e-9).all()
        assert abs(w.sum() - 1.0) <= 1e-9
        obj = rmse * rmse * T0
        vertex_best = min(np.sum((A[:, j] - b) ** 2) for j in range(J))
        assert obj <= vertex_best + 1e-8 * (1.0 + vertex_best)

    def test_objective_path_monotone(self):
        A, rng = donor_pool(5, J=6)
        b = rng.normal(5.0, 1.0, A.shape[0])
        _, _, converged, path = fit_weights(b, A, return_objectives=True)
        assert converged
        diffs = np.diff(path)
        assert (diffs <= 1e-12 * (1.0 + np.abs(path[:-1]))).all()

    def test_non_convergence_warns_and_returns_feasible(self):
        # a three-donor blend needs at least two steps from any vertex
        A, _ = donor_pool(6, J=6)
        b = A @ np.array([0.0, 0.5, 0.0, 0.3, 0.2, 0.0])
        with pytest.warns(ConvergenceWarning, match="without KKT certificate"):
            w, _, converged, path = fit_weights(
                b, A, max_iterations=1, return_objectives=True
            )
        assert not converged
        assert path.size == 2
        assert (w >= 0).all() and abs(w.sum() - 1.0) <= 1e-9
        *_, converged, full_path = fit_weights(b, A, return_objectives=True)
        assert converged and full_path.size > 2
        assert full_path[-1] < path[-1]

    def test_degenerate_constant_pre_period(self):
        # constant series: every simplex point fits equally; result must
        # still be feasible and no worse than any vertex
        A = np.full((10, 3), 4.0)
        b = np.full(10, 4.0)
        w, rmse = fit_weights(b, A)
        assert abs(w.sum() - 1.0) <= 1e-9
        assert rmse == pytest.approx(0.0, abs=1e-9)

    @given(
        seed=st.integers(0, 10_000),
        duplicates=st.integers(0, 2),
        wide=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_kkt_oracle(self, seed, duplicates, wide):
        # optimality read off the returned weights alone: feasible, equal
        # gradient on the support, and no descent direction off it
        rng = np.random.default_rng(seed)
        J = int(rng.integers(3 if wide else 1, 10))
        T0 = int(rng.integers(2, J)) if wide else int(rng.integers(max(J, 2), 40))
        A = rng.normal(5.0, float(10.0 ** rng.integers(-2, 2)), (T0, J))
        for _ in range(duplicates if J > 1 else 0):
            A[:, rng.integers(0, J)] = A[:, rng.integers(0, J)]
        b = rng.normal(5.0, 1.0, T0)
        w, _, converged, _ = fit_weights(b, A, return_objectives=True)
        assert converged
        assert (w >= 0).all() and abs(w.sum() - 1.0) <= 1e-9
        grad = 2.0 * A.T @ (A @ w - b)
        support = w > 0
        level = grad[support] @ w[support]
        slack = 1e-7 * max(1.0, float(np.max(np.sum((A - b[:, None]) ** 2, axis=0))))
        assert np.all(np.abs(grad[support] - level) <= slack)
        assert np.all(grad[~support] >= level - slack)

    @pytest.mark.parametrize("case", ["duplicate_donors", "fewer_dates_than_donors"])
    def test_degenerate_gram_deterministic_and_equivariant(self, case):
        rng = np.random.default_rng(17)
        n, t0 = 12, 8
        if case == "fewer_dates_than_donors":
            n, t0 = 7, 3
        series = {f"d{j}": list(rng.normal(5.0, 1.0, n)) for j in range(6)}
        if case == "duplicate_donors":
            series["d4"] = list(series["d1"])
            series["d5"] = list(series["d1"])
        series["treated"] = list(
            0.5 * np.array(series["d1"]) + 0.5 * np.array(series["d2"])
            + rng.normal(0.0, 0.1, n)
        )
        panel = make_panel(series)
        donors = tuple(f"d{j}" for j in range(6))
        order = [3, 5, 0, 4, 2, 1]
        fwd = fit_synth(panel, SynthSpec("treated", donors, day(t0)))
        again = fit_synth(panel, SynthSpec("treated", donors, day(t0)))
        perm = fit_synth(
            panel, SynthSpec("treated", tuple(donors[i] for i in order), day(t0))
        )
        assert fwd.converged
        np.testing.assert_array_equal(fwd.weights, again.weights)
        np.testing.assert_array_equal(fwd.weights[order], perm.weights)
        assert fwd.pre_rmse == again.pre_rmse == perm.pre_rmse
        np.testing.assert_array_equal(fwd.counterfactual, perm.counterfactual)
        if case == "duplicate_donors":
            # the tie between identical donors goes to the lowest sorted id
            assert fwd.weights[1] > 0.0
            assert fwd.weights[4] == 0.0 and fwd.weights[5] == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            fit_weights(np.ones(5), np.ones((4, 2)))
        with pytest.raises(SpecError):
            fit_weights(np.ones(1), np.ones((1, 2)))
        with pytest.raises(ValidationError):
            fit_weights(np.ones(4), np.ones((4, 0)))


def blend_panel(stage=0.0, w=(0.4, 0.6), n=30, t0=20, noise=0.0, seed=0, extra=()):
    """Treated = w-blend of two seasonal donors, plus a post-period shift."""
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    d1 = 5.0 + np.sin(2 * np.pi * t / 7.0)
    d2 = 6.0 + np.cos(2 * np.pi * t / 11.0)
    treated = w[0] * d1 + w[1] * d2 + stage * (t >= t0)
    series = {
        "treated": list(treated + noise * rng.normal(0, 1, n)),
        "d1": list(d1),
        "d2": list(d2),
    }
    for name, values in extra:
        series[name] = list(values)
    return make_panel(series)


class TestFitSynth:
    def test_noiseless_shift_recovered(self):
        panel = blend_panel(stage=2.0)
        spec = SynthSpec("treated", ("d1", "d2"), day(20))
        fit = fit_synth(panel, spec)
        np.testing.assert_allclose(fit.weights, [0.4, 0.6], atol=1e-3)
        assert fit.pre_rmse < 1e-6
        post_gap = fit.gap[20:]
        assert np.nanmean(post_gap) == pytest.approx(2.0, abs=1e-3)
        assert fit.post_pre_ratio > 100.0

    def test_gap_identity_exact(self):
        panel = blend_panel(stage=1.0, noise=0.1, seed=3)
        fit = fit_synth(panel, SynthSpec("treated", ("d1", "d2"), day(20)))
        y = panel.outcomes[panel.unit_index("treated")]
        defined = ~np.isnan(fit.gap)
        assert defined.all()
        assert (fit.gap[defined] == (y - fit.counterfactual)[defined]).all()

    def test_null_case_small_gap(self):
        panel = blend_panel(stage=0.0, noise=0.05, seed=9)
        fit = fit_synth(panel, SynthSpec("treated", ("d1", "d2"), day(20)))
        post_gap = fit.gap[20:]
        assert abs(np.nanmean(post_gap)) < 3 * 0.05 / np.sqrt(10) + 0.05

    def test_masked_donor_date_excluded(self):
        panel = blend_panel(stage=2.0)
        masked = make_panel(
            {u: list(panel.outcomes[panel.unit_index(u)]) for u in panel.unit_ids},
            mask={"d1": [False] * 5 + [True] + [False] * 24},
        )
        fit = fit_synth(masked, SynthSpec("treated", ("d1", "d2"), day(20)))
        assert np.isnan(fit.counterfactual[5])
        assert np.isnan(fit.gap[5])
        np.testing.assert_allclose(fit.weights, [0.4, 0.6], atol=1e-3)

    def test_donor_permutation_equivariance_bitwise(self):
        panel = blend_panel(stage=1.5, noise=0.2, seed=21)
        fwd = fit_synth(panel, SynthSpec("treated", ("d1", "d2"), day(20)))
        rev = fit_synth(panel, SynthSpec("treated", ("d2", "d1"), day(20)))
        assert fwd.weights[0] == rev.weights[1]
        assert fwd.weights[1] == rev.weights[0]
        assert fwd.pre_rmse == rev.pre_rmse
        assert fwd.post_pre_ratio == rev.post_pre_ratio
        np.testing.assert_array_equal(fwd.counterfactual, rev.counterfactual)

    def test_all_post_masked(self):
        panel = blend_panel()
        masked = make_panel(
            {u: list(panel.outcomes[panel.unit_index(u)]) for u in panel.unit_ids},
            mask={"treated": [False] * 20 + [True] * 10},
        )
        with pytest.raises(SpecError):
            fit_synth(masked, SynthSpec("treated", ("d1", "d2"), day(20)))

    def test_too_few_pre_dates(self):
        panel = blend_panel()
        with pytest.raises(SpecError):
            fit_synth(panel, SynthSpec("treated", ("d1", "d2"), day(1)))

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            SynthSpec("a", ("a", "b"), day(5))
        with pytest.raises(ValidationError):
            SynthSpec("a", ("b",), day(5))
        with pytest.raises(ValidationError):
            SynthSpec("a", ("b", "b"), day(5))
        with pytest.raises(ValidationError):
            SynthSpec("a", ("b", "c"), day(5), tolerance=0.0)
        with pytest.raises(ValidationError, match="finite, not inf"):
            SynthSpec("a", ("b", "c"), day(5), tolerance=float("inf"))

    def test_fit_weight_feasibility_enforced_in_result(self):
        with pytest.raises(ValidationError):
            SynthFit(
                weights=np.array([0.7, 0.7]),
                pre_rmse=0.0,
                counterfactual=np.zeros(3),
                gap=np.zeros(3),
                post_pre_ratio=1.0,
            )


class TestRandomizationInference:
    @pytest.mark.filterwarnings("error::causalpanel.errors.ConvergenceWarning")
    def test_strong_effect_minimum_p(self):
        # near-duplicate donors: the fit and every placebo refit converge
        rng = np.random.default_rng(33)
        n, t0 = 40, 30
        t = np.arange(n, dtype=float)
        base = 5.0 + np.sin(2 * np.pi * t / 9.0)
        series = {}
        for j in range(4):
            series[f"d{j}"] = list(base + rng.normal(0, 0.05, n))
        series["treated"] = list(base + rng.normal(0, 0.05, n) + 10.0 * (t >= t0))
        panel = make_panel(series)
        spec = SynthSpec("treated", ("d0", "d1", "d2", "d3"), day(t0))
        fit = fit_synth(panel, spec)
        assert fit.converged
        p, gaps = randomization_inference(panel, spec, fit)
        assert p == pytest.approx(1.0 / 5.0)
        assert set(gaps) == {"d0", "d1", "d2", "d3"}
        assert all(g is not None for g in gaps.values())

    def test_treated_ratio_smallest_gives_p_one(self):
        # treated has a terrible pre-fit and a mild post-gap, so its ratio
        # sits below both placebo ratios
        d1 = [1.0, 2.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 2.0, 1.0]
        d2 = [2.0, 1.0, 2.0, 1.0, 2.0, 2.0, 1.0, 2.0, 1.0, 2.0]
        treated = [5.0, -5.0, 5.0, -5.0, 5.0, 1.5, 1.5, 1.5, 1.5, 1.5]
        panel = make_panel({"treated": treated, "d1": d1, "d2": d2})
        spec = SynthSpec("treated", ("d1", "d2"), day(5))
        fit = fit_synth(panel, spec)
        p, _ = randomization_inference(panel, spec, fit)
        assert p == 1.0

    def test_skipped_placebo_adjusts_denominator(self, monkeypatch):
        panel = blend_panel(stage=2.0, noise=0.1, seed=5, extra=[
            ("d3", 5.5 + 0.3 * np.arange(30.0) ** 0.5),
        ])
        spec = SynthSpec("treated", ("d1", "d2", "d3"), day(20))
        fit = fit_synth(panel, spec)

        real_impl = sc._synth_impl

        def failing_impl(panel_, treated_unit, *args, **kwargs):
            if treated_unit == "d3":
                raise SpecError("synthetic failure for testing")
            return real_impl(panel_, treated_unit, *args, **kwargs)

        monkeypatch.setattr(sc, "_synth_impl", failing_impl)
        p, gaps = randomization_inference(panel, spec, fit)
        assert gaps["d3"] is None
        assert gaps["d1"] is not None and gaps["d2"] is not None
        # denominator is J + 1 - skipped = 3, and the strong effect keeps
        # the treated ratio on top
        assert p == pytest.approx(1.0 / 3.0)

    def test_p_never_zero(self):
        panel = blend_panel(stage=5.0)
        spec = SynthSpec("treated", ("d1", "d2"), day(20))
        fit = fit_synth(panel, spec)
        p, _ = randomization_inference(panel, spec, fit)
        assert p >= 1.0 / 3.0
