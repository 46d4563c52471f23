"""Segment costs and the exact segmentation solvers against brute-force oracles.

The oracle enumerates every breakpoint placement in lexicographic order and
scores it in exact rational arithmetic (Fraction(float) is lossless), keeping
only strictly better costs, so the first optimum kept is the
lexicographically smallest one. This checks both optimality and the
documented tie rule without sharing any code with the DP. The penalized
oracles score cost + lambda * k the same way, with lambda the float penalty
taken exactly, and keep the fewest segments, then the lexicographically
smallest breakpoints, among equal scores.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import detect_penalized_capped
from causalpanel.changepoint import (
    DEFAULT_K_MAX,
    MEDIAN_DIFF_TO_SIGMA,
    PenaltyConfig,
    Segmentation,
    detect_known_k,
    detect_penalized,
    effective_penalty,
    robust_noise_scale,
    segment_cost,
    stability_scan,
)


def exact_interval_cost(values):
    """Sum of squared deviations from the mean, as an exact Fraction."""
    fr = [Fraction(float(v)) for v in values]
    s1 = sum(fr)
    s2 = sum(f * f for f in fr)
    return s2 - s1 * s1 / len(fr)


def brute_force(series, K):
    """(breakpoints, exact cost) of the lex-smallest optimal segmentation."""
    n = len(series)
    best_bps, best_cost = None, None
    for bps in itertools.combinations(range(1, n), K - 1):
        bounds = (0,) + bps + (n,)
        cost = sum(
            exact_interval_cost(series[a:b]) for a, b in zip(bounds, bounds[1:])
        )
        if best_cost is None or cost < best_cost:
            best_bps, best_cost = bps, cost
    return best_bps, best_cost


def brute_force_penalized(series, lams):
    """For each penalty in ``lams``, the breakpoints of the oracle's choice
    over all 2^(n-1) segmentations: the least exact cost + lambda * k, then
    the fewest segments, then the lexicographically smallest breakpoints."""
    n = len(series)
    cost = {
        (a, b): exact_interval_cost(series[a:b])
        for a in range(n)
        for b in range(a + 1, n + 1)
    }
    # with k fixed, the score ranks as the cost: keep each k's best
    best_by_k = [
        min(
            (sum(cost[ab] for ab in zip((0,) + bps, bps + (n,))), bps)
            for bps in itertools.combinations(range(1, n), k - 1)
        )
        for k in range(1, n + 1)
    ]
    return [
        min((c + Fraction(lam) * (len(bps) + 1), len(bps), bps) for c, bps in best_by_k)[2]
        for lam in lams
    ]


def exact_penalized(series, lam):
    """The oracle's choice of :func:`brute_force_penalized` by an exact
    optimal-partitioning DP in Fractions, for series too long to enumerate:
    best[i] is the (score, segments, breakpoints) key of the best
    segmentation of [i, n), and keys compare as the oracle ranks them."""
    n = len(series)
    fr = [Fraction(float(v)) for v in series]
    s1, s2 = [Fraction(0)], [Fraction(0)]
    for f in fr:
        s1.append(s1[-1] + f)
        s2.append(s2[-1] + f * f)
    lam = Fraction(lam)
    best = [None] * n + [(Fraction(0), 0, ())]
    for i in range(n - 1, -1, -1):
        best[i] = min(
            (
                (s2[b] - s2[i]) - (s1[b] - s1[i]) ** 2 / (b - i) + best[b][0] + lam,
                best[b][1] + 1,
                ((b,) if b < n else ()) + best[b][2],
            )
            for b in range(i + 1, n + 1)
        )
    return best[0][2]


def penalized_score(seg, series, lam):
    """Exact cost + lambda * k of a segmentation."""
    cost = sum(exact_interval_cost(series[a:b]) for a, b in seg.segments())
    return cost + Fraction(lam) * seg.k


def two_pass_cost(values):
    """Naive mean-then-sum evaluation, independent of prefix sums."""
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values), mean


# magnitudes match the data the costs are built for (hours in 0..24,
# watts in the tens, z-scores near 0); prefix-sum costs lose absolute
# precision when the spread itself reaches ~1e5
finite_series = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=12,
)


class TestSegmentCost:
    def test_constant_segment(self):
        cost, mean = segment_cost([3.0, 3.0, 3.0], 0, 3)
        assert cost == 0.0
        assert mean == 3.0

    def test_two_point_variance_identity(self):
        cost, mean = segment_cost([1.0, 3.0], 0, 2)
        assert cost == 2.0
        assert mean == 2.0

    def test_matches_two_pass_on_slices(self):
        rng = np.random.default_rng(42)
        y = rng.normal(2.0, 3.0, 10)
        for start in range(10):
            for end in range(start + 1, 11):
                cost, mean = segment_cost(y, start, end)
                ref_cost, ref_mean = two_pass_cost(list(y[start:end]))
                assert cost == pytest.approx(ref_cost, abs=1e-12)
                assert mean == pytest.approx(ref_mean, abs=1e-12)

    @pytest.mark.parametrize("start,end", [(2, 2), (3, 2), (-1, 2), (0, 9)])
    def test_empty_or_out_of_range_interval(self, start, end):
        with pytest.raises(IndexError):
            segment_cost([1.0, 2.0, 3.0, 4.0], start, end)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            segment_cost([1.0, np.nan, 2.0], 0, 3)

    def test_large_common_offset_keeps_precision(self):
        # a series hovering near 1e6 must still resolve sub-unit segment
        # costs; the internal centering makes the prefix sums live on the
        # variation scale instead of the level scale
        rng = np.random.default_rng(8)
        noise = rng.normal(0.0, 0.5, 50)
        base_cost, _ = segment_cost(noise, 10, 40)
        off_cost, off_mean = segment_cost(noise + 1e6, 10, 40)
        assert off_cost == pytest.approx(base_cost, abs=1e-9)
        assert off_mean == pytest.approx(1e6 + np.mean(noise[10:40]), abs=1e-9)


class TestKnownK:
    def test_exact_step(self):
        seg = detect_known_k([0, 0, 0, 1, 1, 1], 2)
        assert seg.breakpoints == (3,)
        assert seg.total_cost == 0.0
        assert seg.segment_means == (0.0, 1.0)

    def test_single_segment_is_total_ss(self):
        rng = np.random.default_rng(3)
        y = rng.normal(0, 1, 9)
        seg = detect_known_k(y, 1)
        assert seg.breakpoints == ()
        ref_cost, _ = two_pass_cost(list(y))
        assert seg.total_cost == pytest.approx(ref_cost, abs=1e-12)

    def test_k_equals_n(self):
        y = [4.0, -1.0, 2.5]
        seg = detect_known_k(y, 3)
        assert seg.breakpoints == (1, 2)
        assert seg.total_cost == 0.0
        assert seg.segment_means == (4.0, -1.0, 2.5)

    @pytest.mark.parametrize("bad_k", [0, -1, 7])
    def test_k_out_of_range(self, bad_k):
        with pytest.raises(ValueError):
            detect_known_k([1.0, 2.0, 3.0], bad_k)

    def test_matches_brute_force_on_gaussian_series(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            n = int(rng.integers(5, 15))
            y = rng.normal(0, 1, n)
            for K in range(1, min(4, n) + 1):
                seg = detect_known_k(y, K)
                bps, cost = brute_force(list(y), K)
                assert seg.breakpoints == bps
                assert seg.total_cost == pytest.approx(float(cost), abs=1e-9)

    def test_matches_brute_force_on_tie_heavy_integers(self):
        # binary series produce many exactly tied segmentations, exercising
        # the lexicographic rule; rational cost gaps here are at least
        # 1/lcm(1..10), far above float error, so the float DP must land on
        # the exact-arithmetic answer
        rng = np.random.default_rng(99)
        for _ in range(60):
            n = int(rng.integers(4, 11))
            y = rng.integers(0, 2, n).astype(float)
            for K in range(1, min(4, n) + 1):
                seg = detect_known_k(y, K)
                bps, cost = brute_force(list(y), K)
                assert seg.breakpoints == bps
                assert seg.total_cost == pytest.approx(float(cost), abs=1e-9)

    def test_constant_runs_resolve_to_leftmost(self):
        # runs of non-integer levels tie in exact arithmetic, not in the
        # float prefix sums: [1.25]*4 + [-1.72]*3 + [0.27]*4 in 4 segments
        # splits one run anywhere, and the first place is after index 0
        rng = np.random.default_rng(3)
        cases = 0
        for _ in range(150):
            runs = int(rng.integers(1, 5))
            levels = np.round(rng.uniform(-3.0, 3.0, runs), int(rng.integers(1, 3)))
            y = np.repeat(levels, rng.integers(1, 5, runs)) * rng.choice([1.0, 0.1, 7.3])
            if not 2 <= len(y) <= 11:
                continue
            for K in range(1, min(4, len(y)) + 1):
                assert detect_known_k(y, K).breakpoints == brute_force(list(y), K)[0]
                cases += 1
        assert cases >= 400

    def test_all_zero_ties_resolve_to_leftmost(self):
        seg = detect_known_k([0.0] * 6, 3)
        assert seg.breakpoints == (1, 2)
        assert seg.total_cost == 0.0

    def test_segmentation_validates_breakpoints(self):
        with pytest.raises(ValueError):
            Segmentation(breakpoints=(3, 3), segment_means=(0.0,) * 3, total_cost=0.0, n=6)
        with pytest.raises(ValueError):
            Segmentation(breakpoints=(2,), segment_means=(0.0,), total_cost=0.0, n=6)

    def test_fitted_step_function(self):
        seg = detect_known_k([0, 0, 4, 4], 2)
        np.testing.assert_array_equal(seg.fitted(), [0.0, 0.0, 4.0, 4.0])


class TestPenalized:
    def test_constant_series_single_segment(self):
        for kind in ("aic", "bic"):
            seg = detect_penalized([2.5] * 50, PenaltyConfig(kind=kind))
            assert seg.breakpoints == ()

    def test_manual_zero_penalty_overfits_to_cap(self):
        # no k_max caps the solve: a zero penalty on a ramp with no two
        # equal values fits one segment per point, above DEFAULT_K_MAX
        y = np.arange(30.0)
        seg = detect_penalized(y, PenaltyConfig(kind="manual", lam=0.0))
        assert seg.k == 30 > DEFAULT_K_MAX
        assert seg.breakpoints == tuple(range(1, 30))
        assert seg.total_cost == 0.0

    def test_step_signal_bic(self):
        rng = np.random.default_rng(11)
        y = rng.normal(0, 0.2, 200) + 5.0 * (np.arange(200) >= 100)
        seg = detect_penalized(y, PenaltyConfig(kind="bic"))
        assert seg.k == 2
        assert abs(seg.breakpoints[0] - 100) <= 2

    def test_penalized_tie_prefers_smaller_k(self):
        # [0,0,1,1]: k=1 cost 1.0, k=2 cost 0.0; lam=1 makes both penalized
        # costs exactly 2.0, so the smaller model must win
        seg = detect_penalized([0.0, 0.0, 1.0, 1.0], PenaltyConfig(kind="manual", lam=1.0))
        assert seg.breakpoints == ()

    def test_noise_scale_override(self):
        rng = np.random.default_rng(5)
        y = rng.normal(0, 1, 100)
        lam = effective_penalty(y, PenaltyConfig(kind="bic", noise_scale=2.0))
        assert lam == pytest.approx(3.0 * 4.0 * np.log(100))

    def test_too_short(self):
        with pytest.raises(ValueError):
            detect_penalized([1.0], PenaltyConfig(kind="bic"))

    def test_k_max_one_is_single_segment(self):
        # the solver takes no k_max (cpd --k-max is a limit on its answer):
        # one segment comes from a penalty above what the split saves
        y = [0.0] * 10 + [9.0] * 10
        one = exact_interval_cost(y)
        seg = detect_penalized(y, PenaltyConfig(kind="manual", lam=float(one) + 1.0))
        assert seg.breakpoints == ()
        assert seg.total_cost == float(one)
        split = detect_penalized(y, PenaltyConfig(kind="manual", lam=float(one) - 1.0))
        assert split.breakpoints == (10,)
        with pytest.raises(TypeError):
            detect_penalized(y, PenaltyConfig(kind="manual", lam=0.0), k_max=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "mdl"},
            {"kind": "manual"},
            {"kind": "manual", "lam": -0.5},
            {"kind": "bic", "noise_scale": 0.0},
            {"kind": "aic", "noise_scale": -1.0},
            {"kind": "manual", "lam": float("nan")},
            {"kind": "manual", "lam": float("inf")},
            {"kind": "bic", "lam": float("nan")},
            {"kind": "bic", "noise_scale": float("inf")},
        ],
    )
    def test_penalty_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            PenaltyConfig(**kwargs)

    @pytest.mark.parametrize("level", [0.0, 1e4, -1e4])
    def test_noiseless_small_step_found_at_any_level(self, level):
        # the noise estimate is 0, so the penalty is the round-off floor;
        # it scales with the spread about the rounded mean, as the costs
        # do, not with the level (at 1e4 the old floor, 4.5e-3, was above
        # the split's saving of 5e-5)
        y = [level] * 100 + [level + 0.001] * 100
        lam = effective_penalty(y, PenaltyConfig(kind="bic"))
        assert 0.0 < lam < 1e-10
        seg = detect_penalized(y, PenaltyConfig(kind="bic"))
        assert seg.breakpoints == (100,)
        assert detect_penalized([level] * 200).breakpoints == ()

    def test_effective_penalty_formulas(self):
        # alternating 0/1: every successive difference is 1, so the robust
        # sigma-hat is exactly 1/0.9539
        y = [0.0, 1.0] * 8
        sigma = robust_noise_scale(y)
        assert sigma == pytest.approx(1.0 / MEDIAN_DIFF_TO_SIGMA)
        assert effective_penalty(y, PenaltyConfig(kind="aic")) == pytest.approx(
            2.0 * sigma**2
        )
        assert effective_penalty(y, PenaltyConfig(kind="bic")) == pytest.approx(
            3.0 * sigma**2 * np.log(16)
        )
        assert effective_penalty(y, PenaltyConfig(kind="manual", lam=7.5)) == 7.5


class TestExactPenalized:
    """The optimal-partitioning solve against exact oracles and against the
    penalized selection it replaced (``_reference.detect_penalized_capped``,
    the least cost + lambda * k over the k <= k_max of the
    segment-neighbourhood table)."""

    def test_matches_brute_force_over_all_segmentations(self):
        rng = np.random.default_rng(20261018)
        lams = (0.0, 0.5, 1.0, 2.0, 3.7)
        cases = 0
        while cases < 540:
            n = int(rng.integers(2, 13))
            if rng.integers(0, 2):
                y = rng.normal(0.0, 1.0, n)
            else:
                y = rng.integers(0, 3, n).astype(float)  # many exact ties
            penalties = [PenaltyConfig(kind="manual", lam=lam) for lam in lams]
            penalties.append(PenaltyConfig(kind="bic"))
            lam_eff = [effective_penalty(y, p) for p in penalties]
            oracle = brute_force_penalized(list(y), lam_eff)
            for penalty, bps in zip(penalties, oracle):
                seg = detect_penalized(y, penalty)
                assert seg.breakpoints == bps, (list(y), penalty)
                exact = sum(exact_interval_cost(y[a:b]) for a, b in seg.segments())
                assert seg.total_cost == pytest.approx(float(exact), abs=1e-9)
                cases += 1

    @pytest.mark.parametrize(
        "series, lam",
        [
            # equal scores across k: the capped table's float sums take 15
            # segments, the exact optimum with the fewest has 14
            ([12, 11, 6, 9, 18, 8, 9, 8, 5, 7, 14, 14, 14, 9, 13, 14, 15, 7, 11,
              12, 11, 8], 0.5),
            ([9, 8, 9, 14, 9, 11, 7, 8, 5, 8, 9, 9, 10, 10, 12], 2.0),
            # equal scores within one k, which differ in the last bit: an
            # exact == on the float values takes a later boundary
            ([11, 7, 10, 12, 12, 10, 14, 13, 13, 8, 4, 12, 8, 9, 10], "aic"),
            ([11, 9, 8, 8, 7, 11, 10, 10, 10, 5, 10, 8, 7, 10, 12, 9], 1.0),
        ],
    )
    def test_round_off_ties_resolve_as_exact_ties(self, series, lam):
        y = [float(v) for v in series]
        if lam == "aic":
            penalty = PenaltyConfig(kind="aic")
        else:
            penalty = PenaltyConfig(kind="manual", lam=lam)
        seg = detect_penalized(y, penalty)
        assert seg.breakpoints == exact_penalized(y, effective_penalty(y, penalty))

    def test_constant_runs_split_exactly_at_level_changes(self):
        # runs of non-integer levels: a run's cost is zero in exact
        # arithmetic but float dust of either sign in the prefix sums, so
        # only a round-off tolerance finds the fewest segments
        rng = np.random.default_rng(3)
        for _ in range(60):
            runs = int(rng.integers(1, 6))
            levels = np.round(rng.uniform(-3.0, 3.0, runs), int(rng.integers(1, 3)))
            y = np.repeat(levels, rng.integers(2, 9, runs)) * rng.choice([1.0, 0.1, 7.3])
            for lam in (0.0, 1e-9, 0.5):
                seg = detect_penalized(y, PenaltyConfig(kind="manual", lam=lam))
                assert seg.breakpoints == exact_penalized(list(y), lam)

    def test_matches_exact_dp_on_mid_length_integer_series(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = int(rng.integers(13, 40))
            y = rng.integers(0, 3, n).astype(float)
            for penalty in (
                PenaltyConfig(kind="aic"),
                PenaltyConfig(kind="manual", lam=0.5),
                PenaltyConfig(kind="manual", lam=1.0),
            ):
                seg = detect_penalized(y, penalty)
                assert seg.breakpoints == exact_penalized(
                    list(y), effective_penalty(y, penalty)
                )

    def test_agrees_bitwise_with_capped_selection(self):
        # wherever the exact optimum has at most DEFAULT_K_MAX segments the
        # capped selection saw it and must return it bit for bit; elsewhere
        # the cap hid a segmentation with a strictly lower exact score. The
        # series sit at levels far from their spread, too, where a
        # round-off bound from max|y| instead of the centered values would
        # take real differences for ties.
        rng = np.random.default_rng(4242)
        compared = beaten = 0
        for t in range(200):
            n = int(rng.integers(2, 401))
            y = rng.normal(0.0, 1.0, n)
            for b in rng.integers(1, n, int(rng.integers(0, 6))):
                y[b:] += rng.normal(0.0, 4.0)
            y = y * rng.choice([1e-3, 1.0, 100.0]) + rng.choice([0.0, 15.3, 1e4, -2e5])
            penalty = (
                PenaltyConfig(kind="bic"),
                PenaltyConfig(kind="aic"),
                PenaltyConfig(kind="manual", lam=float(rng.choice([0.5, 2.0, 3.7, 10.0]))),
            )[t % 3]
            capped = detect_penalized_capped(y, penalty, k_max=DEFAULT_K_MAX)
            seg = detect_penalized(y, penalty)
            if seg.k <= DEFAULT_K_MAX:
                assert seg == capped
                compared += 1
            else:
                lam = effective_penalty(y, penalty)
                assert penalized_score(seg, list(y), lam) < penalized_score(
                    capped, list(y), lam
                )
                beaten += 1
        assert compared >= 100 and beaten > 0

    def test_more_segments_than_the_old_cap(self):
        # 30 alternating 20-point segments, steps of 10, noise sigma 0.5
        rng = np.random.default_rng(600)
        y = np.tile(np.repeat([0.0, 10.0], 20), 15) + rng.normal(0.0, 0.5, 600)
        seg = detect_penalized(y, PenaltyConfig(kind="bic"))
        assert seg.k == 30
        assert seg.breakpoints == tuple(range(20, 600, 20))


class TestLongSeries:
    def test_known_steps_at_n_3000(self):
        # uniform noise of unit sigma stays within +-sqrt(3) < 2, half the
        # smallest step, so no point near a boundary fits the far side
        # better and the true breakpoints are the unique optimum
        rng = np.random.default_rng(3000)
        n, breaks = 3000, (400, 950, 1500, 2100, 2650)
        steps = (5.0, -4.0, 6.0, -5.0, 4.0)
        y = rng.uniform(-1.0, 1.0, n) * np.sqrt(3.0)
        for b, step in zip(breaks, steps):
            y[b:] += step
        seg = detect_known_k(y, 6)
        assert seg.breakpoints == breaks
        assert detect_penalized(y, PenaltyConfig(kind="bic")).breakpoints == breaks
        exact = sum(exact_interval_cost(y[a:b]) for a, b in seg.segments())
        assert seg.total_cost == pytest.approx(float(exact), rel=1e-9)
        rev = detect_known_k(y[::-1], 6)
        assert rev.total_cost == pytest.approx(seg.total_cost, rel=1e-9)


class TestNoiseScale:
    def test_gaussian_recovery(self):
        rng = np.random.default_rng(17)
        y = rng.normal(10.0, 3.0, 2001)
        assert robust_noise_scale(y) == pytest.approx(3.0, rel=0.1)

    def test_ignores_level_jumps(self):
        rng = np.random.default_rng(18)
        y = rng.normal(0, 1.0, 400) + 50.0 * (np.arange(400) >= 200)
        assert robust_noise_scale(y) == pytest.approx(1.0, rel=0.15)

    def test_constant_series_zero(self):
        assert robust_noise_scale([4.0] * 10) == 0.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            robust_noise_scale([1.0])


class TestStabilityScan:
    def test_large_lambda_collapses_to_one_segment(self):
        rng = np.random.default_rng(23)
        y = rng.normal(0, 1, 40)
        total, _ = two_pass_cost(list(y))
        scan = stability_scan(y, [total + 1.0, total * 10])
        assert all(seg.k == 1 for seg in scan.values())

    def test_crossover_threshold(self):
        # [0]*5 + [5]*5: k=1 cost is 10 * 2.5^2 = 62.5, k=2 cost is 0, so
        # the penalized optimum flips from k=2 to k=1 exactly at lam=62.5
        y = [0.0] * 5 + [5.0] * 5
        scan = stability_scan(y, [60.0, 65.0])
        assert scan[60.0].k == 2
        assert scan[60.0].breakpoints == (5,)
        assert scan[65.0].k == 1

    def test_single_lambda_matches_detect_penalized(self):
        rng = np.random.default_rng(29)
        y = rng.normal(0, 1, 30)
        scan = stability_scan(y, [3.0])
        direct = detect_penalized(y, PenaltyConfig(kind="manual", lam=3.0))
        assert scan[3.0] == direct

    def test_empty_lambda_list(self):
        with pytest.raises(ValueError):
            stability_scan([1.0, 2.0], [])


class TestInvariants:
    @given(series=finite_series, k=st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_cost_non_increasing_in_k(self, series, k):
        if k + 1 > len(series):
            return
        lo = detect_known_k(series, k).total_cost
        hi = detect_known_k(series, k + 1).total_cost
        assert hi <= lo + 1e-9 * (1.0 + abs(lo))

    @given(series=finite_series, k=st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_total_cost_recomputable(self, series, k):
        if k > len(series):
            return
        seg = detect_known_k(series, k)
        direct = sum(two_pass_cost(series[a:b])[0] for a, b in seg.segments())
        scale = 1.0 + abs(direct)
        assert abs(seg.total_cost - direct) <= 1e-9 * scale

    @given(series=finite_series, k=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_reversal_preserves_optimal_cost(self, series, k):
        if k > len(series):
            return
        fwd = detect_known_k(series, k).total_cost
        rev = detect_known_k(series[::-1], k).total_cost
        assert abs(fwd - rev) <= 1e-9 * (1.0 + abs(fwd))

    def test_reversal_maps_breakpoints_without_ties(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            y = rng.normal(0, 1, 25)
            seg = detect_known_k(y, 3)
            rev = detect_known_k(y[::-1], 3)
            mapped = tuple(sorted(25 - b for b in rev.breakpoints))
            assert seg.breakpoints == mapped

    def test_shift_leaves_breakpoints_and_cost(self):
        rng = np.random.default_rng(37)
        y = rng.normal(0, 1, 60)
        base = detect_known_k(y, 4)
        shifted = detect_known_k(y + 7.25, 4)
        assert shifted.breakpoints == base.breakpoints
        assert shifted.total_cost == pytest.approx(base.total_cost, abs=1e-9)

    def test_power_of_two_scaling_is_exact(self):
        # scaling by 2 shifts float exponents only, so costs scale by
        # exactly 4 and the segmentation is bit-identical
        rng = np.random.default_rng(41)
        y = rng.normal(0, 1, 60)
        base = detect_known_k(y, 4)
        scaled = detect_known_k(y * 2.0, 4)
        assert scaled.breakpoints == base.breakpoints
        assert scaled.total_cost == 4.0 * base.total_cost

    def test_manual_lambda_scales_with_cost(self):
        rng = np.random.default_rng(43)
        y = rng.normal(0, 1, 80) + 3.0 * (np.arange(80) >= 40)
        base = detect_penalized(y, PenaltyConfig(kind="manual", lam=6.0))
        scaled = detect_penalized(y * 2.0, PenaltyConfig(kind="manual", lam=24.0))
        assert scaled.breakpoints == base.breakpoints
