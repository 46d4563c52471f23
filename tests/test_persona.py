"""Persona pipeline tests: clustering, frozen assignment, windowed counts,
and the change-point hookup."""

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalpanel import persona
from causalpanel.changepoint import PenaltyConfig, detect_penalized
from causalpanel.errors import ConvergenceWarning, SchemaError, ValidationError
from causalpanel.persona import (
    DEFAULT_FEATURE_CATEGORIES,
    DEFAULT_PERSONA_NAMES,
    PersonaCountSeries,
    PersonaModel,
    UsageFeatureVector,
    _seeded_index,
    fit_kmeans,
    persona_changepoint,
    rename_personas,
    windowed_counts,
)

FEATS = ("alpha", "beta", "gamma")


def vec(device, values, day=date(2020, 1, 1), names=FEATS):
    return UsageFeatureVector(
        device_id=device,
        window_start=day,
        features=dict(zip(names, values)),
    )


def vectors_from_matrix(X, names=FEATS):
    return [vec(f"d{i:04d}", row, names=names[: X.shape[1]]) for i, row in enumerate(X)]


def naive_lloyd(X, k, rng, iterations=300):
    """Reference Lloyd's with random init, written independently of the
    package: plain loops, empty clusters keep their previous centroid."""
    idx = rng.choice(len(X), size=k, replace=False)
    C = X[idx].astype(float).copy()
    assign = None
    for _ in range(iterations):
        d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        if assign is not None and (new_assign == assign).all():
            break
        assign = new_assign
        for j in range(k):
            members = X[assign == j]
            if len(members):
                C[j] = members.mean(axis=0)
    d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
    return d2.min(axis=1).sum()


class TestFitKmeans:
    def test_two_separated_clouds_recovers_means(self):
        rng = np.random.default_rng(7)
        a = rng.normal(0.0, 0.1, size=(40, 3)) + np.array([0.0, 0.0, 0.0])
        b = rng.normal(0.0, 0.1, size=(40, 3)) + np.array([50.0, 50.0, 50.0])
        a, b = np.abs(a), np.abs(b) + 40.0
        X = np.vstack([a, b])
        model = fit_kmeans(vectors_from_matrix(X), k=2, seed=0)
        got = model.centroids[np.argsort(model.centroids[:, 0])]
        want = np.vstack([a.mean(axis=0), b.mean(axis=0)])
        assert np.allclose(got, want, atol=1e-9)

    def test_k_equals_distinct_points_gives_zero_sse(self):
        X = np.array([[0.0, 0, 0], [1, 0, 0], [0, 2, 0], [0, 0, 3]])
        model, sse = fit_kmeans(vectors_from_matrix(X), k=4, seed=3, return_history=True)
        assert sse[-1] == 0.0
        # Every input point is a centroid.
        for row in X:
            assert any(np.array_equal(row, c) for c in model.centroids)

    def test_sse_beats_random_restart_median(self):
        # 50 random restarts of an independent naive Lloyd's; our seeded
        # farthest-point init should land at or below their median SSE.
        rng = np.random.default_rng(42)
        X = np.abs(rng.normal(5.0, 2.0, size=(200, 3)))
        _, sse = fit_kmeans(vectors_from_matrix(X), k=4, seed=0, return_history=True)
        oracle = np.median([naive_lloyd(X, 4, rng) for _ in range(50)])
        assert sse[-1] <= oracle * (1 + 1e-12)

    def test_sse_non_increasing(self):
        rng = np.random.default_rng(11)
        X = np.abs(rng.normal(3.0, 1.0, size=(120, 3)))
        _, sse = fit_kmeans(vectors_from_matrix(X), k=5, seed=2, return_history=True)
        assert len(sse) >= 2
        assert all(b <= a * (1 + 1e-12) for a, b in zip(sse, sse[1:]))

    def test_deterministic_for_seed_and_input(self):
        rng = np.random.default_rng(19)
        X = np.abs(rng.normal(2.0, 1.0, size=(60, 3)))
        vs = vectors_from_matrix(X)
        m1 = fit_kmeans(vs, k=3, seed=5)
        m2 = fit_kmeans(vs, k=3, seed=5)
        assert np.array_equal(m1.centroids, m2.centroids)
        assert m1.persona_names == m2.persona_names

    def test_too_few_distinct_vectors(self):
        same = [vec(f"d{i}", [1.0, 2.0, 3.0]) for i in range(5)]
        with pytest.raises(ValueError, match="distinct"):
            fit_kmeans(same + [vec("x", [0.0, 0.0, 0.0])], k=3)

    def test_subnormal_near_duplicates_are_not_distinct(self):
        # (0, 6.3e-218) differs from (0, 0) but its squared distance
        # underflows to 0, so only two distinct vectors exist
        X = np.array([[0.0, 0.0], [0.0, 6.3e-218], [0.0, 0.5]])
        for seed in range(3):
            with pytest.raises(ValueError, match="need at least 3 distinct vectors, have 2"):
                fit_kmeans(vectors_from_matrix(X, names=("a", "b")), k=3, seed=seed)

    def test_explicit_persona_names(self):
        # names are derived; a caller gives its own through rename_personas
        X = np.array([[0.0, 0, 0], [9, 0, 0], [0, 9, 0]])
        model = fit_kmeans(vectors_from_matrix(X), k=3, seed=0)
        mapping = dict(zip(model.persona_names, ("a", "b", "c")))
        renamed = rename_personas(model, mapping)
        assert renamed.persona_names == ("a", "b", "c")
        assert np.array_equal(renamed.centroids, model.centroids)
        assert renamed.feature_names == model.feature_names

    def test_derived_names_use_dominant_feature(self):
        X = np.array([[9.0, 0, 0], [9.1, 0, 0], [0, 9, 0], [0, 9.1, 0]])
        model = fit_kmeans(vectors_from_matrix(X), k=2, seed=1)
        assert set(model.persona_names) == {"alpha", "beta"}

    def test_empty_cluster_reseeded(self):
        # Nine coincident near-zero points and one distant outlier: most
        # inits collapse a centroid onto the dense blob, leaving another
        # empty until reseeding grabs the outlier.
        X = np.vstack([np.full((9, 3), 0.001), [[100.0, 100.0, 100.0]]])
        X[:9] += np.arange(9)[:, None] * 1e-6
        model = fit_kmeans(vectors_from_matrix(X), k=2, seed=0)
        assert any(np.allclose(c, 100.0, atol=1.0) for c in model.centroids)


    def test_round_cap_warns(self, monkeypatch):
        # one round cannot see the assignments repeat
        monkeypatch.setattr(persona, "MAX_LLOYD_ITERATIONS", 1)
        X = np.array([[0.0, 0, 0], [0.1, 0, 0], [9, 0, 0], [9.1, 0, 0]])
        with pytest.warns(ConvergenceWarning, match="k-means stopped after 1 rounds"):
            _, sse = fit_kmeans(vectors_from_matrix(X), k=2, seed=0, return_history=True)
        assert len(sse) == 1

    def test_converged_fit_does_not_warn(self, recwarn):
        X = np.array([[0.0, 0, 0], [0.1, 0, 0], [9, 0, 0], [9.1, 0, 0]])
        fit_kmeans(vectors_from_matrix(X), k=2, seed=0)
        assert not [w for w in recwarn if issubclass(w.category, ConvergenceWarning)]

    def test_negative_seed_rejected(self):
        X = np.array([[0.0, 0, 0], [9, 0, 0]])
        with pytest.raises(ValidationError, match="^seed must be >= 0$"):
            fit_kmeans(vectors_from_matrix(X), k=2, seed=-1)


# n whose Lemire draw is redrawn for about half (2**31 + 1) and a quarter
# (2**62 + 1) of the seeds, on the 32-bit and the 64-bit path
DRAW_BOUNDS = [
    1, 2, 6, 180, 65537, 2**31 - 1, 2**31 + 1, 2**32 - 1, 2**32, 2**40, 2**62 + 1,
]
DRAW_SEEDS = [*range(300), 2**32 - 1, 2**32, 2**64 + 3, 98765432109876543210]


class TestSeededIndex:
    @pytest.mark.parametrize("n", DRAW_BOUNDS)
    def test_matches_numpy_default_rng(self, n):
        got = [_seeded_index(seed, n) for seed in DRAW_SEEDS]
        assert got == [int(np.random.default_rng(seed).integers(n)) for seed in DRAW_SEEDS]

    def test_takes_numpy_integers(self):
        assert _seeded_index(np.int64(7), 180) == _seeded_index(7, 180)

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="^seed must be >= 0$"):
            _seeded_index(seed, 10)


class TestPersonaModel:
    def test_duplicate_centroids_rejected(self):
        with pytest.raises(ValidationError, match="identical"):
            PersonaModel(
                centroids=np.array([[1.0, 2.0], [1.0, 2.0]]),
                persona_names=("a", "b"),
                feature_names=("x", "y"),
            )

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValidationError):
            PersonaModel(
                centroids=np.array([[1.0, 2.0]]),
                persona_names=("a",),
                feature_names=("x", "y"),
            )

    def test_name_count_checked(self):
        with pytest.raises(ValidationError):
            PersonaModel(
                centroids=np.array([[1.0, 0.0], [0.0, 1.0]]),
                persona_names=("a", "b", "c"),
                feature_names=("x", "y"),
            )

    def test_default_label_space_is_consistent(self):
        assert len(DEFAULT_PERSONA_NAMES) == len(DEFAULT_FEATURE_CATEGORIES) == 6


def simple_model():
    return PersonaModel(
        centroids=np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]]),
        persona_names=("idle", "worker", "gamer"),
        feature_names=FEATS,
    )


class TestAssignPersonas:
    """Nearest-centroid assignment against frozen centroids, as
    :func:`windowed_counts` makes it for each device's window mean."""

    def test_exact_centroid_match(self):
        series = windowed_counts([vec("d1", [0.0, 10.0, 0.0])], simple_model(), 1, 1)
        assert series.counts.tolist() == [[0, 0, 1]]

    def test_tie_goes_to_lowest_index(self):
        # The window mean (5, 0, 0) is equidistant from centroid 0 (the
        # origin) and centroid 1 (10, 0, 0).
        d0 = date(2020, 1, 1)
        records = [
            vec("d1", [0.0, 0.0, 0.0], day=d0),
            vec("d1", [10.0, 0.0, 0.0], day=d0 + timedelta(days=27)),
        ]
        series = windowed_counts(records, simple_model(), width=28, stride=28)
        assert series.counts.tolist() == [[1, 0, 0]]

    def test_matches_argmin_oracle_on_seeded_batch(self):
        # one row per device on one day: a one-day window's mean is the row
        model = simple_model()
        rng = np.random.default_rng(123)
        X = np.abs(rng.normal(4.0, 3.0, size=(1000, 3)))
        series = windowed_counts(vectors_from_matrix(X), model, width=1, stride=1)
        expected = [0, 0, 0]
        for row in X:
            dists = [np.sqrt(((row - c) ** 2).sum()) for c in model.centroids]
            expected[min(range(3), key=lambda j: (dists[j], j))] += 1
        assert series.counts.tolist() == [expected]

    def test_feature_mismatch_is_schema_error(self):
        bad = UsageFeatureVector("d1", date(2020, 1, 1), {"alpha": 1.0, "wrong": 2.0})
        with pytest.raises(SchemaError):
            windowed_counts([bad], simple_model(), width=1, stride=1)

    def test_never_mutates_model(self):
        model = simple_model()
        before = model.centroids.copy()
        rng = np.random.default_rng(5)
        windowed_counts(vectors_from_matrix(np.abs(rng.normal(size=(50, 3)))), model, 1, 1)
        assert np.array_equal(model.centroids, before)
        assert not model.centroids.flags.writeable


class TestUsageFeatureVector:
    def test_negative_feature_rejected(self):
        with pytest.raises(ValidationError):
            vec("d1", [1.0, -0.5, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            vec("d1", [1.0, np.inf, 2.0])

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_valid_vectors_accepted(self, values):
        v = vec("d1", values)
        assert np.array_equal(v.as_array(FEATS), np.array(values))


def daily_records(assignments_by_window, model, start, width=28, stride=28):
    """Build records so each device appears in exactly the windows the plan
    dictates. Meant for stride == width (non-overlapping windows).

    assignments_by_window: list of dicts device -> persona index; a device
    present in window w gets rows on the window's first and last days, which
    also pins the observed span to cover every planned window.
    """
    records = []
    for w, plan in enumerate(assignments_by_window):
        first_day = start + timedelta(days=w * stride)
        last_day = first_day + timedelta(days=width - 1)
        for device, persona in plan.items():
            values = dict(zip(model.feature_names, model.centroids[persona]))
            records.append(UsageFeatureVector(device, first_day, values))
            records.append(UsageFeatureVector(device, last_day, values))
    return records


class TestWindowedCounts:
    def test_hand_example_zscores(self):
        # One persona's counts per window [100, 110, 90]: diffs [10, -20],
        # mean -5, population std 15, so zscores [1, -1].
        series = PersonaCountSeries(
            window_starts=(date(2020, 1, 1), date(2020, 1, 15), date(2020, 1, 29)),
            counts=np.array([[100, 5], [110, 5], [90, 5]]),
            diffs=np.array([[10, 0], [-20, 0]]),
            zscores=np.array([[1.0, 0.0], [-1.0, 0.0]]),
            persona_names=("p0", "p1"),
        )
        assert np.array_equal(series.diffs, series.counts[1:] - series.counts[:-1])
        assert np.allclose(series.zscores[:, 0], [1.0, -1.0])

    def test_windowed_counts_computes_hand_zscores(self):
        model = simple_model()
        start = date(2020, 1, 1)
        # 3 windows of persona-1 membership sized 3, 5, 1: diffs [2, -4],
        # mean -1, population std 3, zscores [1, -1].
        plans = [
            {f"d{i}": 1 for i in range(3)},
            {f"d{i}": 1 for i in range(5)},
            {f"d{i}": 1 for i in range(1)},
        ]
        # Stride 28 = width so windows do not overlap and membership is exact.
        records = daily_records(plans, model, start, width=28, stride=28)
        series = windowed_counts(records, model, width=28, stride=28)
        assert series.window_starts == (start, start + timedelta(28), start + timedelta(56))
        assert series.counts[:, 1].tolist() == [3, 5, 1]
        assert np.allclose(series.zscores[:, 1], [1.0, -1.0])

    def test_constant_population_all_zero(self):
        model = simple_model()
        plans = [{f"d{i}": i % 2 + 1 for i in range(10)}] * 4
        records = daily_records(plans, model, date(2020, 3, 1), width=28, stride=28)
        series = windowed_counts(records, model, width=28, stride=28)
        assert np.array_equal(series.diffs, np.zeros_like(series.diffs))
        assert np.array_equal(series.zscores, np.zeros_like(series.zscores))

    def test_count_conservation(self):
        model = simple_model()
        rng = np.random.default_rng(8)
        plans = [
            {f"d{i}": int(rng.integers(1, 3)) for i in range(int(rng.integers(5, 15)))}
            for _ in range(5)
        ]
        records = daily_records(plans, model, date(2020, 1, 1), width=28, stride=28)
        series = windowed_counts(records, model, width=28, stride=28)
        for w, plan in enumerate(plans):
            assert series.counts[w].sum() == len(plan)

    def test_zero_usage_device_excluded(self):
        model = simple_model()
        d0 = date(2020, 1, 1)
        records = []
        for day in (d0, d0 + timedelta(days=27)):
            records.append(vec("active", [10.0, 0.0, 0.0], day=day))
            records.append(vec("dormant", [0.0, 0.0, 0.0], day=day))
        series = windowed_counts(records, model, width=28, stride=28)
        # Only the active device is counted; the all-zero one is dropped
        # even though its nearest centroid would be persona 0.
        assert series.counts.sum() == 1
        assert series.counts[0, 1] == 1

    def test_device_rows_averaged_within_window(self):
        model = simple_model()
        d0 = date(2020, 1, 1)
        # Two rows for one device average to (7.5, 0, 0), nearest worker.
        records = [
            vec("d1", [5.0, 0.0, 0.0], day=d0),
            vec("d1", [10.0, 0.0, 0.0], day=d0 + timedelta(days=27)),
        ]
        series = windowed_counts(records, model, width=28, stride=28)
        assert series.counts[0].tolist() == [0, 1, 0]

    def test_overlapping_windows_share_records(self):
        model = simple_model()
        d0 = date(2020, 1, 1)
        # d1's record on day 20 sits inside window 0 ([0, 28)) and window 1
        # ([14, 42)) under the default 14-day stride; d2's rows pin the span.
        records = [
            vec("d1", [10.0, 0.0, 0.0], day=d0 + timedelta(days=20)),
            vec("d2", [0.0, 10.0, 0.0], day=d0),
            vec("d2", [0.0, 10.0, 0.0], day=d0 + timedelta(days=41)),
        ]
        series = windowed_counts(records, model, width=28, stride=14)
        assert series.window_starts == (d0, d0 + timedelta(14))
        assert series.counts[0].tolist() == [0, 1, 1]
        assert series.counts[1].tolist() == [0, 1, 1]

    def test_z_normalization_invariant(self):
        model = simple_model()
        rng = np.random.default_rng(21)
        plans = []
        for _ in range(8):
            plans.append(
                {f"d{i}": int(rng.integers(1, 3)) for i in range(int(rng.integers(4, 20)))}
            )
        records = daily_records(plans, model, date(2020, 1, 1), width=28, stride=28)
        series = windowed_counts(records, model, width=28, stride=28)
        for j in range(series.zscores.shape[1]):
            col = series.zscores[:, j]
            if series.diffs[:, j].std() > 0:
                assert abs(col.mean()) < 1e-9
                assert abs(col.std() - 1.0) < 1e-9
            else:
                assert np.array_equal(col, np.zeros_like(col))

    def test_span_shorter_than_window_rejected(self):
        model = simple_model()
        records = [vec("d1", [1.0, 0, 0], day=date(2020, 1, d)) for d in (1, 5)]
        with pytest.raises(ValueError, match="window"):
            windowed_counts(records, model, width=28, stride=14)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            windowed_counts([], simple_model())

    def test_model_not_mutated(self):
        model = simple_model()
        before = model.centroids.copy()
        records = [vec("d1", [1.0, 0, 0], day=date(2020, 1, 1 + i)) for i in range(30)]
        windowed_counts(records, model, width=28, stride=14)
        assert np.array_equal(model.centroids, before)


class TestPersonaChangepoint:
    def build_series(self, counts_by_persona, start=date(2020, 1, 1)):
        counts = np.asarray(counts_by_persona).T
        diffs = counts[1:] - counts[:-1]
        z = np.zeros_like(diffs, dtype=float)
        means, stds = diffs.mean(axis=0), diffs.std(axis=0)
        for j in range(diffs.shape[1]):
            if stds[j] > 0:
                z[:, j] = (diffs[:, j] - means[j]) / stds[j]
        starts = tuple(start + timedelta(days=14 * w) for w in range(counts.shape[0]))
        return PersonaCountSeries(
            window_starts=starts,
            counts=counts,
            diffs=diffs,
            zscores=z,
            persona_names=tuple(f"p{j}" for j in range(counts.shape[1])),
        )

    def test_all_zero_zscores_no_breakpoints(self):
        series = self.build_series([[50] * 6, [30] * 6])
        result = persona_changepoint(series)
        assert set(result) == {"p0", "p1"}
        assert all(seg.breakpoints == () for seg in result.values())

    def test_injected_shift_found_within_one_window(self):
        # Persona 0 loses 20 devices per window from window 5 on; persona 1
        # gains them. The diff series steps at index 4, so the zscore
        # breakpoint should land within one position of it.
        p0 = [100] * 5 + [80, 60, 40, 40, 40]
        p1 = [50] * 5 + [70, 90, 110, 110, 110]
        series = self.build_series([p0, p1])
        result = persona_changepoint(series)
        assert len(result["p0"].breakpoints) >= 1
        assert any(abs(b - 4) <= 1 for b in result["p0"].breakpoints)
        assert any(abs(b - 4) <= 1 for b in result["p1"].breakpoints)

    def test_opposite_shifts_share_breakpoint_index(self):
        p0 = [100] * 6 + [40] * 6
        p1 = [40] * 6 + [100] * 6
        series = self.build_series([p0, p1])
        result = persona_changepoint(series)
        assert result["p0"].breakpoints == result["p1"].breakpoints
        assert len(result["p0"].breakpoints) >= 1

    def test_too_few_windows(self):
        series = self.build_series([[10, 11, 12], [5, 5, 5]])
        with pytest.raises(ValueError, match="4 windows"):
            persona_changepoint(series)

    def test_each_column_segmented_with_bic(self):
        series = self.build_series([[100] * 6 + [40] * 6, [7] * 6 + [9, 7] * 3])
        result = persona_changepoint(series)
        for j, name in enumerate(series.persona_names):
            expected = detect_penalized(series.zscores[:, j], PenaltyConfig(kind="bic"))
            assert result[name] == expected


class TestCountSeriesValidation:
    def test_diff_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="diffs"):
            PersonaCountSeries(
                window_starts=(date(2020, 1, 1), date(2020, 1, 15)),
                counts=np.array([[5, 5], [6, 5]]),
                diffs=np.array([[2, 0]]),
                zscores=np.array([[0.0, 0.0]]),
                persona_names=("a", "b"),
            )

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            PersonaCountSeries(
                window_starts=(date(2020, 1, 1),),
                counts=np.array([[-1, 2]]),
                diffs=np.zeros((0, 2), dtype=int),
                zscores=np.zeros((0, 2)),
                persona_names=("a", "b"),
            )
