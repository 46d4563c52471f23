"""Column layer tests: the column code against the per-record reference
implementations in ``_reference`` (bitwise), and the column types' own
contracts (equality, row view of usage rows, validation)."""

import itertools
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as ref
from causalpanel.errors import SchemaError, ValidationError
from causalpanel.paneldata import (
    _TELEMETRY_COLUMNS,
    GROUP_FIELD_ORDER,
    TelemetryColumns,
    aggregate_telemetry,
)
from causalpanel import paneldata, persona
from causalpanel.persona import (
    PersonaModel,
    _window_means,
    UsageColumns,
    UsageFeatureVector,
    device_means,
    fit_kmeans,
    windowed_counts,
)

from _builders import telemetry

START = date(2020, 1, 1)
NAMES = ("alpha", "beta", "gamma", "delta")


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


# Feature values mixing exact repeats (ties, zeros) with arbitrary floats
# across magnitudes, so summation order shows in the last bits.
feature_value = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def usage_rows(draw):
    """Daily usage rows in arbitrary order: missing days, duplicate
    device-days, all-zero devices and uneven rows per window."""
    d = draw(st.integers(1, 4))
    names = draw(st.permutations(NAMES))[:d]
    n_devices = draw(st.integers(1, 6))
    n_days = draw(st.integers(1, 40))
    zero_devices = draw(st.sets(st.integers(0, n_devices - 1), max_size=2))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_devices - 1),
                st.integers(0, n_days - 1),
                st.lists(feature_value, min_size=d, max_size=d),
            ),
            min_size=1,
            max_size=150,
        )
    )
    vectors = [
        UsageFeatureVector(
            f"dev{dev}",
            START + timedelta(days=day),
            dict(zip(names, [0.0] * d if dev in zero_devices else values)),
        )
        for dev, day, values in rows
    ]
    return names, vectors


def model_for(names, data):
    k = data.draw(st.integers(2, 4))
    centroids = data.draw(
        st.lists(
            st.lists(feature_value, min_size=len(names), max_size=len(names)),
            min_size=k,
            max_size=k,
            unique_by=tuple,
        )
    )
    order = data.draw(st.permutations(names))
    return PersonaModel(
        centroids=np.array(centroids),
        persona_names=tuple(f"p{j}" for j in range(k)),
        feature_names=tuple(order),
    )


def fitted(vectors, k, seed):
    """The k-means model, or the failure (type and message) if it fails."""
    try:
        return fit_kmeans(vectors, k=k, seed=seed)
    except (ValueError, ValidationError) as err:
        return type(err), str(err)


class TestPersonaAgainstReference:
    @given(usage_rows(), st.integers(1, 15), st.integers(1, 10), st.data())
    @settings(max_examples=150, deadline=None)
    def test_windowed_counts_bitwise(self, rows, width, stride, data):
        names, vectors = rows
        model = model_for(names, data)
        try:
            expected = ref.windowed_counts(vectors, model, width=width, stride=stride)
        except ValueError as err:
            with pytest.raises(ValueError, match=str(err)[:20]):
                windowed_counts(vectors, model, width=width, stride=stride)
            return
        cols = UsageColumns.from_vectors(vectors)
        offsets = np.arange(len(expected.window_starts)) * stride
        window, device, means = _window_means(
            cols, cols.matrix(model.feature_names), offsets, width
        )
        reference = ref.window_means(
            vectors, model.feature_names, timedelta(days=width), timedelta(days=stride)
        )
        assert sorted(reference) == sorted(
            (w, cols.device_ids[d]) for w, d in zip(window.tolist(), device.tolist())
        )
        for w, d, mean in zip(window.tolist(), device.tolist(), means):
            assert bits(mean) == bits(reference[(w, cols.device_ids[d])])
        for got in (
            windowed_counts(vectors, model, width=width, stride=stride),
            windowed_counts(UsageColumns.from_vectors(vectors), model, width, stride),
        ):
            assert got.window_starts == expected.window_starts
            assert np.array_equal(got.counts, expected.counts)
            assert np.array_equal(got.diffs, expected.diffs)
            assert bits(got.zscores) == bits(expected.zscores)

    @given(usage_rows(), st.integers(2, 4), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_device_means_and_centroids_bitwise(self, rows, k, seed):
        _, vectors = rows
        expected = ref.device_means(vectors)
        got = device_means(vectors)
        assert list(got) == expected
        assert [v.device_id for v in got] == [v.device_id for v in expected]
        names = sorted(expected[0].features)
        assert bits(got.matrix(names)) == bits(
            [[v.features[n] for n in names] for v in expected]
        )
        a, b = (fitted(vectors, k, seed) for vectors in (expected, got))
        if isinstance(a, PersonaModel):
            assert bits(a.centroids) == bits(b.centroids)
            assert a.persona_names == b.persona_names
        else:  # both fits fail alike
            assert a == b

    @given(usage_rows(), st.integers(-1, 41))
    @settings(max_examples=100, deadline=None)
    def test_device_means_where_is_means_of_the_rows_taken(self, rows, cutoff):
        # the rows before a cutoff day, as persona --fit-until selects them
        _, vectors = rows
        cols = UsageColumns.from_vectors(vectors)
        where = cols.day < (START + timedelta(days=cutoff)).toordinal()
        got = device_means(cols, where=where)
        taken = UsageColumns.from_rows(
            [cols.device_ids[d] for d in cols.device[where].tolist()],
            cols.day[where],
            cols.values[where],
            cols.feature_names,
        )
        expected = device_means(taken)
        assert got == expected and got.device_ids == expected.device_ids
        assert list(got) == ref.device_means([v for v, keep in zip(vectors, where) if keep])

    @pytest.mark.parametrize("n_features", [1, 3])
    def test_long_device_blocks_match_reference(self, n_features):
        # Six rows per device-day, up to 60 per device-window: long enough
        # for a pairwise sum to differ from a sequential one.
        rng = np.random.default_rng(3)
        names = NAMES[:n_features]
        vectors = [
            UsageFeatureVector(
                f"d{dev}", START + timedelta(days=day), dict(zip(names, values))
            )
            for day in range(12)
            for dev in range(40)
            for values in rng.uniform(0.0, 1e3, (6, n_features)).tolist()
        ]
        rng.shuffle(vectors)
        means = device_means(vectors)
        expected_means = ref.device_means(vectors)
        assert list(means) == expected_means
        model = fit_kmeans(expected_means, k=3, seed=0)
        assert bits(fit_kmeans(means, k=3, seed=0).centroids) == bits(model.centroids)
        cols = UsageColumns.from_vectors(vectors)
        for width, stride in ((10, 1), (3, 2)):
            got = windowed_counts(vectors, model, width=width, stride=stride)
            expected = ref.windowed_counts(vectors, model, width=width, stride=stride)
            assert np.array_equal(got.counts, expected.counts)
            offsets = np.arange(len(expected.window_starts)) * stride
            window, device, means = _window_means(cols, cols.matrix(names), offsets, width)
            reference = ref.window_means(
                vectors, names, timedelta(days=width), timedelta(days=stride)
            )
            for w, d, mean in zip(window.tolist(), device.tolist(), means):
                assert bits(mean) == bits(reference[(w, cols.device_ids[d])])


def uneven_vectors(n_devices, n_days, counts, seed):
    """Daily rows, shuffled: device ``d`` has rows on ``counts[d %
    len(counts)]`` of the ``n_days`` days, the rest missing, so devices
    differ in row count and windows in coverage."""
    rng = np.random.default_rng(seed)
    vectors = [
        UsageFeatureVector(
            f"d{dev:03d}",
            START + timedelta(days=day),
            dict(zip(NAMES[:3], rng.uniform(0.0, 1e3, 3).tolist())),
        )
        for dev in range(n_devices)
        for day in sorted(
            rng.choice(n_days, counts[dev % len(counts)], replace=False).tolist()
        )
    ]
    rng.shuffle(vectors)
    return vectors


class TestGatherPieces:
    """The per-device and per-window means gather their rows
    ``persona._GATHER_ROWS`` at a time; results must not depend on where
    a piece ends."""

    @pytest.mark.parametrize("gather_rows", [1, 7, 64])
    def test_window_means_match_reference(self, monkeypatch, gather_rows):
        monkeypatch.setattr(persona, "_GATHER_ROWS", gather_rows)
        vectors = uneven_vectors(40, 30, (30, 24, 17, 9), seed=5)
        cols = UsageColumns.from_vectors(vectors)
        names = cols.feature_names
        for width, stride in ((5, 2), (12, 3)):
            offsets = np.arange(0, 30 - width + 1, stride)
            window, device, means = _window_means(cols, cols.matrix(names), offsets, width)
            reference = ref.window_means(
                vectors, names, timedelta(days=width), timedelta(days=stride)
            )
            assert sorted(reference) == sorted(
                (w, cols.device_ids[d]) for w, d in zip(window.tolist(), device.tolist())
            )
            for w, d, mean in zip(window.tolist(), device.tolist(), means):
                assert bits(mean) == bits(reference[(w, cols.device_ids[d])])
            # some run length has more (window, device) pairs than a piece holds
            day = cols.day - cols.day.min()
            pairs = np.bincount(
                [
                    np.count_nonzero(
                        (cols.device == d) & (day >= offsets[w]) & (day < offsets[w] + width)
                    )
                    for w, d in zip(window.tolist(), device.tolist())
                ]
            )
            assert any(pairs[m] > max(1, gather_rows // m) for m in range(1, len(pairs)))

    @pytest.mark.parametrize("gather_rows", [1, 7, persona._GATHER_ROWS])
    def test_device_means_match_reference(self, monkeypatch, gather_rows):
        monkeypatch.setattr(persona, "_GATHER_ROWS", gather_rows)
        # 450 devices with 20 of 24 days and 450 with 21: more devices of
        # one row count than a piece of _GATHER_ROWS rows holds
        vectors = uneven_vectors(900, 24, (20, 21), seed=6)
        assert 450 > persona._GATHER_ROWS // 20
        got = device_means(vectors)
        expected = ref.device_means(vectors)
        assert list(got) == expected
        names = sorted(expected[0].features)
        assert bits(got.matrix(names)) == bits(
            [[v.features[n] for n in names] for v in expected]
        )


telemetry_rows = st.lists(
    st.builds(
        ref.TelemetryRow,
        date=st.integers(0, 10).map(lambda t: START + timedelta(days=t)),
        device_id=st.sampled_from(["d0", "d1", "d2", "e|1"]),
        unit_id=st.sampled_from(["CHN", "USA", "CHN|x"]),
        chassis=st.sampled_from(["Notebook", "Desktop", "TwoInOne"]),
        cpu_family=st.sampled_from(["i5", "i7", "Other"]),
        vpro=st.booleans(),
        usage_hours=st.one_of(
            st.sampled_from([0.0, 5.0, 24.0]),
            st.floats(min_value=0.0, max_value=24.0),
        ),
        cpu_watts=st.one_of(
            st.sampled_from([0.0, 30.0]),
            st.floats(min_value=0.0, max_value=1e4),
        ),
    ),
    min_size=1,
    max_size=80,
)


GROUP_BY_SUBSETS = [
    subset
    for r in range(len(GROUP_FIELD_ORDER) + 1)
    for subset in itertools.combinations(GROUP_FIELD_ORDER, r)
]


class TestAggregateAgainstReference:
    @pytest.mark.parametrize(
        "group_by", GROUP_BY_SUBSETS, ids=lambda g: "+".join(g) or "nothing"
    )
    @given(telemetry_rows, st.sampled_from(["usage_hours", "cpu_watts"]))
    @settings(max_examples=25, deadline=None)
    def test_panel_bitwise(self, group_by, records, outcome):
        expected = ref.aggregate_telemetry(records, group_by=group_by, outcome=outcome)
        got = aggregate_telemetry(telemetry(records), group_by=group_by, outcome=outcome)
        assert got.unit_ids == expected.unit_ids
        assert got.dates == expected.dates
        assert bits(got.outcomes) == bits(expected.outcomes)
        assert np.array_equal(got.missing_mask, expected.missing_mask)
        assert bits(got.system_count) == bits(expected.system_count)


    @pytest.mark.parametrize("outcome", ["usage_hours", "cpu_watts"])
    def test_duplicate_device_days_sum_in_canonical_order(self, outcome):
        # many reports per device-day in random order, hours often tied:
        # only the canonical order (device, then hours, then watts)
        # reproduces the reference's sums
        rng = np.random.default_rng(0)
        records = [
            ref.TelemetryRow(
                START + timedelta(days=int(t)), f"d{int(d)}", "CHN", "Notebook",
                "i5", False, float(h), float(w),
            )
            for t, d, h, w in zip(
                rng.integers(0, 2, 300), rng.integers(0, 3, 300),
                rng.choice([0.1, 1.0, 2.5, 7.3], 300), 10.0 ** rng.uniform(-3, 4, 300),
            )
        ]
        expected = ref.aggregate_telemetry(records, outcome=outcome)
        got = aggregate_telemetry(telemetry(records), outcome=outcome)
        assert bits(got.outcomes) == bits(expected.outcomes)
        assert bits(got.system_count) == bits(expected.system_count)

    def test_labels_and_device_indices_come_from_the_keys(self, monkeypatch):
        # 100 rows of 2 devices: no factorize runs over the rows
        rows = telemetry(
            (START + timedelta(days=t), f"d{d}", "CHN", "Notebook", "i5", False, 1.0, 2.0)
            for t in range(50) for d in range(2)
        )
        sizes, factorize = [], paneldata.factorize
        monkeypatch.setattr(
            paneldata, "factorize", lambda values: sizes.append(len(values)) or factorize(values)
        )
        aggregate_telemetry(rows, group_by=GROUP_FIELD_ORDER)
        assert sizes and max(sizes) == len(rows.devices) == 2


class TestUsageColumns:
    def vectors(self):
        return [
            UsageFeatureVector("p2", START, {"b": 1.5, "a": 0.0}),
            UsageFeatureVector("p1", START + timedelta(days=3), {"a": 2.0, "b": 0.25}),
        ]

    def test_row_view_round_trip(self):
        cols = UsageColumns.from_vectors(self.vectors())
        assert cols.device_ids == ("p1", "p2")
        assert cols.feature_names == ("a", "b")
        assert len(cols) == 2
        assert list(cols) == self.vectors()

    def test_equality_is_bitwise(self):
        cols = UsageColumns.from_vectors(self.vectors())
        assert cols == UsageColumns.from_vectors(self.vectors())
        flipped = self.vectors()
        flipped[0] = UsageFeatureVector("p2", START, {"b": 1.5, "a": -0.0})
        assert cols != UsageColumns.from_vectors(flipped)

    def test_from_rows_keeps_only_devices_present(self):
        cols = UsageColumns.from_vectors(self.vectors())
        first = UsageColumns.from_rows(["p2"], cols.day[:1], cols.values[:1], cols.feature_names)
        assert first.device_ids == ("p2",)
        assert list(first) == self.vectors()[:1]

    def test_matrix_reorders_and_checks_names(self):
        cols = UsageColumns.from_vectors(self.vectors())
        assert cols.matrix(("b", "a")).tolist() == [[1.5, 0.0], [0.25, 2.0]]
        with pytest.raises(SchemaError, match="align"):
            cols.matrix(("a", "c"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_value_names_device_and_feature(self, bad):
        with pytest.raises(ValidationError, match="device p1: feature 'b'"):
            UsageColumns(("p0", "p1"), [0, 1], [1, 1], [[1.0, 0.0], [0.0, bad]], ("a", "b"))

    @pytest.mark.parametrize("device", [[0, 0], [0, 2]], ids=["unused", "outside"])
    def test_device_codes_must_use_every_id(self, device):
        with pytest.raises(ValidationError, match="every device id and no other"):
            UsageColumns(("p0", "p1"), device, [1, 1], [[1.0], [2.0]], ("a",))

    def test_device_ids_must_be_sorted(self):
        with pytest.raises(ValidationError, match="sorted"):
            UsageColumns(("p1", "p0"), [0], [1], [[1.0]], ("a",))

    def test_mismatched_vectors_rejected(self):
        vectors = self.vectors() + [UsageFeatureVector("p3", START, {"a": 1.0})]
        with pytest.raises(SchemaError, match="p3"):
            UsageColumns.from_vectors(vectors)


class TestTelemetryColumns:
    ROWS = [
        (START, "g-1", "CHN", "Notebook", "i7", True, 7.25, 21.5),
        (START, "g-0", "USA", "NUC", "Other", False, 0.0, 0.0),
    ]

    def columns(self):
        return telemetry(self.ROWS)

    def test_one_key_per_device_sorted(self):
        cols = self.columns()
        assert cols.devices == (
            ("g-0", "USA", "NUC", "Other", False), ("g-1", "CHN", "Notebook", "i7", True)
        )
        assert cols.device.tolist() == [1, 0]
        for name in ("day", "device", "usage_hours", "cpu_watts"):
            assert getattr(cols, name).dtype != object

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("unit_id", " ", "empty unit_id"),
            ("chassis", "Toaster", "unknown chassis 'Toaster'"),
            ("cpu_family", "pentium", "unknown cpu_family 'pentium'"),
            ("usage_hours", 24.5, "usage_hours 24.5 outside"),
            ("usage_hours", np.nan, "usage_hours nan outside"),
            ("cpu_watts", np.inf, "cpu_watts inf must be finite"),
            ("cpu_watts", -2.0, "cpu_watts -2.0 must be finite"),
        ],
    )
    def test_bad_row_names_device_and_day(self, field, value, message):
        row = list(self.ROWS[1])
        row[_TELEMETRY_COLUMNS.index(field)] = value
        with pytest.raises(ValidationError, match=f"device g-0 on 2020-01-01: {message}"):
            telemetry([self.ROWS[0], row])

    def test_bad_key_named_at_its_first_row(self):
        bad = (START, "g-2", "USA", "Toaster", "i5", False, 1.0, 1.0)
        later = (START, "g-3", "USA", "NUC", "i5", False, 25.0, 1.0)
        rows = [self.ROWS[0], later, bad, bad]
        with pytest.raises(ValidationError, match="device g-3 on 2020-01-01: usage_hours"):
            telemetry(rows)
        with pytest.raises(ValidationError, match="device g-2 on 2020-01-01: unknown chassis"):
            telemetry(rows[:1] + rows[2:] + rows[1:2])

    def test_lengths_checked(self):
        cols = self.columns()
        with pytest.raises(ValidationError, match="length"):
            TelemetryColumns(
                cols.day, cols.device[:1], cols.devices, cols.usage_hours, cols.cpu_watts
            )

    @pytest.mark.parametrize(
        "device, devices, message",
        [
            ([1, 0], "reversed", "sorted and distinct"),
            ([0, 0], "repeated", "sorted and distinct"),
            ([0, 2], "as built", "index every device key and no other"),
            ([0, -1], "as built", "index every device key and no other"),
            ([0, 0], "as built", "index every device key and no other"),
        ],
    )
    def test_device_keys_checked(self, device, devices, message):
        cols = self.columns()
        keys = {
            "as built": cols.devices,
            "reversed": cols.devices[::-1],
            "repeated": cols.devices[:1] * 2,
        }[devices]
        with pytest.raises(ValidationError, match=message):
            TelemetryColumns(cols.day, device, keys, cols.usage_hours, cols.cpu_watts)
