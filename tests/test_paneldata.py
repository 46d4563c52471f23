"""Panel model tests: timelines, events, telemetry aggregation, merging."""

from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from causalpanel.errors import SchemaError, ValidationError
from causalpanel.paneldata import (
    EventKind,
    PanelDataset,
    PolicyTimeline,
    aggregate_telemetry,
    extract_treatment_events,
    merge_panels,
)

from _builders import make_panel, telemetry


def timeline(codes, unit="CHN", start=date(2020, 1, 1)):
    return PolicyTimeline(unit, start, codes)


def record(
    day, device="dev0", unit="CHN", hours=5.0, watts=20.0,
    chassis="Notebook", cpu_family="i5", vpro=False,
):
    """One telemetry row, in the field order of ``_builders.telemetry``."""
    return (day, device, unit, chassis, cpu_family, vpro, hours, watts)


class TestPolicyTimeline:
    def test_codes_read_only_and_dated_from_start(self):
        tl = timeline([0, 1, 3], start=date(2020, 1, 30))
        assert tl.codes.tolist() == [0, 1, 3]
        assert tl.dates == (date(2020, 1, 30), date(2020, 1, 31), date(2020, 2, 1))
        with pytest.raises(ValueError):
            tl.codes[0] = 2

    def test_equality_compares_fields(self):
        assert timeline([0, 3]) == timeline((0, 3))
        assert timeline([0, 3]) != timeline([0, 2])
        assert timeline([0, 3]) != timeline([0, 3], start=date(2020, 1, 2))

    def test_bad_code_rejected(self):
        with pytest.raises(
            ValidationError, match=r"^timeline CHN: code 5 on 2020-01-02 outside 0\.\.3$"
        ):
            timeline([0, 5, -1])
        with pytest.raises(
            ValidationError, match=r"^timeline CHN: code 1\.5 on 2020-01-02 outside 0\.\.3$"
        ):
            timeline([1.0, 1.5])


class TestTreatmentEvents:
    def test_activation_and_deactivation(self):
        # Shape of the lockdown arc: ramp up, strict period, relaxation.
        tl = timeline([0, 1, 2, 3, 3, 3, 2, 2, 3])
        events = extract_treatment_events(tl)
        assert [e.kind for e in events] == [
            EventKind.ACTIVATION,
            EventKind.DEACTIVATION,
        ]
        assert events[0].date == date(2020, 1, 4)
        # First relaxation to exactly 2 after activation; later re-entry
        # into code 3 is out of scope for the single-event extraction.
        assert events[1].date == date(2020, 1, 7)

    def test_code_two_before_activation_ignored(self):
        tl = timeline([2, 2, 3, 3])
        events = extract_treatment_events(tl)
        assert len(events) == 1
        assert events[0].kind is EventKind.ACTIVATION
        assert events[0].date == date(2020, 1, 3)

    def test_relaxation_to_one_is_not_deactivation(self):
        tl = timeline([0, 3, 1, 1, 2])
        events = extract_treatment_events(tl)
        assert events[1].kind is EventKind.DEACTIVATION
        assert events[1].date == date(2020, 1, 5)

    def test_never_activated(self):
        assert extract_treatment_events(timeline([0, 1, 2, 2])) == []


class TestTelemetryRecord:
    """A bad value in a one-row TelemetryColumns names the device and day."""

    def test_chassis_checked(self):
        with pytest.raises(ValidationError, match="dev0 on 2020-01-01: unknown chassis"):
            telemetry([record(date(2020, 1, 1), chassis="Toaster")])

    def test_cpu_family_checked(self):
        with pytest.raises(ValidationError, match="dev0 on 2020-01-01: unknown cpu_family"):
            telemetry([record(date(2020, 1, 1), cpu_family="pentium")])

    def test_usage_range(self):
        with pytest.raises(ValidationError, match="dev0 on 2020-01-01: usage_hours"):
            telemetry([record(date(2020, 1, 1), hours=25.0)])
        with pytest.raises(ValidationError, match="dev0 on 2020-01-01: usage_hours"):
            telemetry([record(date(2020, 1, 1), hours=-0.1)])

    def test_negative_watts(self):
        with pytest.raises(ValidationError, match="dev0 on 2020-01-01: cpu_watts"):
            telemetry([record(date(2020, 1, 1), watts=-1.0)])


class TestPanelDataset:
    def test_accessors(self):
        panel = make_panel({"A": [1.0, 2.0, 3.0], "B": [4.0, 5.0, 6.0]})
        assert panel.n_units == 2 and panel.n_dates == 3
        assert panel.unit_index("B") == 1
        assert panel.date_index(date(2020, 1, 2)) == 1
        values, mask = panel.unit_series("A")
        assert values.tolist() == [1.0, 2.0, 3.0]
        assert not mask.any()

    def test_unknown_unit_and_date(self):
        panel = make_panel({"A": [1.0, 2.0]})
        with pytest.raises(ValidationError, match="'Z'"):
            panel.unit_index("Z")
        with pytest.raises(ValidationError, match="outside"):
            panel.date_index(date(2021, 1, 1))

    def test_masked_nan_allowed_unmasked_rejected(self):
        panel = make_panel({"A": [1.0, np.nan]}, mask={"A": [False, True]})
        assert panel.missing_mask[0, 1]
        with pytest.raises(ValidationError, match="non-finite"):
            make_panel({"A": [1.0, np.nan]})

    def test_duplicate_units_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            PanelDataset(
                unit_ids=("A", "A"),
                dates=(date(2020, 1, 1),),
                outcomes=np.zeros((2, 1)),
                missing_mask=np.zeros((2, 1), dtype=bool),
            )

    def test_covariate_shape_checked(self):
        with pytest.raises(ValidationError, match="system_count has shape \\(2,\\) for 1 units"):
            make_panel({"A": [1.0]}, system_count=[1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_covariate_rejected(self, bad):
        with pytest.raises(ValidationError, match="'system_count' is non-finite for unit 'B'"):
            make_panel({"A": [1.0], "B": [2.0]}, system_count=[3.0, bad])

    def test_system_count_read_only_float(self):
        panel = make_panel({"A": [1.0], "B": [2.0]}, system_count=[3, 4])
        assert panel.system_count.dtype == np.float64
        assert panel.system_count.tolist() == [3.0, 4.0]
        with pytest.raises(ValueError):
            panel.system_count[0] = 2.0

    # -1 is no "no code known": a panel has a code of 0..3 for every cell
    @pytest.mark.parametrize("bad", [7, 4, -1, -2, -3, 2**70, 1.5])
    def test_policy_code_outside_range_rejected(self, bad):
        panel = make_panel({"A": [1.0, 2.0], "B": [3.0, 4.0]})
        with pytest.raises(
            ValidationError, match=f"policy code {bad} outside 0..3 for unit 'B' on 2020-01-02"
        ):
            replace(panel, policy_codes=[[0, 3], [0, bad]])

    def test_policy_codes_read_only_int64(self):
        panel = replace(make_panel({"A": [1.0, 2.0]}), policy_codes=[[0, 3]])
        assert panel.policy_codes.dtype == np.int64
        assert panel.policy_codes.tolist() == [[0, 3]]
        with pytest.raises(ValueError):
            panel.policy_codes[0, 0] = 2

    def test_tag_length_checked(self):
        with pytest.raises(ValidationError, match="continent has 2 entries for 1 units"):
            make_panel({"A": [1.0]}, continent=("Europe", "Asia"))

    def test_arrays_frozen(self):
        panel = make_panel({"A": [1.0, 2.0]})
        with pytest.raises(ValueError):
            panel.outcomes[0, 0] = 9.0

    def test_timeline_reconstruction(self):
        panel = make_panel({"A": [1.0, 2.0]})
        assert panel.policy_codes is None
        merged = merge_panels(panel, [timeline([0, 3], unit="A")])
        assert merged.policy_codes[merged.unit_index("A")].tolist() == [0, 3]


class TestAggregateTelemetry:
    def test_mean_per_cell(self):
        d1, d2 = date(2020, 1, 1), date(2020, 1, 2)
        records = [
            record(d1, device="a", hours=4.0),
            record(d1, device="b", hours=6.0),
            record(d2, device="a", hours=10.0),
        ]
        panel = aggregate_telemetry(telemetry(records))
        series, mask = panel.unit_series("CHN")
        assert series.tolist() == [5.0, 10.0]
        assert not mask.any()

    def test_empty_cells_masked(self):
        records = [
            record(date(2020, 1, 1)),
            record(date(2020, 1, 3)),
        ]
        panel = aggregate_telemetry(telemetry(records))
        _, mask = panel.unit_series("CHN")
        assert mask.tolist() == [False, True, False]

    def test_composite_group_labels(self):
        d = date(2020, 1, 1)
        records = [
            record(d, unit="CHN", chassis="Notebook"),
            record(d, device="dev1", unit="CHN", chassis="Desktop"),
        ]
        panel = aggregate_telemetry(telemetry(records), group_by=("unit_id", "chassis"))
        assert panel.unit_ids == ("CHN|Desktop", "CHN|Notebook")

    def test_group_field_order_canonical(self):
        # Request order must not matter: labels always follow the canonical
        # field order unit_id, chassis, cpu_family, vpro.
        d = date(2020, 1, 1)
        records = [record(d)]
        a = aggregate_telemetry(telemetry(records), group_by=("chassis", "unit_id"))
        b = aggregate_telemetry(telemetry(records), group_by=("unit_id", "chassis"))
        assert a.unit_ids == b.unit_ids == ("CHN|Notebook",)

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(5)
        days = [date(2020, 1, 1) + timedelta(days=int(i)) for i in range(6)]
        records = [
            record(
                days[int(rng.integers(6))],
                device=f"d{int(rng.integers(4))}",
                unit=["CHN", "USA"][int(rng.integers(2))],
                hours=float(rng.uniform(0, 24)),
            )
            for _ in range(60)
        ]
        base = aggregate_telemetry(telemetry(records))
        rng.shuffle(records)
        shuffled = aggregate_telemetry(telemetry(records))
        assert base.unit_ids == shuffled.unit_ids
        assert np.array_equal(base.outcomes, shuffled.outcomes)
        assert np.array_equal(base.system_count, shuffled.system_count)

    def test_system_count_is_mean_daily_devices(self):
        d1, d2 = date(2020, 1, 1), date(2020, 1, 2)
        records = [
            record(d1, device="a"),
            record(d1, device="b"),
            record(d1, device="c"),
            record(d2, device="a"),
        ]
        panel = aggregate_telemetry(telemetry(records))
        assert panel.system_count.tolist() == [2.0]

    def test_cpu_watts_outcome(self):
        panel = aggregate_telemetry(
            telemetry([record(date(2020, 1, 1), watts=33.0)]), outcome="cpu_watts"
        )
        assert panel.outcome_name == "cpu_watts"
        assert panel.outcomes[0, 0] == 33.0

    def test_unknown_group_field(self):
        with pytest.raises(SchemaError, match="group"):
            aggregate_telemetry(telemetry([record(date(2020, 1, 1))]), group_by=("color",))

    def test_unknown_outcome(self):
        with pytest.raises(SchemaError, match="outcome"):
            aggregate_telemetry(telemetry([record(date(2020, 1, 1))]), outcome="fan_speed")

    def test_no_records(self):
        with pytest.raises(ValidationError, match="no telemetry"):
            aggregate_telemetry(telemetry([]))


class TestMergePanels:
    def test_dates_restricted_to_intersection(self):
        panel = make_panel(
            {"CHN": [1.0, 2.0, 3.0, 4.0]}, start=date(2020, 1, 1)
        )
        tl = timeline([0, 0, 3], start=date(2020, 1, 2))
        merged = merge_panels(panel, [tl])
        assert merged.dates == (date(2020, 1, 2), date(2020, 1, 3), date(2020, 1, 4))
        assert merged.outcomes[0].tolist() == [2.0, 3.0, 4.0]
        assert merged.policy_codes[0].tolist() == [0, 0, 3]

    def test_composite_unit_inherits_country_timeline(self):
        panel = make_panel({"CHN|Notebook": [1.0, 2.0], "CHN|Desktop": [3.0, 4.0]})
        merged = merge_panels(panel, [timeline([3, 2])])
        assert merged.policy_codes.tolist() == [[3, 2], [3, 2]]

    def test_exact_match_beats_country_fallback(self):
        panel = make_panel({"CHN|Notebook": [1.0, 2.0]})
        exact = timeline([1, 1], unit="CHN|Notebook")
        country = timeline([3, 3], unit="CHN")
        merged = merge_panels(panel, [exact, country])
        assert merged.policy_codes[0].tolist() == [1, 1]

    def test_missing_timeline_named(self):
        panel = make_panel({"FRA": [1.0, 2.0]})
        with pytest.raises(ValidationError, match="FRA"):
            merge_panels(panel, [timeline([0, 0])])

    def test_no_common_dates(self):
        panel = make_panel({"CHN": [1.0, 2.0]}, start=date(2020, 1, 1))
        tl = timeline([0, 0], start=date(2021, 1, 1))
        with pytest.raises(ValidationError, match="no dates"):
            merge_panels(panel, [tl])


def _frozen_field_cases():
    """(build, field, array): each dataclass that holds an array, built
    around a writable array of the field's dtype."""
    from causalpanel.paneldata import TelemetryColumns
    from causalpanel.persona import PersonaCountSeries, PersonaModel, UsageColumns
    from causalpanel.synthcontrol import SynthFit

    day0 = date(2020, 1, 1)
    days = (day0, day0 + timedelta(days=1))
    cases = [
        (lambda a: PanelDataset(("A",), days, a, np.zeros((1, 2), bool)),
         "outcomes", np.array([[1.0, 2.0]])),
        (lambda a: PolicyTimeline("A", day0, a), "codes", np.array([0, 3])),
        (lambda a: TelemetryColumns(
            np.array([day0.toordinal()]), np.array([0]), (("d", "A", "Notebook", "i5", False),),
            a, np.array([20.0])),
         "usage_hours", np.array([5.0])),
        (lambda a: UsageColumns(("d",), np.array([0]), np.array([day0.toordinal()]), a, ("f",)),
         "values", np.array([[1.0]])),
        (lambda a: PersonaModel(a, ("p", "q"), ("f",)), "centroids", np.array([[0.0], [1.0]])),
        (lambda a: PersonaCountSeries(days, a, np.array([[1, -1]]), np.zeros((1, 2)), ("p", "q")),
         "counts", np.array([[1, 2], [2, 1]])),
        (lambda a: SynthFit(a, 0.0, np.zeros(3), np.zeros(3), 1.0),
         "weights", np.array([0.25, 0.75])),
    ]
    return [pytest.param(*case, id=type(case[0](case[2])).__name__) for case in cases]


@pytest.mark.parametrize("build, name, arr", _frozen_field_cases())
def test_frozen_field_is_a_read_only_view_of_the_callers_array(build, name, arr):
    held = getattr(build(arr), name)
    assert np.shares_memory(held, arr)  # no copy
    assert not held.flags.writeable
    assert arr.flags.writeable
