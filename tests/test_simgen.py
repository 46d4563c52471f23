"""Generator tests: determinism, exact truth injection, route agreement,
and file round-trips."""

import hashlib
import io
import json
import re
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalpanel.csvwrite import write_policy_csv, write_telemetry_csv, write_units_csv
from causalpanel.errors import ValidationError
from causalpanel.panel import read_panel, write_panel
from causalpanel.paneldata import (
    EventKind,
    aggregate_telemetry,
    extract_treatment_events,
)
from causalpanel.panelio import (
    parse_persona_csv,
    parse_policy_csv,
    parse_telemetry_csv,
    parse_units_csv,
)
from causalpanel.persona import (
    DEFAULT_PERSONA_NAMES,
    persona_changepoint,
    windowed_counts,
)
from causalpanel import simgen
from causalpanel.simgen import (
    GroundTruthManifest,
    PersonaShiftConfig,
    ScenarioConfig,
    TreatmentConfig,
    UnitConfig,
    archetype_model,
    build_manifest,
    describe,
    generate,
    generate_panel,
    mean_matrix,
    scenario_hash,
    write_scenario,
)
from causalpanel.synthcontrol import SynthSpec, fit_synth

START = date(2020, 1, 1)
# any character, weighted towards those that a CSV cell or the policy
# table's country/region split treats specially
UNIT_ID_CHARS = st.sampled_from(' /,;"\t\r\n\x00\x85A') | st.characters()


def two_unit_config(**kwargs):
    defaults = dict(
        units=(
            UnitConfig("TREAT", baseline_hours=5.0),
            UnitConfig("CTRL", baseline_hours=5.0),
        ),
        start=START,
        n_days=60,
        treatment=TreatmentConfig(
            treated_unit="TREAT",
            activation=START + timedelta(days=30),
            effect_hours=2.0,
        ),
        noise_sigma=0.0,
        seed=11,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestMeanMatrix:
    def test_noiseless_instant_jump(self):
        config = two_unit_config()
        panel = generate_panel(config)
        treated, _ = panel.unit_series("TREAT")
        control, _ = panel.unit_series("CTRL")
        assert np.all(treated[:30] == 5.0)
        assert np.all(treated[30:] == 7.0)
        assert np.all(control == 5.0)

    def test_onset_ramp(self):
        config = two_unit_config(
            treatment=TreatmentConfig(
                treated_unit="TREAT",
                activation=START + timedelta(days=30),
                effect_hours=2.0,
                effect_onset_days=4,
            )
        )
        treated = mean_matrix(config)[0]
        # Ramp reaches the full effect on the fourth treated day.
        assert np.allclose(treated[30:34] - 5.0, [0.5, 1.0, 1.5, 2.0])
        assert np.all(treated[34:] == 7.0)

    def test_mixture_replaces_unit_mean(self):
        config = ScenarioConfig(
            units=(
                UnitConfig("T", baseline_hours=9.9),
                UnitConfig("A", baseline_hours=4.0, seasonal_amplitude=1.0),
                UnitConfig("B", baseline_hours=8.0, trend_per_day=0.01),
            ),
            n_days=40,
            donor_mixture={"T": {"A": 0.3, "B": 0.7}},
            seed=0,
        )
        m = mean_matrix(config)
        assert np.allclose(m[0], 0.3 * m[1] + 0.7 * m[2], atol=1e-12)

    def test_watts_outcome_uses_watts_effect(self):
        config = two_unit_config(
            treatment=TreatmentConfig(
                treated_unit="TREAT",
                activation=START + timedelta(days=30),
                effect_hours=2.0,
                effect_watts=5.0,
            )
        )
        watts = mean_matrix(config, "cpu_watts")[0]
        assert watts[29] == 30.0
        assert watts[30] == 35.0


class TestDeterminism:
    def test_generate_twice_identical(self):
        config = two_unit_config(noise_sigma=0.5, persona_devices=12)
        a, b = generate(config), generate(config)
        assert a == b

    def test_seeds_differ(self):
        base = two_unit_config(noise_sigma=0.5)
        pa = generate_panel(base)
        pb = generate_panel(two_unit_config(noise_sigma=0.5, seed=12))
        assert not np.array_equal(pa.outcomes, pb.outcomes)

    def test_write_scenario_byte_identical(self, tmp_path):
        config = two_unit_config(noise_sigma=0.3, persona_devices=6, n_days=40)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        paths_a = write_scenario(config, out_a)
        paths_b = write_scenario(config, out_b)
        assert paths_a.keys() == paths_b.keys()
        for key in paths_a:
            with open(paths_a[key], "rb") as fa, open(paths_b[key], "rb") as fb:
                assert fa.read() == fb.read(), key

    def test_unit_stream_isolated_from_unit_count(self):
        # Adding a unit after CTRL must not change TREAT's or CTRL's draws.
        small = two_unit_config(noise_sigma=0.4)
        big = two_unit_config(
            noise_sigma=0.4,
            units=small.units + (UnitConfig("EXTRA", baseline_hours=3.0),),
        )
        ps, pb = generate_panel(small), generate_panel(big)
        assert np.array_equal(ps.outcomes[0], pb.outcomes[0])
        assert np.array_equal(ps.outcomes[1], pb.outcomes[1])


class TestRouteAgreement:
    def test_single_device_noiseless_routes_bitwise_equal(self):
        config = two_unit_config(
            units=(
                UnitConfig("TREAT", baseline_hours=5.5, seasonal_amplitude=0.5),
                UnitConfig("CTRL", baseline_hours=6.25, trend_per_day=0.01),
            )
        )
        panel = generate_panel(config)
        agg = aggregate_telemetry(generate(config).telemetry)
        for unit in ("TREAT", "CTRL"):
            direct, _ = panel.unit_series(unit)
            via_devices, mask = agg.unit_series(unit)
            assert not mask.any()
            assert np.array_equal(direct, via_devices)

    def test_many_devices_match_streaming_oracle(self):
        config = ScenarioConfig(
            units=(
                UnitConfig("A", baseline_hours=6.0, devices_per_day=50),
                UnitConfig("B", baseline_hours=7.0, devices_per_day=50),
                UnitConfig("C", baseline_hours=8.0, devices_per_day=50),
            ),
            n_days=10,
            noise_sigma=0.5,
            seed=3,
        )
        telemetry = generate(config).telemetry
        agg = aggregate_telemetry(telemetry)
        sums, counts = {}, {}
        units = [telemetry.devices[d][1] for d in telemetry.device]
        for unit, day, hours in zip(units, telemetry.day.tolist(), telemetry.usage_hours.tolist()):
            key = (unit, date.fromordinal(day))
            sums[key] = sums.get(key, 0.0) + hours
            counts[key] = counts.get(key, 0) + 1
        for unit in ("A", "B", "C"):
            series, _ = agg.unit_series(unit)
            for j, day in enumerate(agg.dates):
                assert series[j] == pytest.approx(
                    sums[(unit, day)] / counts[(unit, day)], abs=1e-12
                )

    def test_device_count_and_vpro_covariates(self):
        """system_count is each unit's devices_per_day; the vPro share is
        not kept (no estimator reads one)."""
        config = ScenarioConfig(
            units=(UnitConfig("A", devices_per_day=10, vpro_fraction=0.3),),
            n_days=5,
            seed=0,
        )
        agg = aggregate_telemetry(generate(config).telemetry)
        assert agg.system_count.tolist() == [10.0]


class TestPolicyFiles:
    def test_code_window_and_events(self):
        config = two_unit_config(
            treatment=TreatmentConfig(
                treated_unit="TREAT",
                activation=START + timedelta(days=20),
                deactivation=START + timedelta(days=40),
                effect_hours=1.0,
            )
        )
        timelines = {tl.unit_id: tl for tl in generate(config).timelines}
        treat = timelines["TREAT"]
        assert treat.codes.tolist() == [0] * 20 + [3] * 20 + [2] * 20
        assert timelines["CTRL"].codes.tolist() == [0] * 60

        events = extract_treatment_events(treat)
        assert [e.kind for e in events] == [EventKind.ACTIVATION, EventKind.DEACTIVATION]
        assert events[0].date == START + timedelta(days=20)
        assert events[1].date == START + timedelta(days=40)

    def test_policy_csv_round_trip(self, tmp_path):
        config = two_unit_config(n_days=20, treatment=None)
        paths = write_scenario(config, tmp_path / "s")
        parsed = parse_policy_csv(paths["policy"], "C6_Stay at home requirements")
        assert sorted(tl.unit_id for tl in parsed) == ["CTRL", "TREAT"]
        assert all(tl.codes.tolist() == [0] * 20 for tl in parsed)


class TestSynthLoopClosure:
    def test_fit_weights_recovers_mixture(self):
        config = ScenarioConfig(
            units=(
                UnitConfig("T", baseline_hours=6.0),
                UnitConfig("d1", baseline_hours=5.0, seasonal_amplitude=1.0),
                UnitConfig(
                    "d2",
                    baseline_hours=7.0,
                    seasonal_amplitude=0.8,
                    seasonal_period=11.0,
                    seasonal_phase=1.0,
                ),
            ),
            n_days=80,
            donor_mixture={"T": {"d1": 0.3, "d2": 0.7}},
            treatment=TreatmentConfig(
                treated_unit="T",
                activation=START + timedelta(days=60),
                effect_hours=2.0,
            ),
            seed=2,
        )
        panel = generate_panel(config)
        fit = fit_synth(
            panel,
            SynthSpec(
                treated_unit="T",
                donor_units=("d1", "d2"),
                treatment_date=START + timedelta(days=60),
            ),
        )
        truth = build_manifest(config).true_weights
        assert truth == (0.3, 0.7)
        assert np.allclose(fit.weights, truth, atol=1e-4)
        assert fit.pre_rmse < 1e-6
        post_gap = fit.gap[panel.date_index(START + timedelta(days=60)):]
        assert np.nanmean(post_gap) == pytest.approx(2.0, abs=1e-3)


class TestPersonaStream:
    def shift_config(self, **kwargs):
        defaults = dict(
            units=(UnitConfig("X"),),
            n_days=112,
            persona_devices=60,
            persona_noise=0.2,
            persona_shift=PersonaShiftConfig(
                shift_date=START + timedelta(days=56),
                from_persona="Office/Productivity",
                to_persona="Casual Gamers",
                fraction=0.2,
            ),
            seed=9,
        )
        defaults.update(kwargs)
        return ScenarioConfig(**defaults)

    def test_shift_lands_on_first_fully_post_window(self):
        config = self.shift_config()
        records = generate(config).persona_records
        model = archetype_model()
        series = windowed_counts(records, model)
        gamers = model.persona_names.index("Casual Gamers")
        office = model.persona_names.index("Office/Productivity")
        shift_window = series.window_starts.index(START + timedelta(days=56))

        # 60 devices round-robin: 10 per persona; 20% of office moves.
        assert series.counts[shift_window - 1, gamers] == 10
        assert series.counts[shift_window, gamers] == 12
        assert series.counts[shift_window, office] == 8
        spike = np.unravel_index(np.argmax(series.zscores), series.zscores.shape)
        assert spike == (shift_window - 1, gamers)

    def test_changepoint_within_one_window(self):
        config = self.shift_config()
        series = windowed_counts(generate(config).persona_records, archetype_model())
        segs = persona_changepoint(series)
        shift_window = series.window_starts.index(START + timedelta(days=56))
        for name in ("Casual Gamers", "Office/Productivity"):
            # zscores index w describes the transition into window w+1.
            windows = [b + 1 for b in segs[name].breakpoints]
            assert any(abs(w - shift_window) <= 1 for w in windows), name

    def test_no_shift_counts_constant(self):
        config = self.shift_config(persona_shift=None, persona_noise=0.1)
        series = windowed_counts(generate(config).persona_records, archetype_model())
        assert np.array_equal(series.diffs, np.zeros_like(series.diffs))

    @pytest.mark.parametrize("piece_rows", [1, 150, simgen._PERSONA_ROWS])
    def test_generate_joins_the_pieces_written(self, tmp_path, monkeypatch, piece_rows):
        # one device a piece, two, or all in one: the draws and the files
        # do not depend on the piece size
        config = self.shift_config(
            units=(UnitConfig("X", devices_per_day=2), UnitConfig("Y", devices_per_day=3)),
            persona_devices=12,
            n_days=70,
            noise_sigma=0.5,
            persona_shift=replace(self.shift_config().persona_shift, fraction=0.5),
        )
        whole = generate(config)
        monkeypatch.setattr(simgen, "_PERSONA_ROWS", piece_rows)
        assert generate(config) == whole
        paths = write_scenario(config, tmp_path / "s")
        assert parse_telemetry_csv(paths["telemetry"]) == whole.telemetry
        parsed, records = parse_persona_csv(paths["persona"]), whole.persona_records
        assert parsed.device_ids == records.device_ids
        assert np.array_equal(parsed.device, records.device)
        assert np.array_equal(parsed.day, records.day)
        # the file holds the features in sorted name order
        assert parsed.values.tobytes() == records.matrix(parsed.feature_names).tobytes()

    def test_round_trip_csv(self, tmp_path):
        config = self.shift_config(persona_devices=6, n_days=30, persona_shift=None)
        paths = write_scenario(config, tmp_path / "s")
        parsed = parse_persona_csv(paths["persona"])
        generated = generate(config).persona_records
        # the file holds the features in sorted name order
        names = sorted(generated.feature_names)
        assert parsed.feature_names == tuple(names)
        assert parsed.device_ids == generated.device_ids
        assert np.array_equal(parsed.device, generated.device)
        assert np.array_equal(parsed.day, generated.day)
        for j, name in enumerate(names):
            assert (
                parsed.matrix(names)[:, j].tobytes()
                == generated.matrix(names)[:, j].tobytes()
            ), name


class TestOutliers:
    def test_spikes_add_exact_magnitude(self):
        clean = generate_panel(two_unit_config(noise_sigma=0.2, seed=4))
        spiky = generate_panel(
            two_unit_config(
                noise_sigma=0.2,
                seed=4,
                outlier_probability=0.25,
                outlier_magnitude=6.0,
            )
        )
        delta = spiky.outcomes - clean.outcomes
        assert set(np.round(np.unique(delta), 9)) <= {0.0, 6.0}
        assert (delta == 6.0).any()


class TestManifest:
    def test_hash_reproducible_and_config_sensitive(self):
        a = two_unit_config()
        assert scenario_hash(a) == scenario_hash(two_unit_config())
        assert scenario_hash(a) != scenario_hash(two_unit_config(seed=99))

    def test_describe_mentions_effect(self):
        m = build_manifest(two_unit_config())
        text = describe(m)
        assert "effect_hours=2.0" in text
        assert f"scenario_hash={scenario_hash(two_unit_config())}" in text

    def test_describe_marks_absent_fields(self):
        m = build_manifest(ScenarioConfig(units=(UnitConfig("A"),), n_days=10))
        text = describe(m)
        assert "breakpoints=absent" in text
        assert "weights=absent" in text

    def test_breakpoints_collect_all_injections(self):
        config = two_unit_config(
            treatment=TreatmentConfig(
                treated_unit="TREAT",
                activation=START + timedelta(days=20),
                deactivation=START + timedelta(days=40),
            ),
            persona_devices=6,
            persona_shift=PersonaShiftConfig(
                shift_date=START + timedelta(days=28),
                from_persona="Web Users",
                to_persona="Communication Users",
                fraction=0.5,
            ),
        )
        m = build_manifest(config)
        assert m.true_breakpoints == (
            START + timedelta(days=20),
            START + timedelta(days=28),
            START + timedelta(days=40),
        )

    def test_manifest_file_matches_in_memory(self, tmp_path):
        config = two_unit_config()
        paths = write_scenario(config, tmp_path / "s")
        with open(paths["manifest"], encoding="utf-8") as fh:
            payload = json.load(fh)
        m = build_manifest(config)
        assert payload["scenario_hash"] == m.scenario_hash
        assert payload["true_effect_hours"] == m.true_effect_hours
        assert payload["true_breakpoints"] == [d.isoformat() for d in m.true_breakpoints]


class TestValidation:
    def test_deactivation_before_activation(self):
        with pytest.raises(ValidationError, match="deactivation"):
            TreatmentConfig(
                treated_unit="T",
                activation=date(2020, 3, 1),
                deactivation=date(2020, 2, 1),
            )

    def test_treated_unit_must_exist(self):
        with pytest.raises(ValidationError, match="GHOST"):
            two_unit_config(
                treatment=TreatmentConfig(
                    treated_unit="GHOST", activation=START + timedelta(days=5)
                )
            )

    def test_activation_inside_period(self):
        with pytest.raises(ValidationError, match="activation"):
            two_unit_config(
                treatment=TreatmentConfig(
                    treated_unit="TREAT", activation=START + timedelta(days=500)
                )
            )

    def test_mixture_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum"):
            ScenarioConfig(
                units=(UnitConfig("T"), UnitConfig("A"), UnitConfig("B")),
                donor_mixture={"T": {"A": 0.5, "B": 0.6}},
            )

    def test_mixture_donor_must_exist(self):
        with pytest.raises(ValidationError, match="NOPE"):
            ScenarioConfig(
                units=(UnitConfig("T"), UnitConfig("A")),
                donor_mixture={"T": {"NOPE": 1.0}},
            )

    def test_self_mixture_rejected(self):
        with pytest.raises(ValidationError, match="itself"):
            ScenarioConfig(
                units=(UnitConfig("T"), UnitConfig("A")),
                donor_mixture={"T": {"T": 1.0}},
            )

    def test_duplicate_unit_ids(self):
        with pytest.raises(ValidationError, match="unique"):
            ScenarioConfig(units=(UnitConfig("A"), UnitConfig("A")))

    @pytest.mark.parametrize(
        "unit_id, read_back",
        [("A/", "'A'"), ("A/ B", "'A/B'"), (" A", "'A'"), ("A ", "'A'"), ("/", "''"), ("/B", "''")],
    )
    def test_unit_id_a_policy_table_reads_as_another_refused(self, unit_id, read_back):
        with pytest.raises(
            ValidationError,
            match=f"^unit_id {unit_id!r} reads back from a policy table as {read_back}$",
        ):
            UnitConfig(unit_id)

    @pytest.mark.parametrize("unit_id", ["A\rB", "A\tB", "A\nB", "A\x00", "A\u00a0B"])
    def test_unit_id_not_printable_refused(self, unit_id):
        with pytest.raises(ValidationError, match="holds an unprintable character"):
            UnitConfig(unit_id)

    @pytest.mark.parametrize("unit_id", ["#section x", "#section outcomes"])
    def test_unit_id_read_as_section_header_refused(self, unit_id):
        with pytest.raises(
            ValidationError,
            match=f"^unit id {unit_id!r} starts with '#section ', which a panel file",
        ):
            UnitConfig(unit_id)

    @pytest.mark.parametrize("unit_id", ["#section", "#sectionx", "x #section y"])
    def test_unit_id_like_a_section_header_accepted(self, unit_id):
        assert UnitConfig(unit_id).unit_id == unit_id

    @pytest.mark.parametrize("continent", ["Eur\rope", "Eu\trope", "Eur\nope", "Eur\x85ope"])
    def test_continent_not_printable_refused(self, continent):
        with pytest.raises(
            ValidationError,
            match=f"^continent {re.escape(repr(continent))} holds an unprintable character$",
        ):
            UnitConfig("A", continent=continent)

    @pytest.mark.parametrize("continent", [" Europe", "Europe "])
    def test_continent_a_units_table_reads_as_another_refused(self, continent):
        with pytest.raises(
            ValidationError,
            match=f"^continent {continent!r} reads back from a units table as 'Europe'$",
        ):
            UnitConfig("A", continent=continent)

    @given(st.text(UNIT_ID_CHARS, min_size=1, max_size=8), st.text(UNIT_ID_CHARS, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_accepted_unit_reads_back_from_units_table_and_panel(self, unit_id, continent):
        """Every unit id and continent a scenario accepts reads back as
        itself from the units table that simulate writes and from the
        panel.txt that ingest --units writes."""
        try:
            unit = UnitConfig(unit_id, continent=continent)
        except ValidationError:
            return
        units = io.StringIO()
        write_units_csv([(unit_id, continent, 1, 0.0)], units)
        assert parse_units_csv(units.getvalue().encode()) == {unit_id: continent}
        config = ScenarioConfig(units=(unit,), start=START, n_days=2)
        panel = replace(generate_panel(config), continent=(continent,))
        text = io.StringIO()
        write_panel(panel, text)
        back = read_panel(text.getvalue().encode())
        assert back.unit_ids == (unit_id,) and back.continent == (continent,)

    @given(st.text(UNIT_ID_CHARS, min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_accepted_unit_id_reads_back_from_written_tables(self, unit_id):
        """Every unit id a scenario accepts reads back as itself from the
        policy and telemetry tables that simulate writes."""
        try:
            unit = UnitConfig(unit_id, devices_per_day=2)
        except ValidationError:
            return
        data = generate(ScenarioConfig(units=(unit,), start=START, n_days=3))
        policy, telemetry = io.StringIO(), io.StringIO()
        write_policy_csv(data.timelines, policy, "C6")
        write_telemetry_csv([data.telemetry], telemetry)
        timelines = parse_policy_csv(policy.getvalue().encode(), "C6")
        assert [t.unit_id for t in timelines] == [unit_id]
        assert parse_telemetry_csv(telemetry.getvalue().encode()) == data.telemetry

    def test_negative_sigma(self):
        with pytest.raises(ValidationError, match="noise_sigma"):
            ScenarioConfig(units=(UnitConfig("A"),), noise_sigma=-0.1)

    def test_unknown_persona_in_shift(self):
        with pytest.raises(ValidationError, match="persona"):
            PersonaShiftConfig(
                shift_date=date(2020, 2, 1),
                from_persona="Astronauts",
                to_persona="Casual Gamers",
                fraction=0.2,
            )

    def test_shift_fraction_range(self):
        with pytest.raises(ValidationError, match="fraction"):
            PersonaShiftConfig(
                shift_date=date(2020, 2, 1),
                from_persona="Web Users",
                to_persona="Casual Gamers",
                fraction=1.5,
            )

    def test_manifest_equality(self):
        m = GroundTruthManifest(2.0, 0.0, (), None, "abc")
        assert m == GroundTruthManifest(2.0, 0.0, (), None, "abc")


class TestScenarioFileDigests:
    """write_scenario must keep writing the same bytes. The scenario is
    large enough that the persona noise is drawn in two pieces and every
    table is written in several blocks; the digests were recorded before
    the noise was drawn in pieces and the dates were cached per file. No
    seasonal term, so no value depends on the platform's sine."""

    CONFIG = ScenarioConfig(
        units=(
            UnitConfig("NORTH", baseline_hours=6.0, devices_per_day=20, vpro_fraction=0.5),
            UnitConfig(
                "SOUTH", baseline_hours=4.5, devices_per_day=15, trend_per_day=0.02,
                chassis="Desktop", cpu_family="i7",
            ),
        ),
        start=START,
        n_days=70,
        treatment=TreatmentConfig(
            treated_unit="NORTH", activation=START + timedelta(days=35), effect_hours=1.5,
        ),
        noise_sigma=0.4,
        outlier_probability=0.05,
        outlier_magnitude=3.0,
        persona_devices=130,
        persona_noise=0.3,
        persona_shift=PersonaShiftConfig(
            shift_date=START + timedelta(days=42),
            from_persona="Web Users",
            to_persona="Content Creators",
            fraction=0.5,
        ),
        seed=23,
    )

    DIGESTS = {
        "policy":
            "8054303c7bc99979c8f00d66223a5ba6de27f084683801397307d4778507404a",
        "telemetry":
            "4ef305de9d9bf89e1671d06b77ec90d5fdf8802eb9b9eb3236b884330251a513",
        "persona":
            "38ead39caaa46e835c7b762f2d1ca32deb57145c0172cbc4ca538e6673a222bd",
        "units":
            "2dc1404312b7d913a3f8fa118cef3f4902f928767c367b84dca3fdf525165a04",
        "manifest":
            "5f4058cc528029e028a4ae4d9cc1449658061e718eabcaad33eb631f14ea7393",
    }

    def test_files_match_recorded_digests(self, tmp_path):
        paths = write_scenario(self.CONFIG, tmp_path / "s")
        assert sorted(paths) == sorted(self.DIGESTS)
        for key, digest in self.DIGESTS.items():
            with open(paths[key], "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, key
