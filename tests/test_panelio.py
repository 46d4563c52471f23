"""I/O tests: policy/telemetry/persona CSV parsing and the panel format."""

import io
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalpanel.errors import ParseError, SchemaError, ValidationError
from causalpanel.paneldata import PanelDataset, PolicyTimeline, TelemetryRecord
from causalpanel.panelio import (
    parse_persona_csv,
    parse_policy_csv,
    parse_telemetry_csv,
    read_panel,
    write_panel,
    write_persona_csv,
    write_policy_csv,
    write_telemetry_csv,
)
from causalpanel.persona import UsageFeatureVector

from _builders import make_panel

OXCGRT_STYLE = """CountryName,RegionName,Date,C6_Stay at home requirements,C6_Flag
China,,20200124,0,0
China,,20200125,1,1
China,,20200126,3,1
China,,20200127,3,1
China,,20200128,,
China,,20200129,2,1
"""


class TestPolicyCsv:
    def test_oxcgrt_style_parse(self):
        timelines = parse_policy_csv(
            OXCGRT_STYLE.encode(), "C6_Stay at home requirements"
        )
        assert len(timelines) == 1
        tl = timelines[0]
        assert tl.unit_id == "China"
        assert tl.dates[0] == date(2020, 1, 24)
        # Empty cell on the 28th forward-fills the previous code 3.
        assert tl.codes == (0, 1, 3, 3, 3, 2)

    def test_region_rows_become_composite_units(self):
        text = (
            "CountryName,RegionName,Date,C6\n"
            "United States,,20200301,1\n"
            "United States,Alaska,20200301,2\n"
        )
        timelines = parse_policy_csv(text.encode(), "C6")
        assert [tl.unit_id for tl in timelines] == [
            "United States",
            "United States/Alaska",
        ]

    def test_iso_dates_detected(self):
        text = "unit_id,Date,level\nCHN,2020-03-01,2\nCHN,2020-03-02,3\n"
        (tl,) = parse_policy_csv(text.encode(), "level")
        assert tl.dates == (date(2020, 3, 1), date(2020, 3, 2))
        assert tl.codes == (2, 3)

    def test_leading_empty_codes_become_zero(self):
        text = "unit_id,Date,level\nCHN,20200101,\nCHN,20200102,1\n"
        (tl,) = parse_policy_csv(text.encode(), "level")
        assert tl.codes == (0, 1)

    def test_missing_indicator_column(self):
        with pytest.raises(SchemaError, match="C9"):
            parse_policy_csv(OXCGRT_STYLE.encode(), "C9")

    def test_missing_unit_column(self):
        with pytest.raises(SchemaError, match="CountryName"):
            parse_policy_csv(b"Region,Date,C6\nx,20200101,0\n", "C6")

    def test_malformed_date(self):
        text = "unit_id,Date,level\nCHN,2020013,1\n"
        with pytest.raises(ParseError, match="date"):
            parse_policy_csv(text.encode(), "level")

    def test_code_out_of_range(self):
        text = "unit_id,Date,level\nCHN,20200101,7\n"
        with pytest.raises(ValidationError, match="0..3"):
            parse_policy_csv(text.encode(), "level")

    def test_duplicate_date_rejected(self):
        text = "unit_id,Date,level\nCHN,20200101,1\nCHN,20200101,2\n"
        with pytest.raises(ValidationError, match="duplicate"):
            parse_policy_csv(text.encode(), "level")

    def test_empty_file(self):
        with pytest.raises(ParseError, match="empty"):
            parse_policy_csv(b"", "C6")

    def test_write_parse_round_trip(self):
        start = date(2020, 2, 1)
        timelines = [
            PolicyTimeline(
                "Germany/Bavaria",
                tuple(start + timedelta(days=i) for i in range(4)),
                (0, 1, 3, 2),
            ),
            PolicyTimeline(
                "France",
                tuple(start + timedelta(days=i) for i in range(4)),
                (0, 0, 1, 1),
            ),
        ]
        buf = io.StringIO()
        write_policy_csv(timelines, buf, "C6")
        parsed = parse_policy_csv(buf.getvalue().encode(), "C6")
        assert parsed == sorted(timelines, key=lambda t: t.unit_id)


class TestTelemetryCsv:
    def rows(self):
        return [
            TelemetryRecord(
                date=date(2020, 1, 1),
                device_id="g-1",
                unit_id="CHN",
                chassis="Notebook",
                cpu_family="i7",
                vpro=True,
                usage_hours=7.25,
                cpu_watts=21.5,
            ),
            TelemetryRecord(
                date=date(2020, 1, 2),
                device_id="g-2",
                unit_id="USA",
                chassis="TwoInOne",
                cpu_family="Other",
                vpro=False,
                usage_hours=0.0,
                cpu_watts=0.0,
            ),
        ]

    def test_round_trip(self):
        buf = io.StringIO()
        write_telemetry_csv(self.rows(), buf)
        assert parse_telemetry_csv(buf.getvalue().encode()) == self.rows()

    def test_chassis_alias_and_family_case(self):
        text = (
            "date,device_id,unit_id,chassis,cpu_family,vpro,usage_hours,cpu_watts\n"
            "2020-01-01,d,CHN,2-in-1,I7,yes,3.5,12.0\n"
        )
        (rec,) = parse_telemetry_csv(text.encode())
        assert rec.chassis == "TwoInOne"
        assert rec.cpu_family == "i7"
        assert rec.vpro is True

    def test_missing_column_named(self):
        text = "date,device_id,unit_id,chassis,cpu_family,vpro,usage_hours\nx\n"
        with pytest.raises(SchemaError, match="cpu_watts"):
            parse_telemetry_csv(text.encode())

    def test_bad_vpro_token(self):
        text = (
            "date,device_id,unit_id,chassis,cpu_family,vpro,usage_hours,cpu_watts\n"
            "2020-01-01,d,CHN,Notebook,i5,maybe,3.5,12.0\n"
        )
        with pytest.raises(ParseError, match="vpro"):
            parse_telemetry_csv(text.encode())

    def test_non_numeric_usage(self):
        text = (
            "date,device_id,unit_id,chassis,cpu_family,vpro,usage_hours,cpu_watts\n"
            "2020-01-01,d,CHN,Notebook,i5,0,lots,12.0\n"
        )
        with pytest.raises(ParseError, match="numeric"):
            parse_telemetry_csv(text.encode())


class TestPersonaCsv:
    def test_round_trip(self):
        records = [
            UsageFeatureVector(
                "p1", date(2020, 1, 1), {"gaming": 1.5, "office": 0.25}
            ),
            UsageFeatureVector(
                "p2", date(2020, 1, 2), {"gaming": 0.0, "office": 4.0}
            ),
        ]
        buf = io.StringIO()
        write_persona_csv(records, buf)
        assert parse_persona_csv(buf.getvalue().encode()) == records

    def test_header_must_lead_with_keys(self):
        with pytest.raises(SchemaError, match="device_id"):
            parse_persona_csv(b"id,day,gaming\nx,2020-01-01,1.0\n")

    def test_no_feature_columns(self):
        with pytest.raises(SchemaError, match="feature"):
            parse_persona_csv(b"device_id,date\nx,2020-01-01\n")

    def test_inconsistent_rows_on_write(self):
        records = [
            UsageFeatureVector("p1", date(2020, 1, 1), {"a": 1.0}),
            UsageFeatureVector("p2", date(2020, 1, 1), {"b": 1.0}),
        ]
        with pytest.raises(SchemaError, match="differ"):
            write_persona_csv(records, io.StringIO())


class TestPanelFormat:
    def full_panel(self):
        return make_panel(
            {"CHN|Notebook": [1.5, np.nan, 3.25], "USA": [0.0, 4.0, 5.0]},
            mask={"CHN|Notebook": [False, True, False]},
            covariates=np.array([[12.0, 0.5], [30.0, 0.25]]),
            covariate_names=("system_count", "vpro_percentage"),
            unit_tags={"continent": ("Asia", "NorthAmerica")},
            outcome_name="cpu_watts",
        )

    def test_round_trip_bitwise(self):
        panel = self.full_panel()
        buf = io.StringIO()
        write_panel(panel, buf)
        back = read_panel(buf.getvalue().encode())
        assert back.unit_ids == panel.unit_ids
        assert back.dates == panel.dates
        assert back.outcome_name == "cpu_watts"
        assert np.array_equal(back.missing_mask, panel.missing_mask)
        # repr round-trip makes unmasked payload cells bit-identical.
        assert np.array_equal(
            back.outcomes[~back.missing_mask], panel.outcomes[~panel.missing_mask]
        )
        assert np.array_equal(back.covariates, panel.covariates)
        assert back.unit_tags == panel.unit_tags

    def test_codes_section_round_trip(self):
        panel = make_panel({"A": [1.0, 2.0]})
        from causalpanel.paneldata import merge_panels

        merged = merge_panels(
            panel,
            [PolicyTimeline("A", panel.dates, (0, 3))],
        )
        buf = io.StringIO()
        write_panel(merged, buf)
        back = read_panel(buf.getvalue().encode())
        assert back.policy_codes.tolist() == [[0, 3]]

    @pytest.mark.parametrize("damage", ["drop_row", "drop_cell"])
    @pytest.mark.parametrize("section", ["covariates", "tags", "codes"])
    def test_damaged_unit_row_named(self, section, damage):
        from causalpanel.paneldata import merge_panels

        panel = self.full_panel()
        panel = merge_panels(
            panel, [PolicyTimeline(u, panel.dates, (0, 1, 2)) for u in panel.unit_ids]
        )
        buf = io.StringIO()
        write_panel(panel, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        start = lines.index(f"#section {section}\n")
        row = next(
            i for i in range(start, len(lines)) if lines[i].startswith("USA\t")
        )
        if damage == "drop_row":
            del lines[row]
        else:
            lines[row] = lines[row].rsplit("\t", 1)[0] + "\n"
        with pytest.raises(ParseError, match=f"{section} (section|row).*'USA'"):
            read_panel("".join(lines).encode())

    def test_missing_magic(self):
        with pytest.raises(ParseError, match="magic"):
            read_panel(b"not a panel\n")

    def test_content_outside_section(self):
        text = "#causalpanel-panel v1\n#outcome usage_hours\nstray\n"
        with pytest.raises(ParseError, match="outside"):
            read_panel(text.encode())

    def test_tab_in_unit_id_rejected_on_write(self):
        panel = make_panel({"A\tB": [1.0]})
        with pytest.raises(ValidationError, match="tab"):
            write_panel(panel, io.StringIO())

    @given(
        data=st.lists(
            st.lists(
                st.one_of(
                    st.floats(
                        min_value=-1e6,
                        max_value=1e6,
                        allow_nan=False,
                        allow_infinity=False,
                    ),
                    st.none(),
                ),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, data):
        series = {}
        mask = {}
        for i, row in enumerate(data):
            series[f"u{i}"] = [0.0 if v is None else v for v in row]
            mask[f"u{i}"] = [v is None for v in row]
        panel = make_panel(series, mask=mask)
        buf = io.StringIO()
        write_panel(panel, buf)
        back = read_panel(buf.getvalue().encode())
        assert np.array_equal(back.missing_mask, panel.missing_mask)
        assert np.array_equal(
            back.outcomes[~back.missing_mask], panel.outcomes[~panel.missing_mask]
        )
