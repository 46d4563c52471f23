"""I/O tests: policy/telemetry/persona CSV parsing and the panel format."""

import ast
import io
import os
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalpanel
from causalpanel.errors import ParseError, SchemaError, ValidationError
from causalpanel.paneldata import PanelDataset, PolicyTimeline
from causalpanel.panelio import (
    _csv_table,
    parse_persona_csv,
    parse_policy_csv,
    parse_telemetry_csv,
    read_panel,
    write_panel,
    write_persona_csv,
    write_policy_csv,
    write_telemetry_csv,
)
from causalpanel.persona import UsageColumns, UsageFeatureVector

from _builders import make_panel, telemetry

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

    def test_binary_streams_stay_open(self):
        source = io.BytesIO(b"unit_id,Date,C6\nA,20200101,1\n")
        (tl,) = parse_policy_csv(source, "C6")
        assert not source.closed
        target = io.BytesIO()
        write_policy_csv([tl], target, "C6")
        assert target.getvalue() == b"CountryName,RegionName,Date,C6\nA,,20200101,1\n"

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        start = date(2020, 2, 1)
        days = tuple(start + timedelta(days=i) for i in range(3000))

        def timelines():  # a full write buffer, then a failure
            yield PolicyTimeline("France", days, (1,) * len(days))
            raise RuntimeError("generator failed")

        target = tmp_path / "policy.csv"
        with pytest.raises(RuntimeError):
            write_policy_csv(timelines(), str(target), "C6")
        assert os.listdir(tmp_path) == []
        target.write_text("earlier run\n", encoding="utf-8")
        with pytest.raises(RuntimeError):
            write_policy_csv(timelines(), target, "C6")
        assert os.listdir(tmp_path) == ["policy.csv"]
        assert target.read_text(encoding="utf-8") == "earlier run\n"

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
        return telemetry([
            (date(2020, 1, 1), "g-1", "CHN", "Notebook", "i7", True, 7.25, 21.5),
            (date(2020, 1, 2), "g-2", "USA", "TwoInOne", "Other", False, 0.0, 0.0),
        ])

    def test_round_trip(self):
        buf = io.StringIO()
        write_telemetry_csv(self.rows(), buf)
        parsed = parse_telemetry_csv(buf.getvalue().encode())
        assert parsed == self.rows()

    def test_chassis_alias_and_family_case(self):
        text = (
            "date,device_id,unit_id,chassis,cpu_family,vpro,usage_hours,cpu_watts\n"
            "2020-01-01,d,CHN,2-in-1,I7,yes,3.5,12.0\n"
        )
        rows = parse_telemetry_csv(text.encode())
        assert rows.chassis == ("TwoInOne",)
        assert rows.cpu_family == ("i7",)
        assert rows.vpro.tolist() == [True]

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
        parsed = parse_persona_csv(buf.getvalue().encode())
        assert parsed == UsageColumns.from_vectors(records)
        assert list(parsed) == records

    @pytest.mark.parametrize("source", ["path", "bytes", "text", "binary", "pipe"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_every_source_reads_alike(self, tmp_path, source, newline):
        # blank rows and an unterminated last row: fewer rows than lines
        text = newline.join(
            ["device_id,date,a,b", "p1,2020-01-01,1.5,0.25", "", "  ",
             "p2,2020-01-02,0.0,4.0", "p1,2020-01-02,2.0,1.0"]
        )
        data = text.encode()
        if source == "path":
            (tmp_path / "p.csv").write_bytes(data)
            arg = tmp_path / "p.csv"
        elif source == "bytes":
            arg = data
        elif source == "text":
            arg = io.StringIO(text, newline="")
        elif source == "binary":
            arg = io.BytesIO(data)
        else:
            read_end, write_end = os.pipe()
            os.write(write_end, data)
            os.close(write_end)
            arg = os.fdopen(read_end, "rb")
        parsed = parse_persona_csv(arg)
        assert parsed == UsageColumns.from_rows(
            ["p1", "p2", "p1"],
            [date(2020, 1, d).toordinal() for d in (1, 2, 2)],
            [[1.5, 0.25], [0.0, 4.0], [2.0, 1.0]],
            ("a", "b"),
        )
        assert parsed.values.shape == (3, 2)

    def test_header_only_gives_no_rows(self):
        parsed = parse_persona_csv(b"device_id,date,a,b\n")
        assert len(parsed) == 0 and parsed.values.shape == (0, 2)

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

    @pytest.mark.parametrize(
        "section,damage",
        [
            (section, damage)
            for section in ("covariates", "tags", "codes")
            for damage in ("drop_row", "drop_cell")
        ]
        # any string is a valid tag, so a bad cell only fits numeric sections
        + [("covariates", "bad_cell"), ("codes", "bad_cell")]
        # only the codes section repeats the outcomes' date header
        + [("codes", "bad_header")],
    )
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
        expected = f"{section} (section|row).*'USA'"
        if damage == "drop_row":
            del lines[row]
        elif damage == "drop_cell":
            lines[row] = lines[row].rsplit("\t", 1)[0] + "\n"
        elif damage == "bad_cell":
            lines[row] = lines[row].rsplit("\t", 1)[0] + "\tx\n"
        else:
            lines[start + 1] = lines[start + 1].rsplit("\t", 1)[0] + "\t1999-01-01\n"
            expected = "codes section: date header differs from the outcomes'"
        with pytest.raises(ParseError, match=expected):
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


@pytest.mark.parametrize("final", [True, False], ids=["terminated", "unterminated"])
@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_max_rows_of_a_path_bounds_its_rows(tmp_path, ending, final):
    # a path's lines are counted on its bytes, a stream's on its text: the
    # two counts agree, so a reader allocates as much for either
    lines = ["device_id,date,web", *(f"dé{i},2020-01-0{i + 1},{i}.5" for i in range(7))]
    lines[4:4] = ["", " ,"]  # blank rows are lines, not rows
    text = ending.join(lines) + (ending if final else "")
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    with _csv_table(path, "table") as (_, body):
        max_rows = body.max_rows
        rows = sum(len(rownos) for _, rownos in body(3))
    with _csv_table(io.StringIO(text, newline=""), "table") as (_, body):
        assert body.max_rows == max_rows
    assert rows == 7
    assert max_rows >= rows


def test_only_panelio_and_cli_import_csv():
    # panelio reads every CSV table and writes the input tables; the CLI
    # writes its own result tables, so that a command that writes only
    # those (report) loads no numpy. No other module touches CSV.
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
            if any(name.split(".")[0] == "csv" for name in names):
                importers.append(path.name)
    assert sorted(set(importers)) == ["cli.py", "panelio.py"]
