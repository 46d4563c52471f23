"""I/O tests: policy/telemetry/persona CSV parsing and the panel format."""

import ast
import io
import os
import re
from dataclasses import fields, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalpanel
from causalpanel.csvwrite import write_persona_csv, write_policy_csv, write_telemetry_csv
from causalpanel.errors import ParseError, SchemaError, ValidationError
from causalpanel.panel import POLICY_CODES, read_panel, write_panel
from causalpanel.panel import CHASSIS_TYPES, CPU_FAMILIES
from causalpanel.paneldata import (
    _TELEMETRY_COLUMNS,
    DEFAULT_INDICATOR,
    PanelDataset,
    PolicyTimeline,
    TelemetryColumns,
    factorize,
)
from causalpanel.panelio import (
    _csv_table,
    parse_persona_csv,
    parse_policy_csv,
    parse_series_csv,
    parse_telemetry_csv,
    parse_units_csv,
)
from causalpanel.persona import UsageColumns, UsageFeatureVector
from causalpanel.simgen import ScenarioConfig, UnitConfig, generate_panel, write_scenario

import _reference as ref
from _builders import make_panel, telemetry

OXCGRT_STYLE = """CountryName,RegionName,Date,C6_Stay at home requirements,C6_Flag
China,,20200124,0,0
China,,20200125,1,1
China,,20200126,3,1
China,,20200127,3,1
China,,20200128,,
China,,20200129,2,1
"""

# A policy table in the column layout of the Oxford tracker (OxCGRT): 51
# columns, a _Flag column after most indicators, national rows with empty
# RegionName and RegionCode cells beside region rows, codes written as
# "2.00", and empty code cells. C6 is the 17th column, C2 the 9th.
OXCGRT_LAYOUT = Path(__file__).parent / "data" / "oxcgrt_layout.csv"


class TestPolicyCsv:
    def test_oxcgrt_style_parse(self):
        timelines = parse_policy_csv(
            OXCGRT_STYLE.encode(), "C6_Stay at home requirements"
        )
        assert len(timelines) == 1
        tl = timelines[0]
        assert tl.unit_id == "China"
        assert tl.start == date(2020, 1, 24)
        # Empty cell on the 28th forward-fills the previous code 3.
        assert tl.codes.tolist() == [0, 1, 3, 3, 3, 2]

    @pytest.mark.parametrize(
        "indicator, codes",
        [
            (
                "C6_Stay at home requirements",
                [[0, 1, 1, 2, 2], [0, 1, 3, 3, 3], [0, 0, 0, 2, 2], [0, 0, 1, 2, 2]],
            ),
            (
                "C2_Workplace closing",
                [[1, 2, 2, 3, 3], [0, 0, 3, 3, 3], [0, 1, 2, 3, 3], [0, 0, 2, 3, 3]],
            ),
        ],
    )
    def test_oxcgrt_column_layout(self, indicator, codes):
        units = ["Brazil", "Brazil/Acre", "United Kingdom", "United Kingdom/England"]
        expected = [(u, date(2020, 3, 16), c) for u, c in zip(units, codes)]
        for read in (parse_policy_csv, ref.parse_policy_csv):
            timelines = read(OXCGRT_LAYOUT, indicator)
            assert [(t.unit_id, t.start, t.codes.tolist()) for t in timelines] == expected

    def test_row_must_reach_the_indicator_column(self):
        # the cells after the last column read are not needed, up to it they are
        text = "unit_id,Date,C6,C6_Flag,Extra\nA,20200101,1\nA,20200102,1,0\n"
        (tl,) = parse_policy_csv(text.encode(), "C6")
        assert tl.codes.tolist() == [1, 1]
        with pytest.raises(ParseError, match="^row 4: expected 3 fields$"):
            parse_policy_csv((text + "A,20200103\n").encode(), "C6")

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
        assert tl.start == date(2020, 3, 1)
        assert tl.codes.tolist() == [2, 3]

    def test_leading_empty_codes_become_zero(self):
        text = "unit_id,Date,level\nCHN,20200101,\nCHN,20200102,1\n"
        (tl,) = parse_policy_csv(text.encode(), "level")
        assert tl.codes.tolist() == [0, 1]

    def test_missing_indicator_column(self):
        with pytest.raises(SchemaError, match="C9"):
            parse_policy_csv(OXCGRT_STYLE.encode(), "C9")

    @pytest.mark.parametrize(
        "header, row",
        [
            ("CountryName,RegionName,Date,C6", "  ,,20200102,1"),
            ("CountryName,RegionName,Date,C6", ",Alaska,20200102,1"),
            ("unit_id,Date,C6", ",20200102,1"),
        ],
    )
    def test_empty_unit_names_its_row(self, header, row):
        first = "CHN,,20200101,1" if "RegionName" in header else "CHN,20200101,1"
        text = f"{header}\n{first}\n{row}\n".encode()
        column = header.split(",")[0]
        with pytest.raises(ValidationError, match=f"^row 3: empty {column}$"):
            parse_policy_csv(text, "C6")

    def test_missing_unit_column(self):
        with pytest.raises(SchemaError, match="CountryName"):
            parse_policy_csv(b"Region,Date,C6\nx,20200101,0\n", "C6")

    def test_malformed_date(self):
        text = "unit_id,Date,level\nCHN,2020013,1\n"
        with pytest.raises(ParseError, match="date"):
            parse_policy_csv(text.encode(), "level")

    @pytest.mark.parametrize(
        "token", ["2020012", "202011", "2020W013", "2020-1-02", "2020-002", "20200230"]
    )
    def test_date_of_another_form_names_row(self, token):
        text = f"unit_id,Date,level\nCHN,20200101,1\nCHN,{token},1\n".encode()
        for parse in (parse_policy_csv, ref.parse_policy_csv):
            with pytest.raises(ParseError, match=f"^row 3: malformed date '{token}'$"):
                parse(text, "level")

    def test_a_table_may_mix_date_forms(self):
        text = b"unit_id,Date,level\nCHN,20200101,1\nCHN,2020-01-02,2\n"
        (tl,) = parse_policy_csv(text, "level")
        assert (tl.start, tl.codes.tolist()) == (date(2020, 1, 1), [1, 2])

    def test_code_out_of_range(self):
        text = "unit_id,Date,level\nCHN,20200101,7\n"
        with pytest.raises(ValidationError, match="0..3"):
            parse_policy_csv(text.encode(), "level")

    def test_duplicate_date_rejected(self):
        text = "unit_id,Date,level\nCHN,20200101,1\nCHN,20200101,2\n"
        with pytest.raises(ValidationError, match="duplicate"):
            parse_policy_csv(text.encode(), "level")

    def test_calendar_gap_rejected(self):
        text = "unit_id,Date,level\nCHN,20200101,1\nCHN,20200103,1\n"
        with pytest.raises(
            ValidationError,
            match=r"^timeline CHN: calendar gap between 2020-01-01 and 2020-01-03$",
        ):
            parse_policy_csv(text.encode(), "level")

    # A table with several faults names one: that of the first unit in
    # sorted order, and in that unit a duplicate date before a bad code
    # before a gap, each the first by date.

    def test_first_unit_in_sorted_order_names_its_fault(self):
        text = (
            "unit_id,Date,level\n"
            "B,20200101,1\nB,20200101,2\n"  # a duplicate, in a later unit
            "A,20200101,1\nA,20200103,1\n"  # a gap
        )
        with pytest.raises(
            ValidationError,
            match=r"^timeline A: calendar gap between 2020-01-01 and 2020-01-03$",
        ):
            parse_policy_csv(text.encode(), "level")

    def test_duplicate_date_before_bad_code_and_gap(self):
        text = (
            "unit_id,Date,level\n"
            "CHN,20200105,1\nCHN,20200101,x\nCHN,20200103,2\nCHN,20200103,1\n"
        )
        with pytest.raises(
            ValidationError, match=r"^unit CHN: duplicate date 2020-01-03$"
        ):
            parse_policy_csv(text.encode(), "level")

    def test_first_bad_code_by_date_before_gap(self):
        text = (
            "unit_id,Date,level\n"
            "CHN,20200101,1\nCHN,20200103,9\nCHN,20200102,2.5\nCHN,20200105,x\n"
        )
        with pytest.raises(
            ValidationError, match=r"^unit CHN on 2020-01-03: code 9 outside 0\.\.3$"
        ):
            parse_policy_csv(text.encode(), "level")
        text = "unit_id,Date,level\nCHN,20200101,1\nCHN,20200104,oops\nCHN,20200105,9\n"
        with pytest.raises(
            ParseError, match=r"^unit CHN on 2020-01-04: non-numeric code 'oops'$"
        ):
            parse_policy_csv(text.encode(), "level")

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e400", "nan"])
    def test_non_finite_code_names_unit_and_day(self, cell):
        text = f"unit_id,Date,level\nCHN,20200101,1\nCHN,20200102,{cell}\n"
        message = f"^unit CHN on 2020-01-02: non-numeric code '{cell}'$"
        for read in (parse_policy_csv, ref.parse_policy_csv):
            with pytest.raises(ParseError, match=message):
                read(text.encode(), "level")

    def test_empty_first_cell_reads_as_zero_in_every_unit(self):
        text = (
            "unit_id,Date,level\n"
            "A,20200101,3\nA,20200102,\n"
            "B,20200101,\nB,20200102,1\nB,20200103,\n"
        )
        a, b = parse_policy_csv(text.encode(), "level")
        assert (a.unit_id, list(a.codes)) == ("A", [3, 3])
        assert (b.unit_id, list(b.codes)) == ("B", [0, 1, 1])

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
        def timelines():  # a full write buffer, then a failure
            yield PolicyTimeline("France", date(2020, 2, 1), (1,) * 3000)
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
            PolicyTimeline("Germany/Bavaria", start, (0, 1, 3, 2)),
            PolicyTimeline("France", start + timedelta(days=2), (0, 0, 1, 1)),
        ]
        buf = io.StringIO()
        write_policy_csv(timelines, buf, "C6")
        parsed = parse_policy_csv(buf.getvalue().encode(), "C6")
        assert [(t.unit_id, t.start, t.codes.tolist()) for t in parsed] == [
            ("France", start + timedelta(days=2), [0, 0, 1, 1]),
            ("Germany/Bavaria", start, [0, 1, 3, 2]),
        ]


class TestTelemetryCsv:
    def rows(self):
        return telemetry([
            (date(2020, 1, 1), "g-1", "CHN", "Notebook", "i7", True, 7.25, 21.5),
            (date(2020, 1, 2), "g-2", "USA", "TwoInOne", "Other", False, 0.0, 0.0),
        ])

    def test_round_trip(self):
        buf = io.StringIO()
        write_telemetry_csv([self.rows()], buf)
        parsed = parse_telemetry_csv(buf.getvalue().encode())
        assert parsed == self.rows()

    def test_pieces_write_the_bytes_of_the_whole(self):
        # a quoted device id, and a date, in both pieces
        rows = [
            (date(2020, 1, 1), "g,1", "CHN", "Notebook", "i7", True, 7.25, 21.5),
            (date(2020, 1, 2), "g-2", "USA", "TwoInOne", "Other", False, 0.0, 0.0),
            (date(2020, 1, 1), "g,1", "USA", "Desktop", "i5", False, 1 / 3, 2.5),
        ]
        whole, pieces = io.StringIO(), io.StringIO()
        write_telemetry_csv([telemetry(rows)], whole)
        write_telemetry_csv((telemetry(part) for part in (rows[:2], rows[2:])), pieces)
        assert pieces.getvalue() == whole.getvalue()
        assert '"g,1"' in whole.getvalue()

    def test_chassis_alias_and_family_case(self):
        text = (
            "date,device_id,unit_id,chassis,cpu_family,vpro,usage_hours,cpu_watts\n"
            "2020-01-01,d,CHN,2-in-1,I7,yes,3.5,12.0\n"
        )
        rows = parse_telemetry_csv(text.encode())
        assert rows.devices == (("d", "CHN", "TwoInOne", "i7", True),)

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

    @pytest.mark.parametrize("cell", ["", "  "])
    def test_empty_unit_id_names_its_row(self, cell):
        text = (
            "date,device_id,unit_id,chassis,cpu_family,vpro,usage_hours,cpu_watts\n"
            "2020-01-01,d,CHN,Notebook,i5,0,1.0,12.0\n"
            f"2020-01-01,e,{cell},Notebook,i5,0,1.0,12.0\n"
        )
        with pytest.raises(ValidationError, match="^row 3: empty unit_id$"):
            parse_telemetry_csv(text.encode())

    @pytest.mark.parametrize(
        "cells, error",
        [
            # date, then vpro, then floats, then the schema, whatever their rows
            (["2020-01-01,d,,Toaster,i5,0,1.0,1.0", "x,d,CHN,Notebook,i5,0,1.0,1.0"],
             "row 3: malformed date 'x'"),
            (["2020-01-01,d,CHN,Notebook,i5,0,nan,1.0", "2020-01-01,d,CHN,Notebook,i5,?,1.0,1.0"],
             "row 3: bad vpro value '?'"),
            (["2020-01-01,d,CHN,Toaster,i5,0,1.0,1.0", "2020-01-01,d,CHN,Notebook,i5,0,1.0,x"],
             "row 3: non-numeric cpu_watts 'x'"),
            (["2020-01-01,d,CHN,Notebook,i5,0,25.0,1.0", "2020-01-01,e,CHN,Toaster,i5,0,1.0,1.0"],
             "row 2: usage_hours 25.0 outside"),
            (["2020-01-01,d,CHN,Notebook,i5,0,1.0,1.0", "2020-01-01,e,CHN,Toaster,pentium,0,1.0,-1.0"],
             "row 3: unknown chassis 'Toaster'"),
            (["2020-01-01,e,CHN,Notebook,pentium,0,1.0,1.0", "2020-01-01,d,,Toaster,i5,0,1.0,1.0"],
             "row 2: unknown cpu_family 'pentium'"),
        ],
    )
    def test_order_of_faults(self, cells, error):
        text = "\n".join([",".join(_TELEMETRY_COLUMNS), *cells, ""])
        with pytest.raises((ParseError, ValidationError), match=f"^{re.escape(error)}"):
            parse_telemetry_csv(text.encode())

    def test_a_device_with_two_attribute_sets_is_two_keys(self):
        rows = telemetry([
            (date(2020, 1, 1), "d1", "A", "Notebook", "i5", False, 1.0, 1.0),
            (date(2020, 1, 2), "d1", "A", "Desktop", "i5", False, 2.0, 1.0),
        ])
        buf = io.StringIO()
        write_telemetry_csv([rows], buf)
        parsed = parse_telemetry_csv(buf.getvalue().encode())
        assert parsed == rows
        assert parsed.devices == (
            ("d1", "A", "Desktop", "i5", False), ("d1", "A", "Notebook", "i5", False)
        )
        assert parsed.device.tolist() == [1, 0]

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["d", "p,1", 'q"x', "東京", 'a,"b"']),
                st.sampled_from(["A", "B,C", '"U"', "東京"]),
                st.sampled_from(sorted(CHASSIS_TYPES)),
                st.sampled_from(sorted(CPU_FAMILIES)),
                st.booleans(),
            ),
            max_size=6,
        ),
        st.lists(st.sampled_from([0, 1, 511, 512, 513]), min_size=1, max_size=3),
        st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, drawn, sizes, seed):
        # both vpro values, and one id under two keys, in every table
        keys = sorted({*drawn, ("d", "A", "NUC", "Other", False), ("d", "A", "NUC", "i5", True)})
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        code = rng.integers(0, len(keys), n)
        code[: len(keys)] = np.arange(len(keys))[:n]
        rows = [keys[k] for k in code.tolist()]
        day = rng.integers(1, 800_000, n)
        hours, watts = rng.uniform(0.0, 24.0, n), rng.uniform(0.0, 300.0, n)

        def table(lo, hi):
            devices, device = factorize(rows[lo:hi])
            return TelemetryColumns(day[lo:hi], device, devices, hours[lo:hi], watts[lo:hi])

        ends = np.cumsum(sizes).tolist()
        buf = io.StringIO()
        write_telemetry_csv([table(hi - m, hi) for m, hi in zip(sizes, ends)], buf)
        assert parse_telemetry_csv(buf.getvalue().encode()) == table(0, n)


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
        write_persona_csv([UsageColumns.from_vectors(records)], buf)
        parsed = parse_persona_csv(buf.getvalue().encode())
        assert parsed == UsageColumns.from_vectors(records)
        assert list(parsed) == records

    def test_pieces_write_the_bytes_of_the_whole(self):
        ids = ["p,1", "p2", "p,1", "p3"]
        days = [date(2020, 1, d).toordinal() for d in (1, 1, 2, 2)]
        values = [[1.5, 0.25], [0.0, 4.0], [1 / 3, 2.0], [0.5, 0.5]]

        def rows(part):
            return UsageColumns.from_rows(ids[part], days[part], values[part], ("office", "gaming"))

        whole, pieces = io.StringIO(), io.StringIO()
        write_persona_csv([rows(slice(0, 4))], whole)
        write_persona_csv((rows(part) for part in (slice(0, 2), slice(2, 3), slice(3, 4))), pieces)
        assert pieces.getvalue() == whole.getvalue()
        assert whole.getvalue().startswith('device_id,date,gaming,office\n"p,1",')

    def test_pieces_must_share_feature_names(self):
        def piece(names):
            return UsageColumns.from_rows(["p1"], [date(2020, 1, 1).toordinal()], [[1.0]], names)

        with pytest.raises(SchemaError, match="differ in feature names"):
            write_persona_csv(iter([piece(("a",)), piece(("b",))]), io.StringIO())

    @pytest.mark.parametrize("form", ["list", "pieces", "columns", "empty-piece"])
    def test_no_rows_write_nothing(self, tmp_path, form):
        empty = UsageColumns.from_rows([], [], [], ("a",))
        records = {
            "list": lambda: [],
            "pieces": lambda: iter([]),
            "columns": lambda: [empty],
            "empty-piece": lambda: iter([empty]),
        }[form]
        stream = io.StringIO()
        for target in (tmp_path / "persona.csv", stream):
            with pytest.raises(ValidationError, match="no persona records to write"):
                write_persona_csv(records(), target)
        assert os.listdir(tmp_path) == [] and stream.getvalue() == ""

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
        try:
            parsed = parse_persona_csv(arg)
        finally:
            if source == "pipe":  # the reader leaves a caller's stream open
                arg.close()
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
            write_persona_csv([UsageColumns.from_vectors([r]) for r in records], io.StringIO())


class TestPanelFormat:
    def full_panel(self):
        return make_panel(
            {"CHN|Notebook": [1.5, np.nan, 3.25], "USA": [0.0, 4.0, 5.0]},
            mask={"CHN|Notebook": [False, True, False]},
            system_count=[12.0, 30.25],
            continent=("Asia", "NorthAmerica"),
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
        assert np.array_equal(back.system_count, panel.system_count)
        assert back.continent == panel.continent

    def test_codes_section_round_trip(self):
        panel = make_panel({"A": [1.0, 2.0]})
        from causalpanel.paneldata import merge_panels

        merged = merge_panels(
            panel,
            [PolicyTimeline("A", panel.dates[0], (0, 3))],
        )
        buf = io.StringIO()
        write_panel(merged, buf)
        back = read_panel(buf.getvalue().encode())
        assert back.policy_codes.tolist() == [[0, 3]]

    @pytest.mark.parametrize("cell", ["7", "-1", "-3", "99999999999999999999"])
    def test_code_out_of_range_names_unit_and_date(self, cell):
        from causalpanel.paneldata import merge_panels

        panel = make_panel({"A": [1.0, 2.0], "B": [3.0, 4.0]})
        merged = merge_panels(
            panel, [PolicyTimeline(u, panel.dates[0], (0, 3)) for u in panel.unit_ids]
        )
        buf = io.StringIO()
        write_panel(merged, buf)
        text = buf.getvalue()
        assert text.endswith("B\t0\t3\n")
        # a panel has a code of 0..3 for every cell: NA is none
        with pytest.raises(ParseError, match="^codes row for 'B': bad number 'NA'$"):
            read_panel(text.replace("B\t0\t3", "B\tNA\t3").encode())
        with pytest.raises(
            ValidationError, match=f"policy code {cell} outside 0..3 for unit 'B' on 2020-01-02"
        ):
            read_panel(text.replace("B\t0\t3", f"B\t0\t{cell}").encode())

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
        + [("codes", "bad_header")]
        # a unit has one row in each section; a later one used to win
        + [(section, "second_row") for section in ("outcomes", "covariates", "tags", "codes")]
        # a row for a unit the outcomes lack is damage, not a unit to skip
        + [(section, "unknown_row") for section in ("covariates", "tags", "codes")],
    )
    def test_damaged_unit_row_named(self, section, damage):
        from causalpanel.paneldata import merge_panels

        panel = self.full_panel()
        panel = merge_panels(
            panel, [PolicyTimeline(u, panel.dates[0], (0, 1, 2)) for u in panel.unit_ids]
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
        elif damage == "second_row":
            lines.insert(row + 1, lines[row].rsplit("\t", 1)[0] + "\t7\n")
            expected = f"{section} section has a second row for unit 'USA'"
        elif damage == "unknown_row":
            lines.insert(row + 1, "ZZZ\t" + lines[row].split("\t", 1)[1])
            expected = (
                f"^{section} section has a row for unit 'ZZZ' that the outcomes section lacks$"
            )
        else:
            lines[start + 1] = lines[start + 1].rsplit("\t", 1)[0] + "\t1999-01-01\n"
            expected = "codes section: date header differs from the outcomes'"
        with pytest.raises(ParseError, match=expected):
            read_panel("".join(lines).encode())

    @pytest.mark.parametrize("section", ["outcomes", "covariates", "tags"])
    def test_repeated_section_header_named(self, section):
        # a section's header and rows again at the file's end: read as more
        # rows of the first, they were a unit 'unit' with bad numbers in the
        # outcomes, and a second row per unit in the other sections
        buf = io.StringIO()
        write_panel(self.full_panel(), buf)
        lines = buf.getvalue().splitlines(keepends=True)
        start = lines.index(f"#section {section}\n")
        again = len(lines) + 1  # its line number
        lines += lines[start : start + 3]
        with pytest.raises(
            ParseError, match=f"^line {again}: a second '#section {section}' header$"
        ):
            read_panel("".join(lines).encode())

    def test_section_out_of_order_named(self):
        buf = io.StringIO()
        write_panel(self.full_panel(), buf)
        lines = buf.getvalue().splitlines(keepends=True)
        start = lines.index("#section covariates\n")
        moved = lines[:start] + lines[start + 4 :] + lines[start : start + 4]
        with pytest.raises(
            ParseError,
            match="^line 11: unexpected '#section covariates'; a panel's sections are "
            "outcomes, covariates, tags, codes, in this order$",
        ):
            read_panel("".join(moved).encode())

    @pytest.mark.parametrize("keep", ["header", "nothing"])
    @pytest.mark.parametrize("section", ["covariates", "tags"])
    def test_section_of_header_only_names_first_unit(self, section, keep):
        # a section of its header alone, or of nothing, is not an absent one
        buf = io.StringIO()
        write_panel(self.full_panel(), buf)
        lines = buf.getvalue().splitlines(keepends=True)
        start = lines.index(f"#section {section}\n")
        del lines[start + (2 if keep == "header" else 1) : start + 4]
        expected = {
            "header": f"{section} section has no row for unit 'CHN\\|Notebook'",
            "nothing": f"{section} section has no header",
        }[keep]
        with pytest.raises(ParseError, match=f"^{expected}$"):
            read_panel("".join(lines).encode())

    def test_date_header_of_another_form_refused(self):
        buf = io.StringIO()
        write_panel(make_panel({"A": [1.0, 2.0]}), buf)
        text = buf.getvalue().replace("2020-01-02", "2020W013", 1)
        with pytest.raises(ParseError, match="outcomes section: malformed date header"):
            read_panel(text.encode())

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

    @pytest.mark.parametrize("text", ["A\tB", "A\nB", "A\r\nB", "A\x1cB", "A\u2028B", "A\n"])
    @pytest.mark.parametrize("part", ["unit id", "continent"])
    def test_cell_that_would_not_read_back_refused_on_write(self, part, text):
        # the reader splits rows on every line break of str.splitlines and
        # cells on tabs
        units = {"unit id": {text: [1.0]}, "continent": {"A": [1.0]}}[part]
        panel = make_panel(units, continent=[text] if part == "continent" else None)
        with pytest.raises(ValidationError, match=f"^{part} .* contains a tab or a line break$"):
            write_panel(panel, io.StringIO())

    @pytest.mark.parametrize("text", ["", " ", "\u3000"])
    def test_empty_unit_id_refused_on_write(self, text):
        # no flag could name it: an empty name in --treated, --donors or
        # --unit is dropped
        with pytest.raises(ValidationError, match=f"^unit id {re.escape(repr(text))} is empty$"):
            write_panel(make_panel({text: [1.0]}), io.StringIO())

    def test_unit_id_read_as_section_header_refused_on_write(self):
        # each row starts with its unit id; the reader takes a line that
        # starts with '#section ' for a section header
        panel = make_panel({"#section x": [1.0], "B": [2.0]})
        with pytest.raises(ValidationError, match=r"^unit id '#section x' starts with '#section '"):
            write_panel(panel, io.StringIO())
        # '#section' with no space after it reads back as a unit id
        for unit in ("#section", "#sectionx", " #section x"):
            stream = io.StringIO()
            write_panel(make_panel({unit: [1.0]}), stream)
            assert read_panel(stream.getvalue().encode()).unit_ids == (unit,)

    @given(
        data=st.lists(
            st.tuples(
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
                st.floats(min_value=0.0, max_value=1e4),
                # a continent is any text without a tab or a line break
                st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp", "Cs"))),
                st.lists(st.sampled_from(POLICY_CODES), min_size=3, max_size=3),
            ),
            min_size=1,
            max_size=4,
        ),
        parts=st.sets(st.sampled_from(["system_count", "continent", "policy_codes"])),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, data, parts):
        """Every panel reads back as written, with or without each of the
        covariates, tags and codes sections."""
        series = {f"u{i}": [0.0 if v is None else v for v in row[0]] for i, row in enumerate(data)}
        mask = {f"u{i}": [v is None for v in row[0]] for i, row in enumerate(data)}
        panel = make_panel(series, mask=mask)
        _, counts, continents, codes = zip(*data)
        given_parts = {"system_count": counts, "continent": continents, "policy_codes": codes}
        panel = replace(panel, **{name: given_parts[name] for name in parts})
        buf = io.StringIO()
        write_panel(panel, buf)
        back = read_panel(buf.getvalue().encode())
        assert np.array_equal(back.missing_mask, panel.missing_mask)
        assert np.array_equal(
            back.outcomes[~back.missing_mask], panel.outcomes[~panel.missing_mask]
        )
        for name in ("system_count", "continent", "policy_codes"):
            got, want = getattr(back, name), getattr(panel, name)
            assert (got is None) == (name not in parts)
            assert got is None or np.array_equal(got, want)


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
    # panelio reads every CSV table and csvwrite writes the input tables;
    # the helpers the CLI's command handlers share write their own result
    # tables, so that a command that writes only those (report) loads no
    # numpy. No other module touches CSV: not the CLI's front, which
    # --help loads, nor the panel file, which did, synth and cpd --panel
    # read.
    package = Path(causalpanel.__file__).parent
    importers = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "csv" for name in names):
                importers.append(path.relative_to(package).as_posix())
    assert sorted(set(importers)) == ["commands/__init__.py", "csvwrite.py", "panelio.py"]


BOM = b"\xef\xbb\xbf"


def same(a, b) -> bool:
    """Whether two parsed results are equal, arrays bitwise and of one dtype."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, PanelDataset):
        return same(*([getattr(p, f.name) for f in fields(p)] for p in (a, b)))
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return a == b


@pytest.mark.parametrize("source", ["path", "bytes", "stream"])
def test_byte_order_mark_read_past(tmp_path, source):
    """The five tables and panel.txt read the same with a leading UTF-8 byte
    order mark, which spreadsheet programs write ("CSV UTF-8"), as without."""
    config = ScenarioConfig(
        units=(UnitConfig("A", devices_per_day=2), UnitConfig("B", continent="Asia")),
        n_days=30,
        persona_devices=4,
        seed=1,
    )
    write_scenario(config, tmp_path)
    write_panel(generate_panel(config), str(tmp_path / "panel.txt"))
    (tmp_path / "series.csv").write_text("date,value\n2020-01-01,1.5\n2020-01-02,2.5\n")
    readers = {
        "policy.csv": lambda s: parse_policy_csv(s, DEFAULT_INDICATOR),
        "telemetry.csv": parse_telemetry_csv,
        "units.csv": parse_units_csv,
        "persona.csv": parse_persona_csv,
        "series.csv": parse_series_csv,
        "panel.txt": read_panel,
    }
    as_source = {
        "path": str,
        "bytes": lambda path: path.read_bytes(),
        "stream": lambda path: io.BytesIO(path.read_bytes()),
    }[source]
    for name, read in readers.items():
        plain = tmp_path / name
        marked = tmp_path / f"bom-{name}"
        marked.write_bytes(BOM + plain.read_bytes())
        assert not plain.read_bytes().startswith(BOM)
        assert same(read(as_source(marked)), read(as_source(plain))), name
