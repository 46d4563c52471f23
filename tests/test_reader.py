"""The CSV block reader against the ``csv.reader``-only readers kept in
``_reference``. Valid policy, telemetry, persona, series and units tables
are mutated: cells and rows dropped; bad numbers, quotes, extra cells and
blank lines injected; ``\\n``, ``\\r\\n`` and bare ``\\r`` line endings.
Each must parse to bitwise equal columns, or fail with the same error
class and message. Small block sizes put the block boundaries, refused
blocks and the switch to ``csv.reader`` at a quote into files of a few
rows."""

import contextlib
import io
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as ref
from causalpanel import panelio
from causalpanel.cli import main
from causalpanel.paneldata import _TELEMETRY_COLUMNS

# a warning from the reader (numpy's UserWarning "input contained no
# data") would reach the user as a log line. Only UserWarning is made an
# error: a filter of every warning also covers the report hooks, where a
# DeprecationWarning raised while a plugin formats a failure turns the
# report into an INTERNALERROR that never shows the falsifying example.
pytestmark = pytest.mark.filterwarnings("error::UserWarning")

START = date(2020, 1, 1)
TELEMETRY_HEADER = ",".join(_TELEMETRY_COLUMNS)

# Cells injected anywhere: numbers float() or loadtxt refuse, non-finite
# and out-of-range values, quoted cells (one with a line break, one left
# open), separators and control characters loadtxt or str.splitlines
# might treat apart, dates of forms the date rule refuses (a one-digit
# day, a week date), and the valid tokens of other columns.
INJECTED = [
    "x", "nan", "inf", "-inf", "1e400", "-1e400", "1_0", "\u0661", "0x10",
    " 1.5 ", "\u30001.5", "1.5\x1c", "\x1f2", "a\x00b", "#d0", "#", "-0.0",
    "1e-320", "3", "25", "-1", "", " ", '"q"', '"a"b', '"1.5"',
    '"2020-01-03"', '"a,b"', '"multi\nline"', '"open', "a\x0cb", "a\x85b",
    "a\u2028b", "2020-13-01", "2020012", "2020W013", "20200101", "2020-01-02",
    "Notebook", "2-in-1", "I7", "yes", "N",
]

ENDINGS = ["\n", "\r\n", "\r"]


def number():
    return st.floats(0.0, 24.0, allow_nan=False).map(repr)


def day(i: int) -> str:
    return (START + timedelta(days=i)).isoformat()


@st.composite
def persona_table(draw):
    names = draw(st.lists(
        st.sampled_from(["a", "b", "gaming", "web"]), min_size=1, max_size=3, unique=True
    ))
    rows = draw(st.lists(
        st.tuples(
            st.sampled_from(["d0", "d1", " d2 "]),
            st.integers(0, 9),
            st.lists(number(), min_size=len(names), max_size=len(names)),
        ),
        max_size=12,
    ))
    return ["device_id", "date", *names], [[dev, day(d), *values] for dev, d, values in rows]


@st.composite
def telemetry_table(draw):
    header = draw(st.permutations([*_TELEMETRY_COLUMNS, "extra"]))
    if draw(st.booleans()):
        header.remove("extra")
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        cells = {
            "date": day(draw(st.integers(0, 9))),
            "device_id": draw(st.sampled_from(["U0-1", "U0-2", "U1-1"])),
            "unit_id": draw(st.sampled_from(["U0", " U1"])),
            "chassis": draw(st.sampled_from(["Notebook", "Desktop", "2-in-1", "NUC"])),
            "cpu_family": draw(st.sampled_from(["i5", "I7", "Other"])),
            "vpro": draw(st.sampled_from(["0", "1", "true", "No"])),
            "usage_hours": draw(number()),
            "cpu_watts": draw(st.floats(0.0, 1e6, allow_nan=False).map(repr)),
            "extra": "z",
        }
        rows.append([cells[name] for name in header])
    return header, rows


@st.composite
def series_table(draw):
    header = draw(st.sampled_from([["value"], ["date", "value"], ["value", "date"]]))
    n = draw(st.integers(0, 12))
    values = draw(st.lists(
        st.floats(-1e9, 1e9, allow_nan=False).map(repr), min_size=n, max_size=n
    ))
    return header, [
        [day(i) if name == "date" else v for name in header] for i, v in enumerate(values)
    ]


@st.composite
def policy_table(draw):
    regions = draw(st.booleans())
    if regions:
        header = ["CountryName", "RegionName", "Date", "C6"]
    else:
        header = ["unit_id", "Date", "C6", "C6_Flag"]
    fmt = draw(st.sampled_from(["%Y%m%d", "%Y-%m-%d"]))
    rows = []
    for unit in draw(st.lists(st.sampled_from(["China", "US"]), max_size=2, unique=True)):
        for i in range(draw(st.integers(1, 6))):
            d = (START + timedelta(days=i)).strftime(fmt)
            code = draw(st.sampled_from(["0", "1", "2", "3", "", "2.0"]))
            region = draw(st.sampled_from(["", "Alaska"])) if regions else None
            rows.append([unit, region, d, code] if regions else [unit, d, code, "1"])
    return header, rows


@st.composite
def units_table(draw):
    rows = draw(st.lists(
        st.tuples(st.sampled_from(["U0", "U1", "U 2"]), st.sampled_from(["Europe", "Asia", ""])),
        max_size=8,
    ))
    header = ["unit_id", "continent", "devices_per_day", "vpro_fraction"]
    return header, [[u, c, "12", "0.5"] for u, c in rows]


TABLES = {
    "persona": persona_table(),
    "telemetry": telemetry_table(),
    "series": series_table(),
    "policy": policy_table(),
    "units": units_table(),
}


def parsed(module, kind: str, data: bytes):
    """What the module's reader makes of ``data``, in a form compared
    bitwise: its columns, or the class and message of its error."""
    try:
        if kind == "persona":
            rows = module.parse_persona_csv(data)
            return (rows.device_ids, rows.feature_names, rows.device.tobytes(),
                    rows.day.tobytes(), rows.values.shape, rows.values.tobytes())
        if kind == "telemetry":
            rows = module.parse_telemetry_csv(data)
            return [
                (rows.day.tobytes(), rows.device.tobytes()),
                (rows.usage_hours.tobytes(), rows.cpu_watts.tobytes()),
                rows.devices,
            ]
        if kind == "series":
            values, dates = module.parse_series_csv(data)
            return values.tobytes(), dates
        if kind == "policy":
            timelines = module.parse_policy_csv(data, "C6")
            return [(t.unit_id, t.start, t.codes.tolist()) for t in timelines]
        return module.parse_units_csv(data)
    except Exception as err:  # compared, not hidden: each side must fail alike
        return type(err), str(err)


@st.composite
def mutated(draw, kind: str):
    """A table of ``kind`` as bytes, with up to four mutations, a
    delimiter and line endings drawn."""
    header, rows = draw(TABLES[kind])
    rows = [list(row) for row in rows]
    delim = draw(st.sampled_from([",", "\t", ";"]))
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(
            ["drop_row", "drop_cell", "set_cell", "extra_cell", "blank_line"]
        ))
        i = draw(st.integers(0, len(rows)))
        if op == "blank_line":
            filler = draw(st.one_of(
                st.just(""),  # an empty line, which loadtxt skips
                st.text(alphabet=[delim, " ", "\t", "\u3000", "\x0c", "\x1c"], max_size=4),
            ))
            rows.insert(i, [filler])
            continue
        if not rows:
            continue
        row = rows[i % len(rows)]
        j = draw(st.integers(0, len(row) - 1)) if row else 0
        if op == "drop_row":
            rows.remove(row)
        elif op == "drop_cell" and row:
            del row[j]
        elif op == "set_cell" and row:
            row[j] = draw(st.sampled_from(INJECTED))
        elif op == "extra_cell":
            row.append(draw(st.sampled_from(INJECTED)))
    lines = [delim.join(header)] + [delim.join(row) for row in rows]
    endings = draw(st.lists(st.sampled_from(ENDINGS), min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):  # one ending for the whole file
        endings = [endings[0]] * len(lines)
    if draw(st.booleans()):  # an unterminated last line
        endings[-1] = ""
    return "".join(line + end for line, end in zip(lines, endings)).encode()


@pytest.mark.parametrize("kind", sorted(TABLES))
@settings(max_examples=150, deadline=None)
@given(data=st.data(), block_rows=st.sampled_from([1, 2, 3, 5, 2048]))
def test_mutated_table_reads_as_reference(kind, data, block_rows):
    text = data.draw(mutated(kind))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(panelio, "_BLOCK_ROWS", block_rows)
        patch.setattr(ref, "_BLOCK_ROWS", block_rows)
        assert parsed(panelio, kind, text) == parsed(ref, kind, text)


ROW = {
    "policy": "A,20200101,1,2",
    "telemetry": "2020-01-01,d,U,NUC,i5,0,1.0,2.0,x,y",
    "persona": "d0,2020-01-01,1.0,2.0",
    "series": "1.0,2.0",
    "units": "U0,Europe,U1",
}


@pytest.mark.parametrize(
    "kind, header, column",
    [
        ("policy", "unit_id,Date,C6,C6", "C6"),
        ("telemetry", f"{TELEMETRY_HEADER},usage_hours,extra", "usage_hours"),
        ("persona", "device_id,date,a,a", "a"),
        ("series", "value,value", "value"),
        ("units", "unit_id,continent,unit_id", "unit_id"),
    ],
    ids=["policy", "telemetry", "persona", "series", "units"],
)
def test_column_read_twice_refused(kind, header, column):
    # each reader took one of the copies, and the readers disagreed on which
    text = f"{header}\n{ROW[kind]}\n".encode()
    got = parsed(panelio, kind, text)
    assert got == parsed(ref, kind, text)
    assert got == (
        panelio.SchemaError, f"{kind} header names the column {column!r} more than once"
    )


@pytest.mark.parametrize(
    "kind, header",
    [
        ("policy", "unit_id,Date,C6,,"),
        ("telemetry", f"{TELEMETRY_HEADER},extra,extra"),
        ("series", "value,,"),
        ("units", "unit_id,continent,,"),
    ],
    ids=["policy", "telemetry", "series", "units"],
)
def test_column_not_read_may_repeat(kind, header):
    text = f"{header}\n{ROW[kind]}\n".encode()
    got = parsed(panelio, kind, text)
    assert got == parsed(ref, kind, text)
    assert not (isinstance(got, tuple) and isinstance(got[0], type))


@pytest.mark.parametrize(
    "kind, argv",
    [("persona", ["persona", "--width", "2", "--stride", "1", "--records"]),
     ("series", ["cpd", "--series"])],
    ids=["persona", "series"],
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_table_through_the_cli(tmp_path_factory, kind, argv, data):
    """Each mutated table, run through the command that reads it, exits 0
    or exits 2, 3 or 5 with a message that names the file; no exception
    leaves ``main``."""
    path = tmp_path_factory.mktemp(kind) / f"{kind}.csv"
    path.write_bytes(data.draw(mutated(kind)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, str(path), "--out", str(path.parent / "out"), "--quiet"])
    assert code in (0, 2, 3, 5), err.getvalue()
    if code:
        assert err.getvalue().startswith("ERROR ") and str(path) in err.getvalue()


def persona_lines(n: int) -> list[str]:
    return [f"d{i % 7},{day(i % 300)},{i * 0.25!r},{(i % 13) / 3!r}" for i in range(n)]


@pytest.mark.parametrize("ending", ENDINGS)
@pytest.mark.parametrize("line", [2047, 2048, 2049])
def test_quoted_line_break_across_block_boundary(tmp_path, ending, line):
    # the header is line 1, so the body's line 2048 ends the first block;
    # the quoted id starting on ``line`` ends on the line after it
    body = persona_lines(2100)
    body[line - 2] = '"d\nx"' + body[line - 2][2:]
    body[10] = body[10].replace("0.25", "1_0")  # a block refused first
    path = tmp_path / "persona.csv"
    path.write_bytes(ending.join(["device_id,date,a,b", *body, ""]).encode())
    got, expected = parsed(panelio, "persona", path), parsed(ref, "persona", path)
    assert got == expected
    assert "d\nx" in got[0]


@pytest.mark.parametrize(
    "cell, message",
    [
        ("nan", "row 2051: non-finite feature 'a' 'nan'"),
        ("", "row 2051: non-numeric feature 'a' ''"),
    ],
)
def test_error_past_first_block_names_its_row(tmp_path, cell, message):
    body = persona_lines(2100)
    body[2049] = body[2049].replace(f"{2049 * 0.25!r}", cell)
    path = tmp_path / "persona.csv"
    path.write_text("\n".join(["device_id,date,a,b", *body]), encoding="utf-8")
    assert parsed(panelio, "persona", path) == parsed(ref, "persona", path)
    with pytest.raises(panelio.ParseError, match=message):
        panelio.parse_persona_csv(path)


@pytest.mark.parametrize(
    "kind, text, message",
    [
        (
            "persona",
            "device_id,date,a\nd0,2020-01-01,1.0\n\nd0,2020-01-0x,1.0\n",
            "row 4: malformed date",
        ),
        (
            "persona",
            "device_id,date,a\r\nd0,2020-01-01,1.0\r\n\r\nd0,2020-01-02,-1.0\r\n",
            "row 4: feature 'a'",
        ),
        ("series", "value,date\n1.0,2020-01-01\r\r2.0,2020-13-01\n", "row 4: malformed date"),
        (
            "telemetry",
            f"{TELEMETRY_HEADER}\n2020-01-01,d,U,NUC,i5,0,1.0,2.0\n\n"
            "2020-01-01,d,U,NUC,i5,0,25.0,2.0\n",
            "row 4: usage_hours 25.0",
        ),
    ],
)
def test_row_after_empty_line_keeps_its_number(kind, text, message):
    # loadtxt skips an empty line; the rows after it keep their numbers
    got = parsed(panelio, kind, text.encode())
    assert got == parsed(ref, kind, text.encode())
    assert message in got[1]


@pytest.mark.parametrize(
    "days, message",
    [
        ([0, 2, 1], "row 4: date 2020-01-02 not after the previous date 2020-01-03"),
        ([0, 1, 1], "row 4: date 2020-01-02 not after the previous date 2020-01-02"),
        ([0, 1, 5, 40], None),  # gaps are allowed
    ],
    ids=["backwards", "repeated", "gaps"],
)
@pytest.mark.parametrize("block_rows", [1, 2048])
def test_series_dates_increase_strictly(days, message, block_rows):
    text = "date,value\n" + "".join(f"{day(d)},{d}.5\n" for d in days)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(panelio, "_BLOCK_ROWS", block_rows)
        patch.setattr(ref, "_BLOCK_ROWS", block_rows)
        got = parsed(panelio, "series", text.encode())
        assert got == parsed(ref, "series", text.encode())
    if message is None:
        assert got[1] == [START + timedelta(days=d) for d in days]
    else:
        assert got == (panelio.ValidationError, message)


def test_series_parse_error_comes_before_order():
    # the order is checked once every row has parsed, so a bad value
    # below an out-of-order date is the error, whatever the block size
    text = f"date,value\n{day(1)},1.0\n{day(0)},2.0\n{day(2)},x\n".encode()
    for block_rows in (1, 2048):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(panelio, "_BLOCK_ROWS", block_rows)
            assert parsed(panelio, "series", text) == (
                panelio.ParseError, "row 4: non-numeric value 'x'"
            )
