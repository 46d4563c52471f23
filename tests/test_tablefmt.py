"""The table formatter against ``repr`` and ``csv.writer``: every float
cell equals ``repr`` of its value, on the digit kernel's path and on the
values it hands to ``repr``, and every CSV writer writes the bytes of its
row-by-row reference in ``_reference``."""

import io
from datetime import date, timedelta
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as ref
from _builders import telemetry_columns
from causalpanel import tablefmt
from causalpanel.csvwrite import write_persona_csv, write_policy_csv, write_telemetry_csv
from causalpanel.errors import ValidationError
from causalpanel.panel import NA, CHASSIS_TYPES, CPU_FAMILIES, PanelDataset, write_panel
from causalpanel.paneldata import PolicyTimeline
from causalpanel.persona import UsageColumns
from causalpanel.tablefmt import BLOCK_ROWS, float_cells, write_rows

FIXED = [
    0.0, 5e-324, 2.2250738585072014e-308, 1e-5,
    np.nextafter(1e-3, 0), 1e-3, np.nextafter(1e-3, 1),
    0.5, 24.0, 1 / 3, 2.0**-10, 2.0**53 - 1, 2.0**53 + 2, 2.0**53 + 1,
    np.nextafter(1e12, 0), 1e12, np.nextafter(1e12, 2e12), 1e16,
    1.7976931348623157e308,
    # a product X = x * 10**p that is an integer and a half: a tie between
    # two 17-digit candidates
    1 + 2.0**-17, 7 + 3 * 2.0**-17,
    # fixed notation up to 12 integer digits, 19 fraction digits
    123456789012.25, 999999999999.9, 0.0012345678901234567, 0.009999999999999998,
    0.1, 0.2, 0.3, 9.999999999999998, 99.99999999999999, 1.0000000000000002,
]
FIXED = FIXED + [-x for x in FIXED]


def written(values, sep: str = ",") -> str:
    """``values`` (rows, or rows of cells) written as rows of float cells."""
    out = io.StringIO()
    write_rows(out, len(values), lambda lo, hi: [float_cells(values[lo:hi])], sep)
    return out.getvalue()


def assert_reprs(values):
    values = np.asarray(values, dtype=float)
    got = written(values)
    want = "\n".join(map(repr, values.tolist())) + "\n"
    if got != want:
        bad = [(w, g) for w, g in zip(want.splitlines(), got.splitlines()) if w != g]
        pytest.fail(f"{len(bad)} cells differ from repr, first (repr, written): {bad[:5]}")


def test_decade_bounds_are_at_or_above_the_powers_of_ten():
    # the decade of a double v is found by v >= bound, which is exact only
    # when no double lies between 10**k and its bound
    for k, bound in zip(range(-3, 13), tablefmt._DECADES.tolist()):
        assert Fraction(bound) >= Fraction(10) ** k
        assert Fraction(np.nextafter(bound, 0)) < Fraction(10) ** k


def test_fixed_values_match_repr():
    assert_reprs(FIXED)
    # in the domain, yet some are left to repr: a tie, and short digits
    inside = np.abs(FIXED)[(np.abs(FIXED) >= 1e-3) & (np.abs(FIXED) < 1e12)]
    decided = tablefmt._shortest(inside)[3]
    assert decided.any() and not decided.all()


def test_a_million_bit_patterns_match_repr(monkeypatch):
    # exponents mostly within the kernel's domain (2**-10 to 2**40), one
    # in sixteen over every exponent: zeros, subnormals, infinities, NaN
    rng = np.random.default_rng(20261020)
    n = 2**20
    exponent = rng.integers(1023 - 11, 1023 + 41, n, dtype=np.uint64)
    anywhere = rng.random(n) < 1 / 16
    exponent[anywhere] = rng.integers(0, 2048, int(anywhere.sum()), dtype=np.uint64)
    bits = rng.integers(0, 2**52, n, dtype=np.uint64) | (exponent << np.uint64(52))
    bits |= rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    values = bits.view(np.float64)
    handed = []
    monkeypatch.setattr(tablefmt, "repr", lambda x: handed.append(x) or repr(x), raising=False)
    for lo in range(0, n, 2**16):
        assert_reprs(values[lo : lo + 2**16])
    assert 0.05 * n < len(handed) < 0.2 * n  # both paths taken


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
def test_drawn_floats_match_repr(values):
    assert_reprs(values)


def test_cells_keep_their_shape():
    values = np.array([[1.5, -0.0], [1e-7, 2.0 / 3]])
    cells = float_cells(values)
    assert cells.shape == (2, 2, tablefmt.SLOT)
    assert written(values, "\t") == "1.5\t-0.0\n1e-07\t0.6666666666666666\n"


# ------------------------------------------------ writers and their references

# cells csv.writer quotes or that are more than one byte a character
TEXT = ["p,1", "東京", "é", "\x00", 'q"x', "a\nb", ""]
SIZES = st.lists(
    st.sampled_from([0, 1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]), max_size=3
)
POOLS = st.lists(st.text(max_size=4), max_size=4)
FLOATS = [0.0, -0.0, 5e-324, 1e-5, 1e16]


def drawn_floats(rng, n, hi, special=FLOATS):
    values = rng.uniform(0.0, hi, n)
    pick = rng.random(n) < 0.2
    values[pick] = rng.choice(special, int(pick.sum()))
    return values


def both(write, reference, pieces, *args):
    ours, theirs = io.StringIO(), io.StringIO()
    write(pieces, ours, *args)
    reference(pieces, theirs, *args)
    assert ours.getvalue().encode() == theirs.getvalue().encode()


@settings(max_examples=25, deadline=None)
@given(SIZES, POOLS, st.dates(max_value=date(9000, 1, 1)), st.integers(0, 2**32 - 1))
def test_policy_writer_matches_reference(sizes, pool, start, seed):
    rng = np.random.default_rng(seed)
    ids = TEXT + ["a/b", "/x", "c/"] + pool
    timelines = [
        PolicyTimeline(
            # not rng.choice: a numpy str array drops a trailing NUL
            ids[int(rng.integers(len(ids)))], start + timedelta(days=int(rng.integers(0, 400))),
            rng.integers(0, 4, n),
        )
        for n in sizes
    ]
    both(write_policy_csv, ref.write_policy_csv, timelines, "C6")


@settings(max_examples=25, deadline=None)
@given(SIZES, POOLS, st.integers(0, 2**32 - 1))
def test_telemetry_writer_matches_reference(sizes, pool, seed):
    rng = np.random.default_rng(seed)
    ids = TEXT + pool

    def piece(n):
        def texts(choices):  # not rng.choice, as above
            return [choices[k] for k in rng.integers(0, len(choices), n).tolist()]

        return telemetry_columns(
            day=rng.integers(1, 800_000, n),
            device_id=texts(ids),
            unit_id=texts([i for i in ids if i.strip()]),  # an empty one is refused
            chassis=texts(sorted(CHASSIS_TYPES)),
            cpu_family=texts(sorted(CPU_FAMILIES)),
            vpro=(rng.random(n) < 0.5).tolist(),
            usage_hours=drawn_floats(rng, n, 24.0, FLOATS[:4]),
            cpu_watts=drawn_floats(rng, n, 300.0),
        )

    both(write_telemetry_csv, ref.write_telemetry_csv, [piece(n) for n in sizes])


@settings(max_examples=25, deadline=None)
@given(SIZES.filter(any), POOLS, st.integers(0, 2**32 - 1))
def test_persona_writer_matches_reference(sizes, pool, seed):
    rng = np.random.default_rng(seed)
    ids = tuple(sorted(set(TEXT + pool)))
    names = ("web", "gaming", "office")

    def piece(n):
        values = drawn_floats(rng, 3 * n, 30.0).reshape(n, 3)
        return UsageColumns(
            ids, rng.integers(0, len(ids), n), rng.integers(1, 800_000, n), values, names
        )

    both(write_persona_csv, ref.write_persona_csv, [piece(n) for n in sizes])


def test_persona_writer_refuses_a_table_of_no_rows():
    empty = UsageColumns(("a",), [], [], np.zeros((0, 1)), ("web",))
    for write in (write_persona_csv, ref.write_persona_csv):
        with pytest.raises(ValidationError):
            write([empty, empty], io.StringIO())


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 5), st.sampled_from([0, 1, 7, BLOCK_ROWS * 6 + 1]), st.integers(0, 2**32 - 1)
)
def test_panel_writer_writes_repr_and_na(n_units, n_dates, seed):
    rng = np.random.default_rng(seed)
    units = tuple(f"U{i},é" for i in range(n_units))
    outcomes = drawn_floats(rng, n_units * n_dates, 24.0).reshape(n_units, n_dates)
    missing = rng.random(outcomes.shape) < 0.1
    outcomes[missing] = np.nan
    counts = drawn_floats(rng, n_units, 1e4)
    dates = tuple(date(2020, 1, 1) + timedelta(days=k) for k in range(n_dates))
    panel = PanelDataset(units, dates, outcomes, missing, "usage_hours", system_count=counts)
    out = io.StringIO()
    write_panel(panel, out)
    lines = out.getvalue().splitlines()
    rows = lines[lines.index("#section outcomes") + 2 :][:n_units]
    for u, row, values, masked in zip(units, rows, outcomes.tolist(), missing.tolist()):
        assert row == "\t".join([u] + [NA if m else repr(v) for v, m in zip(values, masked)])
    at = lines.index("#section covariates") + 2
    assert lines[at : at + n_units] == [f"{u}\t{c!r}" for u, c in zip(units, counts.tolist())]
