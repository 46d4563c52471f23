"""Working-memory bounds of the steps whose data grows with the row count,
on a persona stream the size of the benchmark's ``fleet`` workload (180
devices x 365 days x 6 features, a 3.15 MB value matrix), on a policy
table of 100 units x 1000 days, and on a telemetry table the size of
``fleet``'s (8 units x 12 devices x 365 days).

Each persona bound is a multiple of that matrix's ``nbytes``, the policy
bound a number of bytes per table row. tracemalloc counts
every allocation made through Python and numpy, so the traced peak is
exact and repeatable where a process's RSS is not; what a step's inputs
already hold is not counted, what it allocates (its result included) is.
Each step runs once untraced first, so that modules it imports on first
use are not counted."""

import gc
import tracemalloc
from dataclasses import replace
from datetime import date, timedelta

import pytest

from causalpanel.panelio import parse_persona_csv, parse_policy_csv, parse_telemetry_csv
from causalpanel.persona import device_means, fit_kmeans, windowed_counts
from causalpanel.simgen import (
    PersonaShiftConfig,
    ScenarioConfig,
    UnitConfig,
    archetype_model,
    write_scenario,
)

START = date(2020, 1, 1)


def fleet_persona_config() -> ScenarioConfig:
    return ScenarioConfig(
        units=(UnitConfig("U00"),),
        start=START,
        n_days=365,
        persona_devices=180,
        persona_noise=0.2,
        persona_shift=PersonaShiftConfig(
            shift_date=START + timedelta(days=182),
            from_persona="Office/Productivity",
            to_persona="Casual Gamers",
            fraction=0.2,
        ),
        seed=1,
    )


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    out = tmp_path_factory.mktemp("fleet")
    paths = write_scenario(fleet_persona_config(), out / "warm")
    records = parse_persona_csv(paths["persona"])
    assert records.values.shape == (180 * 365, 6)
    model = fit_kmeans(device_means(records), k=6, seed=0)
    return out, paths["persona"], records, model


def traced_peak(step, *args) -> int:
    """Bytes allocated at the peak of ``step(*args)``."""
    step(*args)
    gc.collect()
    tracemalloc.start()
    try:
        step(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Each bound is the measured peak / values.nbytes plus a slack of about
# 15 % for allocator and interpreter differences. Apart from the result
# and index arrays of 8 bytes per row, the working arrays are pieces of a
# fixed row count. Before the columns were filled in place and gathered
# in pieces, the four peaks were 3.2, 3.2, 3.6 and 4.4.
#
#   parse_persona_csv  1.75, bound 2.2: the result (values, device and
#                      day columns: 1.33), the device codes in the order
#                      met until they are ranked into the sorted id table
#                      (0.17), and the lines and cells of one block (1.75
#                      too while a device id string was kept per row;
#                      1.93 when csv.reader split every block into cell
#                      strings; 2.30 while the previous block's strings
#                      lived on into the next read)
#   device_means       0.44, bound 0.6: the row order and one gathered
#                      piece with its transpose
#   windowed_counts    0.64, bound 0.8: the row order, its sort key and
#                      one gathered piece; as much with the model's
#                      features in another order than the stored one
#                      (1.64 when the value matrix was copied to reorder)
#   write_scenario     0.40, bound 0.5: one piece of the persona stream
#                      (4096 rows) with its noise, and one block of 512
#                      rows laid out as bytes with the float digits'
#                      working arrays (0.33 while each cell of a block was
#                      a Python string; 1.87 while the whole stream, 1.33,
#                      was made before any of it was written)


def test_parse_persona_holds_one_copy(fleet):
    _, persona_csv, records, _ = fleet
    peak = traced_peak(parse_persona_csv, persona_csv)
    assert peak <= 2.2 * records.values.nbytes


def test_device_means_gathers_in_pieces(fleet):
    _, _, records, _ = fleet
    peak = traced_peak(device_means, records)
    assert peak <= 0.6 * records.values.nbytes


def test_windowed_counts_gathers_in_pieces(fleet):
    _, _, records, model = fleet
    peak = traced_peak(windowed_counts, records, model)
    assert peak <= 0.8 * records.values.nbytes


def test_windowed_counts_in_model_order_copies_no_matrix(fleet):
    # the archetype model lists its features unsorted, the parsed file
    # sorted: the means are reordered, not the value matrix
    _, _, records, _ = fleet
    model = archetype_model()
    assert model.feature_names != records.feature_names
    peak = traced_peak(windowed_counts, records, model)
    assert peak <= 0.8 * records.values.nbytes


def test_write_scenario_holds_a_piece(fleet):
    out, _, records, _ = fleet
    peak = traced_peak(write_scenario, fleet_persona_config(), out / "traced")
    assert peak <= 0.5 * records.values.nbytes


def test_write_scenario_peak_does_not_grow_with_the_stream(fleet):
    # 60 devices are six pieces of the stream. Twice as many add only
    # what each device has alone: its id, its written cell and an entry in
    # two index arrays, about 165 bytes a device. A stream made whole
    # would add 365 x 6 floats (17520 bytes) a device, more than once over.
    out, _, _, _ = fleet
    single, doubled = (
        traced_peak(
            write_scenario, replace(fleet_persona_config(), persona_devices=n), out / f"n{n}"
        )
        for n in (60, 120)
    )
    assert doubled <= single + 256 * 60


def test_parse_policy_holds_columns(tmp_path):
    # 100 units x 1000 days, each unit at codes 0 to 3 for 250 days. The
    # bound is the measured peak plus about 15 %. The peak is 43 bytes a
    # row (4.3 MB; the parse takes 0.1 s untraced on a 2-core x86-64
    # host): the unit, day and code cell columns, each int64 codes (24),
    # the sort order and one column gathered by it (16), and the result's
    # codes; as much while the unit and code cells were kept as one string
    # reference a row each. Holding each
    # unit's rows as (day, cell) tuples and its timeline as one date object
    # and one int per day took 147 bytes a row (14.7 MB, 0.2 to 0.3 s).
    days = [(START + timedelta(days=k)).strftime("%Y%m%d") for k in range(1000)]
    path = tmp_path / "policy.csv"
    path.write_text(
        "CountryName,RegionName,Date,C6\n"
        + "".join(f"U{u:02d},,{d},{k // 250}\n" for u in range(100) for k, d in enumerate(days)),
        encoding="utf-8",
    )
    peak = traced_peak(parse_policy_csv, path, "C6")
    assert peak <= 50 * 100 * 1000


def test_parsed_telemetry_holds_columns_of_numbers(tmp_path):
    # What the parsed table keeps, the result held: four 8-byte columns
    # (day, device code, usage hours, watts) and one key per device, 32.9
    # bytes a row. Holding device id, unit, chassis and CPU family as one
    # tuple entry a row each, and vpro as a bool array, kept 57.3.
    config = ScenarioConfig(
        units=tuple(UnitConfig(f"U{u}", devices_per_day=12) for u in range(8)),
        start=START,
        n_days=365,
        persona_devices=0,
        seed=1,
    )
    path = write_scenario(config, tmp_path)["telemetry"]
    parse_telemetry_csv(path)  # its imports are not counted
    gc.collect()
    tracemalloc.start()
    try:
        rows = parse_telemetry_csv(path)
        gc.collect()  # frees the interpreter's spare tuples, which no one holds
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rows) == 8 * 12 * 365
    assert kept <= 40 * len(rows)
    assert len(rows.devices) == 96
