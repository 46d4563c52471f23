"""Working-memory bounds of the steps whose data grows with the row count,
on a persona stream the size of the benchmark's ``fleet`` workload (180
devices x 365 days x 6 features, a 3.15 MB value matrix).

Each bound is a multiple of that matrix's ``nbytes``. tracemalloc counts
every allocation made through Python and numpy, so the traced peak is
exact and repeatable where a process's RSS is not; what a step's inputs
already hold is not counted, what it allocates (its result included) is.
Each step runs once untraced first, so that modules it imports on first
use are not counted."""

import gc
import tracemalloc
from datetime import date, timedelta

import pytest

from causalpanel.panelio import parse_persona_csv
from causalpanel.persona import device_means, fit_kmeans, windowed_counts
from causalpanel.simgen import (
    PersonaShiftConfig,
    ScenarioConfig,
    UnitConfig,
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
#   parse_persona_csv  1.93, bound 2.2: the result (values, device and
#                      day columns: 1.33), the device id of each row, and
#                      the row strings of one block (2.30 while the
#                      previous block's strings lived on into the next read)
#   device_means       0.44, bound 0.6: the row order and one gathered
#                      piece with its transpose
#   windowed_counts    0.64, bound 0.8: the row order, its sort key and
#                      one gathered piece
#   write_scenario     1.87, bound 2.2: the stream (1.33), one piece of
#                      noise and one block of formatted rows


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


def test_write_scenario_holds_one_copy(fleet):
    out, _, records, _ = fleet
    peak = traced_peak(write_scenario, fleet_persona_config(), out / "traced")
    assert peak <= 2.2 * records.values.nbytes
