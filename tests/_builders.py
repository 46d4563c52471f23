"""Hand-rolled fixtures shared across test modules."""

from datetime import date, timedelta

import numpy as np

from causalpanel.paneldata import PanelDataset, TelemetryColumns


def make_panel(
    series,
    start=date(2020, 1, 1),
    mask=None,
    system_count=None,
    continent=None,
    outcome_name="usage_hours",
):
    """Build a PanelDataset from {unit_id: list of daily values}.

    Unit order follows dict insertion order, which lets tests permute the
    unit axis explicitly. ``mask`` maps unit_id -> boolean list marking
    missing cells.
    """
    units = tuple(series)
    lengths = {len(v) for v in series.values()}
    assert len(lengths) == 1, "all unit series must share one length"
    n_dates = lengths.pop()
    dates = tuple(start + timedelta(days=i) for i in range(n_dates))
    outcomes = np.array([series[u] for u in units], dtype=float)
    if mask is None:
        missing = np.zeros_like(outcomes, dtype=bool)
    else:
        missing = np.array(
            [mask.get(u, [False] * n_dates) for u in units], dtype=bool
        )
    return PanelDataset(
        unit_ids=units,
        dates=dates,
        outcomes=outcomes,
        missing_mask=missing,
        outcome_name=outcome_name,
        system_count=system_count,
        continent=continent,
    )


def day(offset, start=date(2020, 1, 1)):
    return start + timedelta(days=offset)


def telemetry(rows):
    """Build TelemetryColumns from rows of (date, device_id, unit_id,
    chassis, cpu_family, vpro, usage_hours, cpu_watts), in row order."""
    rows = list(rows)
    day, *rest = zip(*rows) if rows else [()] * 8
    return TelemetryColumns([d.toordinal() for d in day], *rest)
