"""Policy timelines, device telemetry, and the panels made from them
(:func:`aggregate_telemetry`, :func:`merge_panels`). The panel type,
:class:`~causalpanel.panel.PanelDataset`, and its file are
:mod:`causalpanel.panel`, which loads without this module. A panel from
telemetry gets its ``system_count`` from :func:`aggregate_telemetry` and
its policy codes from :func:`merge_panels`; ``ingest --units`` adds its
``continent``.

Everything here is immutable after construction and safe to share across
threads; the operations are pure functions of their inputs.

A policy timeline (:class:`PolicyTimeline`) is one unit's start date and
one code per day, so its days are contiguous by construction.

Device telemetry is held as columns only (:class:`TelemetryColumns`):
one int64 array of day ordinals, one int64 device code per row, the
sorted device keys the codes index (device id, unit, chassis, CPU
family, vPro: the columns that describe a device, held once per device)
and one float64 array per measurement. There is no per-row object.
Aggregation is bitwise equal to accumulating the rows one by one in
canonical order (group label, date, device, usage hours, watts): rows
are put in that order with a stable ``np.lexsort`` and summed per cell
with ``np.bincount``, which adds its weights in input order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from datetime import date, timedelta
from typing import Iterable, Sequence

import numpy as np

from .errors import SchemaError, ValidationError
from .panel import (
    CHASSIS_TYPES,
    CPU_FAMILIES,
    POLICY_CODES,
    PanelDataset,
    _equal_fields,
    _frozen_array,
)

# The OxCGRT indicator a policy table is read by when none is named.
DEFAULT_INDICATOR = "C6_Stay at home requirements"

# Canonical ordering of telemetry grouping fields, used to build stable
# composite unit labels such as "CHN|Notebook|i7".
GROUP_FIELD_ORDER = ("unit_id", "chassis", "cpu_family", "vpro")

# The columns of a telemetry table, in the order written.
_TELEMETRY_COLUMNS = (
    "date",
    "device_id",
    "unit_id",
    "chassis",
    "cpu_family",
    "vpro",
    "usage_hours",
    "cpu_watts",
)


class EventKind(enum.Enum):
    ACTIVATION = "activation"
    DEACTIVATION = "deactivation"


@dataclass(frozen=True, eq=False)
class PolicyTimeline:
    """Daily ordinal policy level for one unit (country or region): the
    code of day ``start + k`` is ``codes[k]``, a read-only int64 array.
    Equality is field by field."""

    unit_id: str
    start: date
    codes: np.ndarray

    def __post_init__(self):
        codes = np.asarray(self.codes)
        bad = np.flatnonzero(~np.isin(codes, POLICY_CODES))
        if bad.size:
            k = int(bad[0])
            raise ValidationError(
                f"timeline {self.unit_id}: code {codes[k]} on "
                f"{self.start + timedelta(days=k)} outside 0..3"
            )
        object.__setattr__(self, "codes", _frozen_array(codes, np.int64))

    @property
    def dates(self) -> tuple[date, ...]:
        return tuple(self.start + timedelta(days=k) for k in range(len(self.codes)))

    __eq__ = _equal_fields
    __hash__ = None


@dataclass(frozen=True)
class TreatmentEvent:
    """A policy transition of interest: activation (reaching the strictest
    level) or the first subsequent relaxation to level 2."""

    unit_id: str
    kind: EventKind
    date: date


def device_fault(key) -> str | None:
    """What is wrong with a device key (see :class:`TelemetryColumns`), or
    None: an empty unit id (after stripping), or an unknown chassis or CPU family."""
    _, unit_id, chassis, cpu_family, _ = key
    return (
        "empty unit_id" if not unit_id.strip()
        else f"unknown chassis {chassis!r}" if chassis not in CHASSIS_TYPES
        else f"unknown cpu_family {cpu_family!r}" if cpu_family not in CPU_FAMILIES
        else None
    )


def telemetry_violation(device, faults: dict, hours: np.ndarray, watts: np.ndarray):
    """The first row that breaks the telemetry schema, as (row index,
    what is wrong), or None: a row whose device code ``faults`` maps to
    its key's :func:`device_fault` (so a key is checked once, however many
    rows use it), usage hours outside [0, 24], or watts not finite and
    non-negative. Of one row's faults, the first of these is named."""
    checks = (
        (np.isin(device, list(faults)), lambda i: faults[int(device[i])]),
        (~((hours >= 0.0) & (hours <= 24.0)), lambda i: f"usage_hours {hours[i]} outside [0, 24]"),
        (
            ~(np.isfinite(watts) & (watts >= 0.0)),
            lambda i: f"cpu_watts {watts[i]} must be finite and non-negative",
        ),
    )
    firsts = [(int(np.argmax(bad)), what) for bad, what in checks if bad.any()]
    if not firsts:
        return None
    i, what = min(firsts, key=lambda p: p[0])
    return i, what(i)


def distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array in sorted order: ``np.unique``
    without its options, which under numpy 2 imports ``numpy.ma`` on its
    first call (about 1 MB and 10 ms)."""
    values = np.sort(values)
    keep = np.ones(values.size, bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _unit_label(cells: tuple[str, str]) -> str:
    """The unit of a policy row's (unit, region) cells; empty if its unit cell is."""
    unit, region = map(str.strip, cells)
    return f"{unit}/{region}" if region and unit else unit


def factorize(values: Sequence) -> tuple[tuple, np.ndarray]:
    """Distinct values in sorted order, and each value's index among them
    (so index order is value order)."""
    levels = sorted(set(values))
    index = {v: i for i, v in enumerate(levels)}
    codes = np.fromiter(map(index.__getitem__, values), np.int64, len(values))
    return tuple(levels), codes


@dataclass(frozen=True, eq=False)
class TelemetryColumns:
    """Device-day usage reports as columns. Row ``i`` is device
    ``devices[device[i]]`` on day ``date.fromordinal(day[i])``, with
    ``usage_hours[i]`` and ``cpu_watts[i]``. A device key is ``(device_id,
    unit_id, chassis, cpu_family, vpro)``; ``devices`` holds those the rows
    use, sorted and distinct (:func:`factorize` of one key per row), so a
    device id reported with two attribute sets is two keys.

    Equality is field by field, floats bitwise.
    """

    day: np.ndarray
    device: np.ndarray
    devices: tuple[tuple[str, str, str, str, bool], ...]
    usage_hours: np.ndarray
    cpu_watts: np.ndarray

    def __post_init__(self):
        devices = tuple(map(tuple, self.devices))
        object.__setattr__(self, "devices", devices)
        for name, dtype in (
            ("day", np.int64), ("device", np.int64), ("usage_hours", float), ("cpu_watts", float)
        ):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), dtype))
        device, n = self.device, len(self.day)
        if any(a.shape != (n,) for a in (device, self.usage_hours, self.cpu_watts)):
            raise ValidationError("telemetry columns differ in length")
        if list(devices) != sorted(set(devices)):
            raise ValidationError("device keys must be sorted and distinct")
        used = np.bincount(device[device >= 0], minlength=len(devices))
        if (device < 0).any() or used.size != len(devices) or not used.all():
            raise ValidationError("device codes must index every device key and no other")
        faults = {k: f for k, key in enumerate(devices) if (f := device_fault(key))}
        problem = telemetry_violation(device, faults, self.usage_hours, self.cpu_watts)
        if problem is not None:
            i, what = problem
            day = date.fromordinal(int(self.day[i]))
            raise ValidationError(f"device {devices[device[i]][0]} on {day}: {what}")

    def __len__(self) -> int:
        return self.day.shape[0]

    __eq__ = _equal_fields
    __hash__ = None


def extract_treatment_events(timeline: PolicyTimeline) -> list[TreatmentEvent]:
    """Extract the activation (first day at code 3) and, after it, the first
    relaxation day at code 2. Either, both, or neither may exist."""
    active = np.flatnonzero(timeline.codes >= 3)
    if not active.size:
        return []
    days = [int(active[0])]
    relaxed = np.flatnonzero(timeline.codes[days[0] + 1 :] == 2)
    if relaxed.size:
        days.append(days[0] + 1 + int(relaxed[0]))
    return [
        TreatmentEvent(timeline.unit_id, kind, timeline.start + timedelta(days=k))
        for kind, k in zip((EventKind.ACTIVATION, EventKind.DEACTIVATION), days)
    ]


def _group_index(rows: TelemetryColumns, fields: tuple[str, ...]):
    """Sorted composite labels such as "CHN|Notebook|i7", and each row's
    index among them: a label per device key, gathered by the rows."""

    def label(key) -> str:  # a key is the device id, then the GROUP_FIELD_ORDER fields
        return "|".join(
            ("vpro" if v else "novpro") if f == "vpro" else v
            for f, v in zip(GROUP_FIELD_ORDER, key[1:])
            if f in fields
        )

    labels, group = factorize(list(map(label, rows.devices)))
    return labels, group[rows.device]


def group_fields(group_by: Iterable[str]) -> tuple[str, ...]:
    """``group_by`` in canonical order; an unknown field is a SchemaError."""
    unknown = set(group_by) - set(GROUP_FIELD_ORDER)
    if unknown:
        raise SchemaError(f"cannot group by {sorted(unknown)}")
    return tuple(f for f in GROUP_FIELD_ORDER if f in set(group_by))


def check_outcome(outcome: str) -> None:
    """A SchemaError unless ``outcome`` names a telemetry measurement."""
    if outcome not in ("usage_hours", "cpu_watts"):
        raise SchemaError(f"no outcome field {outcome!r} in telemetry records")


def aggregate_telemetry(
    rows: TelemetryColumns,
    group_by: Iterable[str] = ("unit_id",),
    outcome: str = "usage_hours",
) -> PanelDataset:
    """Aggregate device-day rows to a (group x date) panel of outcome means.

    Groups are composite units keyed by the requested fields in canonical
    order. Cells with no rows are masked. The panel's ``system_count`` is
    each group's mean daily device count over the days it reports, which
    ``report`` shows; it has no ``continent`` (``ingest --units`` adds it)
    and no policy codes (:func:`merge_panels` adds them).

    Rows are canonically sorted before accumulation so that the output is
    bit-identical under any input permutation.
    """
    if not len(rows):
        raise ValidationError("no telemetry records to aggregate")
    fields = group_fields(group_by)
    check_outcome(outcome)

    unit_ids, group = _group_index(rows, fields)
    device_ids, device_of_key = factorize([key[0] for key in rows.devices])
    device = device_of_key[rows.device]
    first = int(rows.day.min())
    n_dates = int(rows.day.max()) - first + 1
    dates = tuple(date.fromordinal(first + t) for t in range(n_dates))
    shape = (len(unit_ids), n_dates)

    order = np.lexsort((rows.cpu_watts, rows.usage_hours, device, rows.day, group))
    cell = group * n_dates + (rows.day - first)
    sums = np.bincount(
        cell[order], weights=getattr(rows, outcome)[order], minlength=shape[0] * shape[1]
    )
    counts = np.bincount(cell, minlength=shape[0] * shape[1]).reshape(shape)
    present = counts > 0
    outcomes = np.zeros(shape)
    outcomes[present] = sums.reshape(shape)[present] / counts[present]

    # Distinct devices per cell, averaged over the days each group reports.
    cell_devices = distinct(cell * len(device_ids) + device) // len(device_ids)
    day_counts = np.bincount(cell_devices, minlength=shape[0] * shape[1]).reshape(shape)
    system_count = day_counts.sum(axis=1) / present.sum(axis=1)
    return PanelDataset(
        unit_ids=unit_ids,
        dates=dates,
        outcomes=outcomes,
        missing_mask=~present,
        outcome_name=outcome,
        system_count=system_count,
    )


def merge_panels(
    outcome_panel: PanelDataset, timelines: Iterable[PolicyTimeline]
) -> PanelDataset:
    """Restrict the panel to dates covered by every unit's policy timeline and
    attach the per-(unit, date) policy code.

    Telemetry groups inherit the timeline of their country part: a composite
    unit like "CHN|Notebook" matches the timeline for "CHN".
    """
    by_unit = {t.unit_id: t for t in timelines}

    def lookup(unit_id: str) -> PolicyTimeline | None:
        if unit_id in by_unit:
            return by_unit[unit_id]
        return by_unit.get(unit_id.split("|", 1)[0])

    tls = [lookup(u) for u in outcome_panel.unit_ids]
    missing = [u for u, tl in zip(outcome_panel.unit_ids, tls) if tl is None]
    if missing:
        raise ValidationError(
            "no policy timeline for unit(s): " + ", ".join(sorted(missing))
        )

    # each timeline's first day as a panel date index; the common dates run
    # from the latest start to the earliest end, clipped to the panel
    first = outcome_panel.dates[0].toordinal() if outcome_panel.dates else 0
    offsets = [tl.start.toordinal() - first for tl in tls]
    lo = max([0, *offsets])
    hi = min([outcome_panel.n_dates, *(o + len(tl.codes) for o, tl in zip(offsets, tls))])
    if lo >= hi:
        raise ValidationError("panel and policy timelines share no dates")

    codes = np.array([tl.codes[lo - o : hi - o] for o, tl in zip(offsets, tls)], np.int64)

    return replace(
        outcome_panel,
        dates=outcome_panel.dates[lo:hi],
        outcomes=outcome_panel.outcomes[:, lo:hi],
        missing_mask=outcome_panel.missing_mask[:, lo:hi],
        policy_codes=codes.reshape(len(tls), hi - lo),
    )
