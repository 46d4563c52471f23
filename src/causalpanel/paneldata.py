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
one int64 array of day ordinals, one tuple of strings per text field
(device, unit, chassis, CPU family), a bool array for vPro and one
float64 array per measurement. There is no per-row object.
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


def telemetry_violation(chassis, cpu_family, usage_hours, cpu_watts):
    """The first row that breaks the telemetry schema, as (row index,
    what is wrong), or None. Chassis and CPU family must be known names,
    usage hours within [0, 24], watts finite and non-negative."""
    hours = np.asarray(usage_hours, dtype=float)
    watts = np.asarray(cpu_watts, dtype=float)
    problems = []
    for name, values, allowed in (
        ("chassis", chassis, CHASSIS_TYPES),
        ("cpu_family", cpu_family, CPU_FAMILIES),
    ):
        unknown = set(values) - allowed
        if unknown:
            i = next(i for i, v in enumerate(values) if v in unknown)
            problems.append((i, f"unknown {name} {values[i]!r}"))
    bad = np.flatnonzero(~((hours >= 0.0) & (hours <= 24.0)))
    if bad.size:
        i = int(bad[0])
        problems.append((i, f"usage_hours {hours[i]} outside [0, 24]"))
    bad = np.flatnonzero(~(np.isfinite(watts) & (watts >= 0.0)))
    if bad.size:
        i = int(bad[0])
        problems.append((i, f"cpu_watts {watts[i]} must be finite and non-negative"))
    return min(problems, key=lambda p: p[0]) if problems else None


def distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array in sorted order: ``np.unique``
    without its options, which under numpy 2 imports ``numpy.ma`` on its
    first call (about 1 MB and 10 ms)."""
    values = np.sort(values)
    keep = np.ones(values.size, bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def factorize(values: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Distinct values in sorted order, and each value's index among them
    (so index order is string order)."""
    levels = sorted(set(values))
    index = {v: i for i, v in enumerate(levels)}
    codes = np.fromiter(map(index.__getitem__, values), np.int64, len(values))
    return tuple(levels), codes


@dataclass(frozen=True, eq=False)
class TelemetryColumns:
    """Device-day usage reports as columns; row ``i`` of every field is one
    report. ``day`` holds date ordinals (``date.toordinal()``).

    Equality is field by field, floats bitwise.
    """

    day: np.ndarray
    device_id: tuple[str, ...]
    unit_id: tuple[str, ...]
    chassis: tuple[str, ...]
    cpu_family: tuple[str, ...]
    vpro: np.ndarray
    usage_hours: np.ndarray
    cpu_watts: np.ndarray

    def __post_init__(self):
        for name in ("device_id", "unit_id", "chassis", "cpu_family"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "day", _frozen_array(self.day, np.int64))
        object.__setattr__(self, "vpro", _frozen_array(self.vpro, bool))
        for name in ("usage_hours", "cpu_watts"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), float))
        n = len(self.device_id)
        arrays = (self.day, self.vpro, self.usage_hours, self.cpu_watts)
        texts = (self.unit_id, self.chassis, self.cpu_family)
        if any(a.shape != (n,) for a in arrays) or any(len(t) != n for t in texts):
            raise ValidationError("telemetry columns differ in length")
        problem = telemetry_violation(
            self.chassis, self.cpu_family, self.usage_hours, self.cpu_watts
        )
        if problem is not None:
            i, what = problem
            raise ValidationError(
                f"device {self.device_id[i]} on {date.fromordinal(int(self.day[i]))}: "
                f"{what}"
            )

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


def _group_index(rows: TelemetryColumns, group_fields: tuple[str, ...]):
    """Sorted composite labels such as "CHN|Notebook|i7", and each row's
    index among them."""
    key = np.zeros(len(rows), dtype=np.int64)
    field_levels = []
    for f in group_fields:
        if f == "vpro":
            levels, codes = ("novpro", "vpro"), rows.vpro.astype(np.int64)
        else:
            levels, codes = factorize(getattr(rows, f))
        key = key * len(levels) + codes
        field_levels.append(levels)
    combos, combo_of_row = np.unique(key, return_inverse=True)
    combo_labels = []
    for k in combos.tolist():
        parts = []
        for levels in reversed(field_levels):
            k, digit = divmod(k, len(levels))
            parts.append(levels[digit])
        combo_labels.append("|".join(reversed(parts)))
    labels, label_of_combo = factorize(combo_labels)
    return labels, label_of_combo[combo_of_row]


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
    group_fields = tuple(f for f in GROUP_FIELD_ORDER if f in set(group_by))
    unknown = set(group_by) - set(GROUP_FIELD_ORDER)
    if unknown:
        raise SchemaError(f"cannot group by {sorted(unknown)}")
    if outcome not in ("usage_hours", "cpu_watts"):
        raise SchemaError(f"no outcome field {outcome!r} in telemetry records")

    unit_ids, group = _group_index(rows, group_fields)
    device_ids, device = factorize(rows.device_id)
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
