"""Panel data model: policy timelines, device telemetry, and aligned panels.

Everything here is immutable after construction and safe to share across
threads; the operations are pure functions of their inputs.

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
from dataclasses import dataclass, field, fields, replace
from datetime import date, timedelta
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import SchemaError, ValidationError

POLICY_CODES = (0, 1, 2, 3)
# The OxCGRT indicator a policy table is read by when none is named.
DEFAULT_INDICATOR = "C6_Stay at home requirements"
CHASSIS_TYPES = frozenset({"Notebook", "Desktop", "TwoInOne", "NUC"})
CPU_FAMILIES = frozenset({"i3", "i5", "i7", "i9", "Other"})

# Canonical ordering of telemetry grouping fields, used to build stable
# composite unit labels such as "CHN|Notebook|i7".
GROUP_FIELD_ORDER = ("unit_id", "chassis", "cpu_family", "vpro")

SYSTEM_COUNT = "system_count"
VPRO_PERCENTAGE = "vpro_percentage"


class EventKind(enum.Enum):
    ACTIVATION = "activation"
    DEACTIVATION = "deactivation"


def _check_contiguous(dates: Sequence[date], context: str) -> None:
    for prev, cur in zip(dates, dates[1:]):
        if cur <= prev:
            raise ValidationError(f"{context}: dates not strictly increasing at {cur}")
        if cur - prev != timedelta(days=1):
            raise ValidationError(
                f"{context}: calendar gap between {prev} and {cur}"
            )


@dataclass(frozen=True)
class PolicyTimeline:
    """Daily ordinal policy level for one unit (country or region)."""

    unit_id: str
    dates: tuple[date, ...]
    codes: tuple[int, ...]

    def __post_init__(self):
        if len(self.dates) != len(self.codes):
            raise ValidationError(
                f"timeline {self.unit_id}: {len(self.dates)} dates but "
                f"{len(self.codes)} codes"
            )
        _check_contiguous(self.dates, f"timeline {self.unit_id}")
        for d, c in zip(self.dates, self.codes):
            if c not in POLICY_CODES:
                raise ValidationError(
                    f"timeline {self.unit_id}: code {c} on {d} outside 0..3"
                )

    def code_on(self, day: date) -> int:
        idx = (day - self.dates[0]).days
        if idx < 0 or idx >= len(self.dates):
            raise ValidationError(
                f"timeline {self.unit_id}: {day} outside {self.dates[0]}..{self.dates[-1]}"
            )
        return self.codes[idx]


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


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


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

    def __eq__(self, other):
        if not isinstance(other, TelemetryColumns):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(
            a == b if isinstance(a, tuple) else a.tobytes() == b.tobytes()
            for a, b in pairs
        )

    __hash__ = None


@dataclass(frozen=True)
class PanelDataset:
    """Aligned (unit x date) outcome panel with per-unit covariates.

    ``missing_mask`` is True where a cell has no observation; masked cells
    are never interpolated and every estimator must honour the mask.
    ``unit_tags`` holds categorical per-unit labels (e.g. continent) that
    regression designs may expand to dummies. ``policy_codes`` is attached
    by :func:`merge_panels` and is -1 where no code is known.
    """

    unit_ids: tuple[str, ...]
    dates: tuple[date, ...]
    outcomes: np.ndarray
    missing_mask: np.ndarray
    outcome_name: str = "usage_hours"
    covariates: np.ndarray | None = None
    covariate_names: tuple[str, ...] = ()
    unit_tags: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    policy_codes: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "unit_ids", tuple(self.unit_ids))
        object.__setattr__(self, "dates", tuple(self.dates))
        out = _frozen_array(self.outcomes, float)
        mask = _frozen_array(self.missing_mask, bool)
        object.__setattr__(self, "outcomes", out)
        object.__setattr__(self, "missing_mask", mask)
        shape = (len(self.unit_ids), len(self.dates))
        if out.shape != shape or mask.shape != shape:
            raise ValidationError(
                f"panel shape mismatch: outcomes {out.shape}, mask {mask.shape}, "
                f"expected {shape}"
            )
        if len(set(self.unit_ids)) != len(self.unit_ids):
            raise ValidationError("panel unit ids not unique")
        _check_contiguous(self.dates, "panel")
        bad = np.argwhere(~(np.isfinite(out) | mask))
        if bad.size:
            i, j = bad[0]
            where = f"unit {self.unit_ids[i]!r} on {self.dates[j]}"
            raise ValidationError(f"panel has an unmasked non-finite outcome for {where}")
        if self.covariates is not None:
            cov = _frozen_array(self.covariates, float)
            object.__setattr__(self, "covariates", cov)
            if cov.shape != (len(self.unit_ids), len(self.covariate_names)):
                raise ValidationError(
                    f"covariate matrix {cov.shape} does not match "
                    f"{len(self.unit_ids)} units x {len(self.covariate_names)} names"
                )
            bad = np.argwhere(~np.isfinite(cov))
            if bad.size:
                i, c = bad[0]
                raise ValidationError(
                    f"covariate {self.covariate_names[c]!r} is non-finite "
                    f"for unit {self.unit_ids[i]!r}"
                )
        elif self.covariate_names:
            raise ValidationError("covariate names given without a matrix")
        object.__setattr__(
            self,
            "unit_tags",
            {k: tuple(v) for k, v in dict(self.unit_tags).items()},
        )
        for name, levels in self.unit_tags.items():
            if len(levels) != len(self.unit_ids):
                raise ValidationError(
                    f"tag {name!r} has {len(levels)} entries for "
                    f"{len(self.unit_ids)} units"
                )
        if self.policy_codes is not None:
            codes = _frozen_array(self.policy_codes, np.int64)
            object.__setattr__(self, "policy_codes", codes)
            if codes.shape != shape:
                raise ValidationError("policy code matrix shape mismatch")

    @property
    def n_units(self) -> int:
        return len(self.unit_ids)

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    def unit_index(self, unit_id: str) -> int:
        try:
            return self.unit_ids.index(unit_id)
        except ValueError:
            raise ValidationError(f"unit {unit_id!r} not in panel") from None

    def date_index(self, day: date) -> int:
        idx = (day - self.dates[0]).days
        if idx < 0 or idx >= len(self.dates):
            raise ValidationError(
                f"date {day} outside panel range {self.dates[0]}..{self.dates[-1]}"
            )
        return idx

    def unit_series(self, unit_id: str) -> tuple[np.ndarray, np.ndarray]:
        """Return (values, missing_mask) rows for one unit."""
        i = self.unit_index(unit_id)
        return self.outcomes[i], self.missing_mask[i]

    def covariate(self, name: str) -> np.ndarray:
        if name not in self.covariate_names:
            raise SchemaError(f"covariate {name!r} not in panel")
        return self.covariates[:, self.covariate_names.index(name)]

    def timeline(self, unit_id: str) -> PolicyTimeline | None:
        """Reconstruct the attached policy series for one unit, if merged."""
        if self.policy_codes is None:
            return None
        i = self.unit_index(unit_id)
        codes = self.policy_codes[i]
        if (codes < 0).any():
            return None
        return PolicyTimeline(unit_id, self.dates, tuple(int(c) for c in codes))


def extract_treatment_events(timeline: PolicyTimeline) -> list[TreatmentEvent]:
    """Extract the activation (first day at code 3) and, after it, the first
    relaxation day at code 2. Either, both, or neither may exist."""
    events: list[TreatmentEvent] = []
    act_idx = None
    for i, code in enumerate(timeline.codes):
        if code >= 3:
            act_idx = i
            break
    if act_idx is None:
        return events
    events.append(
        TreatmentEvent(timeline.unit_id, EventKind.ACTIVATION, timeline.dates[act_idx])
    )
    for i in range(act_idx + 1, len(timeline.codes)):
        if timeline.codes[i] == 2:
            events.append(
                TreatmentEvent(
                    timeline.unit_id, EventKind.DEACTIVATION, timeline.dates[i]
                )
            )
            break
    return events


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
    order. Cells with no rows are masked. Two covariates are recorded per
    group: the mean daily device count over the days the group reports
    (``system_count``) and the share of its rows with vPro enabled
    (``vpro_percentage``).

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
    cov = np.column_stack(
        [
            day_counts.sum(axis=1) / present.sum(axis=1),
            np.bincount(group[rows.vpro], minlength=shape[0]) / np.bincount(group),
        ]
    )
    return PanelDataset(
        unit_ids=unit_ids,
        dates=dates,
        outcomes=outcomes,
        missing_mask=~present,
        outcome_name=outcome,
        covariates=cov,
        covariate_names=(SYSTEM_COUNT, VPRO_PERCENTAGE),
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

    missing = [u for u in outcome_panel.unit_ids if lookup(u) is None]
    if missing:
        raise ValidationError(
            "no policy timeline for unit(s): " + ", ".join(sorted(missing))
        )

    common = set(outcome_panel.dates)
    for u in outcome_panel.unit_ids:
        common &= set(lookup(u).dates)
    if not common:
        raise ValidationError("panel and policy timelines share no dates")
    dates = tuple(sorted(common))
    lo = outcome_panel.date_index(dates[0])
    hi = outcome_panel.date_index(dates[-1]) + 1

    codes = np.full((outcome_panel.n_units, len(dates)), -1, dtype=np.int64)
    for i, u in enumerate(outcome_panel.unit_ids):
        tl = lookup(u)
        for j, d in enumerate(dates):
            codes[i, j] = tl.code_on(d)

    return replace(
        outcome_panel,
        dates=dates,
        outcomes=outcome_panel.outcomes[:, lo:hi],
        missing_mask=outcome_panel.missing_mask[:, lo:hi],
        policy_codes=codes,
    )
