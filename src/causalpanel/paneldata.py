"""Panel data model: policy timelines, device telemetry, and aligned panels.

Everything here is immutable after construction and safe to share across
threads; the operations are pure functions of their inputs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from datetime import date, timedelta
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import SchemaError, ValidationError

POLICY_CODES = (0, 1, 2, 3)
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


@dataclass(frozen=True)
class TelemetryRecord:
    """One device-day usage report."""

    date: date
    device_id: str
    unit_id: str
    chassis: str
    cpu_family: str
    vpro: bool
    usage_hours: float
    cpu_watts: float

    def __post_init__(self):
        if self.chassis not in CHASSIS_TYPES:
            raise ValidationError(
                f"device {self.device_id}: unknown chassis {self.chassis!r}"
            )
        if self.cpu_family not in CPU_FAMILIES:
            raise ValidationError(
                f"device {self.device_id}: unknown cpu_family {self.cpu_family!r}"
            )
        if not 0.0 <= self.usage_hours <= 24.0:
            raise ValidationError(
                f"device {self.device_id} on {self.date}: usage_hours "
                f"{self.usage_hours} outside [0, 24]"
            )
        if not self.cpu_watts >= 0.0:
            raise ValidationError(
                f"device {self.device_id} on {self.date}: cpu_watts "
                f"{self.cpu_watts} negative"
            )


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


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
        if not np.isfinite(out[~mask]).all():
            raise ValidationError("panel has unmasked non-finite cells")
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


def _group_label(record: TelemetryRecord, fields: tuple[str, ...]) -> str:
    parts = []
    for f in fields:
        value = getattr(record, f)
        if f == "vpro":
            value = "vpro" if value else "novpro"
        parts.append(str(value))
    return "|".join(parts)


def aggregate_telemetry(
    records: Iterable[TelemetryRecord],
    group_by: Iterable[str] = ("unit_id",),
    outcome: str = "usage_hours",
    statistic: str = "mean",
) -> PanelDataset:
    """Aggregate device-day records to a (group x date) panel of outcome means.

    Groups are composite units keyed by the requested fields in canonical
    order. Cells with no records are masked. Two covariates are recorded per
    group: the mean daily device count over the days the group reports
    (``system_count``) and the share of its records with vPro enabled
    (``vpro_percentage``).

    Records are canonically sorted before accumulation so that the output is
    bit-identical under any input permutation.
    """
    records = list(records)
    if not records:
        raise ValidationError("no telemetry records to aggregate")
    group_fields = tuple(f for f in GROUP_FIELD_ORDER if f in set(group_by))
    unknown = set(group_by) - set(GROUP_FIELD_ORDER)
    if unknown:
        raise SchemaError(f"cannot group by {sorted(unknown)}")
    if outcome not in ("usage_hours", "cpu_watts"):
        raise SchemaError(f"no outcome field {outcome!r} in telemetry records")
    if statistic != "mean":
        raise SchemaError(f"unsupported statistic {statistic!r}")

    records.sort(
        key=lambda r: (
            _group_label(r, group_fields),
            r.date,
            r.device_id,
            r.usage_hours,
            r.cpu_watts,
        )
    )

    first = min(r.date for r in records)
    last = max(r.date for r in records)
    dates = tuple(first + timedelta(days=i) for i in range((last - first).days + 1))

    sums: dict[str, np.ndarray] = {}
    counts: dict[str, np.ndarray] = {}
    devices: dict[str, list[set[str]]] = {}
    vpro_hits: dict[str, int] = {}
    totals: dict[str, int] = {}
    for r in records:
        label = _group_label(r, group_fields)
        if label not in sums:
            sums[label] = np.zeros(len(dates))
            counts[label] = np.zeros(len(dates), dtype=np.int64)
            devices[label] = [set() for _ in dates]
            vpro_hits[label] = 0
            totals[label] = 0
        t = (r.date - first).days
        sums[label][t] += getattr(r, outcome)
        counts[label][t] += 1
        devices[label][t].add(r.device_id)
        vpro_hits[label] += int(r.vpro)
        totals[label] += 1

    unit_ids = tuple(sorted(sums))
    outcomes = np.zeros((len(unit_ids), len(dates)))
    mask = np.ones((len(unit_ids), len(dates)), dtype=bool)
    cov = np.zeros((len(unit_ids), 2))
    for i, label in enumerate(unit_ids):
        present = counts[label] > 0
        outcomes[i, present] = sums[label][present] / counts[label][present]
        mask[i] = ~present
        day_counts = [len(s) for s, p in zip(devices[label], present) if p]
        cov[i, 0] = float(np.mean(day_counts))
        cov[i, 1] = vpro_hits[label] / totals[label]

    return PanelDataset(
        unit_ids=unit_ids,
        dates=dates,
        outcomes=outcomes,
        missing_mask=mask,
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
