"""Per-record reference implementations, kept as test oracles.

These are the row-by-row versions of computations the package now does
on column arrays: the windowed persona counts, the CLI's per-device fit
means, and the telemetry aggregation. They are kept verbatim (apart from
imports and names) so tests can require the column code to agree with
them bitwise. They take lists of ``UsageFeatureVector`` and
``TelemetryRecord``.

Also kept: the penalized change-point selection over k <= k_max by the
segment-neighbourhood table, which the exact optimal partitioning of
``detect_penalized`` replaced.
"""

from datetime import date, timedelta
from typing import Iterable

import numpy as np

from causalpanel.changepoint import (
    PenaltyConfig,
    SeriesCosts,
    Segmentation,
    _build_segmentation,
    _reconstruct,
    _suffix_costs,
    effective_penalty,
)
from causalpanel.paneldata import (
    GROUP_FIELD_ORDER,
    SYSTEM_COUNT,
    VPRO_PERCENTAGE,
    PanelDataset,
    TelemetryRecord,
)
from causalpanel.errors import SchemaError, ValidationError
from causalpanel.persona import (
    WINDOW_STRIDE,
    WINDOW_WIDTH,
    PersonaCountSeries,
    PersonaModel,
    UsageFeatureVector,
    _squared_distances,
)


def _as_days(value) -> timedelta:
    if isinstance(value, timedelta):
        return value
    return timedelta(days=int(value))


def windowed_counts(
    records: Iterable[UsageFeatureVector],
    model: PersonaModel,
    width: timedelta | int = WINDOW_WIDTH,
    stride: timedelta | int = WINDOW_STRIDE,
) -> PersonaCountSeries:
    """Count devices per persona over sliding windows.

    ``records`` are daily feature rows (``window_start`` is the record
    day). Per window, each device's rows inside the window are averaged
    to one vector, zero-usage devices are dropped, and the rest are
    assigned to their nearest frozen centroid. Diffs are consecutive
    count differences; z-scores standardize each persona's diff column
    by its population std (zero-std columns give all-zero z-scores).
    """
    width = _as_days(width)
    stride = _as_days(stride)
    if width <= timedelta(0) or stride <= timedelta(0):
        raise ValueError("width and stride must be positive durations")
    records = sorted(
        records, key=lambda r: (r.window_start, r.device_id)
    )
    if not records:
        raise ValueError("no usage records")
    first = records[0].window_start
    last = records[-1].window_start
    if first + width > last + timedelta(days=1):
        raise ValueError(
            f"records span {first}..{last}, less than one {width.days}-day window"
        )

    starts: list[date] = []
    cursor = first
    while cursor + width <= last + timedelta(days=1):
        starts.append(cursor)
        cursor += stride

    k = model.k
    counts = np.zeros((len(starts), k), dtype=np.int64)
    for w, start in enumerate(starts):
        end = start + width
        per_device: dict[str, list[np.ndarray]] = {}
        for r in records:
            if start <= r.window_start < end:
                per_device.setdefault(r.device_id, []).append(
                    r.as_array(model.feature_names)
                )
        for device in sorted(per_device):
            mean_vec = np.mean(per_device[device], axis=0)
            if not mean_vec.any():
                continue
            idx = int(
                np.argmin(_squared_distances(mean_vec[None, :], model.centroids)[0])
            )
            counts[w, idx] += 1

    diffs = counts[1:] - counts[:-1]
    z = np.zeros_like(diffs, dtype=float)
    if diffs.shape[0] > 0:
        means = diffs.mean(axis=0)
        stds = diffs.std(axis=0)
        nonzero = stds > 0
        z[:, nonzero] = (diffs[:, nonzero] - means[nonzero]) / stds[nonzero]
    return PersonaCountSeries(
        window_starts=tuple(starts),
        counts=counts,
        diffs=diffs,
        zscores=z,
        persona_names=model.persona_names,
    )


def window_means(records, feature_names, width, stride):
    """Per window, each device's mean row as ``windowed_counts`` above
    computes it: {(window index, device id): mean array}."""
    records = sorted(records, key=lambda r: (r.window_start, r.device_id))
    first, last = records[0].window_start, records[-1].window_start
    out = {}
    w, start = 0, first
    while start + width <= last + timedelta(days=1):
        per_device: dict[str, list[np.ndarray]] = {}
        for r in records:
            if start <= r.window_start < start + width:
                per_device.setdefault(r.device_id, []).append(
                    r.as_array(feature_names)
                )
        for device in sorted(per_device):
            out[(w, device)] = np.mean(per_device[device], axis=0)
        w, start = w + 1, start + stride
    return out


def device_means(fit_records) -> list[UsageFeatureVector]:
    """The CLI's per-device mean loop (``cmd_persona``) before columns."""
    by_device: dict[str, list] = {}
    for r in fit_records:
        by_device.setdefault(r.device_id, []).append(r)
    vectors = []
    for device in sorted(by_device):
        rows = by_device[device]
        names = sorted(rows[0].features)
        mean = {
            n: float(np.mean([r.features[n] for r in rows])) for n in names
        }
        vectors.append(UsageFeatureVector(device, rows[0].window_start, mean))
    return vectors


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


def detect_penalized_capped(
    series, penalty: PenaltyConfig = PenaltyConfig(), k_max: int = 20
) -> Segmentation:
    """Pick the segment count minimizing cost + penalty * k over k <= k_max.

    Ties go to the smaller k, so a zero penalty on a constant series still
    returns a single segment.
    """
    costs = SeriesCosts(series)
    if costs.n < 2:
        raise ValueError("need at least 2 points to segment")
    k_cap = min(costs.n, k_max)
    lam = effective_penalty(series, penalty)
    suffix = _suffix_costs(costs, k_cap)
    totals = suffix[1:, 0]
    penalized = totals + lam * np.arange(1, k_cap + 1)
    best_k = 1 + int(np.argmin(penalized))  # argmin takes the first, smallest k
    if best_k == 1:
        return _build_segmentation(costs, ())
    return _build_segmentation(costs, _reconstruct(costs, suffix, best_k))
