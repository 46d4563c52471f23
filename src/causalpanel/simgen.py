"""Synthetic scenario generator with a ground-truth manifest.

Every estimator in the toolkit can be run against data from this module
and checked against the injected truth: policy timelines encode a code-3
window, outcome panels carry a known treatment effect and (optionally) an
exact donor mixture, and the persona stream moves a known device fraction
between personas at a known date.

Randomness: numpy's PCG64, seeded through a ``SeedSequence`` on the
scenario seed. Each unit draws from its own spawned child stream (in
config order), and the persona stream from one further child, so output
is reproducible cell-for-cell across platforms and unaffected by how
many other units exist downstream of a given one.

Per-unit draw order is fixed and documented on the generating functions;
the unit-level panel route and the device-level telemetry route consume
their streams independently and coincide exactly when ``noise_sigma`` is
zero (and bitwise when ``devices_per_day`` is 1).

Telemetry and the persona stream are generated as pieces of columns
(:class:`~causalpanel.paneldata.TelemetryColumns`,
:class:`~causalpanel.persona.UsageColumns`): telemetry one unit at a
time, the persona stream a few devices at a time, with rows device by
device and each device's days in order. :func:`write_scenario` writes
each piece as it is made, so no table is held whole, and
:func:`generate` joins the same pieces. The draws and the arithmetic are
those of generating one row at a time (a persona piece is
``np.maximum(base + noise, 0)`` after the shifted-device choice, with
the noise added and the clip taken in place), so every value, and every
file written from them, is bitwise equal to a row-by-row build.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from datetime import date, timedelta
from typing import Iterator, Mapping

import numpy as np

from .errors import ValidationError
from .files import Commit, committed
from .panel import check_cell
from .paneldata import (
    CHASSIS_TYPES,
    CPU_FAMILIES,
    DEFAULT_INDICATOR,
    PanelDataset,
    PolicyTimeline,
    TelemetryColumns,
    _unit_label,
    factorize,
)
from .csvwrite import (
    write_persona_csv,
    write_policy_csv,
    write_telemetry_csv,
    write_units_csv,
)
from .persona import (
    DEFAULT_FEATURE_CATEGORIES,
    DEFAULT_PERSONA_NAMES,
    PersonaModel,
    UsageColumns,
)

# Persona archetypes: hours per category per day. Every persona spends a
# small background amount in each category and most of its time in the
# one it is named after. Shifted devices adopt a damped version of the
# target archetype: a window that straddles the shift date then averages
# to a point still nearer the source centroid, so the full shifted cohort
# changes persona exactly at the first window past the shift.
ARCHETYPE_BASE_HOURS = 0.5
ARCHETYPE_DOMINANT_HOURS = 4.0
SHIFTED_DOMINANT_HOURS = 3.0

# Persona rows made per piece: bounds the values and noise held at once.
_PERSONA_ROWS = 4096


def archetype_model() -> PersonaModel:
    """The reference persona model the generator draws behavior from."""
    k = len(DEFAULT_PERSONA_NAMES)
    centroids = np.full((k, k), ARCHETYPE_BASE_HOURS)
    centroids[np.arange(k), np.arange(k)] = ARCHETYPE_DOMINANT_HOURS
    return PersonaModel(
        centroids=centroids,
        persona_names=DEFAULT_PERSONA_NAMES,
        feature_names=DEFAULT_FEATURE_CATEGORIES,
    )


@dataclass(frozen=True)
class UnitConfig:
    """One panel unit (country or region) and its deterministic outcome
    shape: baseline + trend_per_day * t + seasonal sine."""

    unit_id: str
    baseline_hours: float = 6.0
    baseline_watts: float = 30.0
    trend_per_day: float = 0.0
    continent: str = "Europe"
    vpro_fraction: float = 0.0
    devices_per_day: int = 1
    chassis: str = "Notebook"
    cpu_family: str = "i5"
    seasonal_amplitude: float = 0.0
    seasonal_period: float = 7.0
    seasonal_phase: float = 0.0

    def __post_init__(self):
        if not self.unit_id:
            raise ValidationError("unit_id must be non-empty")
        # a policy table holds the id as a country and a region cell
        read_back = _unit_label(self.unit_id.partition("/")[::2])
        if read_back != self.unit_id:
            raise ValidationError(
                f"unit_id {self.unit_id!r} reads back from a policy table as {read_back!r}"
            )
        # csv.writer leaves a lone \r unquoted, csv.reader refuses NUL before
        # 3.11, and panel.txt holds no tab or line break
        for key, text in (("unit_id", self.unit_id), ("continent", self.continent)):
            if not text.isprintable():
                raise ValidationError(f"{key} {text!r} holds an unprintable character")
        check_cell("unit id", self.unit_id)  # not read back as a section header
        if self.continent.strip() != self.continent:
            raise ValidationError(
                f"continent {self.continent!r} reads back from a units table as "
                f"{self.continent.strip()!r}"
            )
        if not 0.0 <= self.baseline_hours <= 24.0:
            raise ValidationError(
                f"unit {self.unit_id}: baseline_hours {self.baseline_hours} "
                "outside [0, 24]"
            )
        if self.baseline_watts < 0.0:
            raise ValidationError(f"unit {self.unit_id}: negative baseline_watts")
        if not 0.0 <= self.vpro_fraction <= 1.0:
            raise ValidationError(f"unit {self.unit_id}: vpro_fraction outside [0, 1]")
        if self.devices_per_day < 1:
            raise ValidationError(f"unit {self.unit_id}: devices_per_day < 1")
        if self.chassis not in CHASSIS_TYPES:
            raise ValidationError(f"unit {self.unit_id}: unknown chassis {self.chassis!r}")
        if self.cpu_family not in CPU_FAMILIES:
            raise ValidationError(
                f"unit {self.unit_id}: unknown cpu_family {self.cpu_family!r}"
            )
        if self.seasonal_period <= 0.0 or self.seasonal_amplitude < 0.0:
            raise ValidationError(
                f"unit {self.unit_id}: seasonal_period must be > 0 and "
                "seasonal_amplitude >= 0"
            )


@dataclass(frozen=True)
class TreatmentConfig:
    """Policy window and injected effect. The effect steps in at the
    activation date, ramping linearly over ``effect_onset_days`` (0 means
    instant), and persists to the end of the period; the deactivation
    date only shapes the policy file (code 3 drops to 2 there)."""

    treated_unit: str
    activation: date
    deactivation: date | None = None
    effect_hours: float = 0.0
    effect_watts: float = 0.0
    effect_onset_days: int = 0

    def __post_init__(self):
        if self.deactivation is not None and self.deactivation <= self.activation:
            raise ValidationError(
                f"deactivation {self.deactivation} not after activation "
                f"{self.activation}"
            )
        if self.effect_onset_days < 0:
            raise ValidationError("effect_onset_days must be >= 0")
        for label, value in (
            ("effect_hours", self.effect_hours),
            ("effect_watts", self.effect_watts),
        ):
            if not np.isfinite(value):
                raise ValidationError(f"{label} must be finite")


@dataclass(frozen=True)
class PersonaShiftConfig:
    """Move ``fraction`` of ``from_persona`` devices to ``to_persona``
    behavior from ``shift_date`` on."""

    shift_date: date
    from_persona: str
    to_persona: str
    fraction: float

    def __post_init__(self):
        for label, name in (("from", self.from_persona), ("to", self.to_persona)):
            if name not in DEFAULT_PERSONA_NAMES:
                raise ValidationError(f"unknown {label}_persona {name!r}")
        if self.from_persona == self.to_persona:
            raise ValidationError("from_persona and to_persona must differ")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValidationError(f"shift fraction {self.fraction} outside [0, 1]")


@dataclass(frozen=True)
class ScenarioConfig:
    units: tuple[UnitConfig, ...]
    start: date = date(2020, 1, 1)
    n_days: int = 120
    treatment: TreatmentConfig | None = None
    donor_mixture: Mapping[str, Mapping[str, float]] | None = None
    noise_sigma: float = 0.0
    outlier_probability: float = 0.0
    outlier_magnitude: float = 0.0
    persona_devices: int = 0
    persona_noise: float = 0.25
    persona_shift: PersonaShiftConfig | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "units", tuple(self.units))
        if not self.units:
            raise ValidationError("scenario needs at least one unit")
        ids = [u.unit_id for u in self.units]
        if len(set(ids)) != len(ids):
            raise ValidationError("unit ids not unique")
        if self.n_days < 1:
            raise ValidationError("n_days must be >= 1")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ValidationError("noise_sigma must be finite and >= 0")
        if not 0.0 <= self.outlier_probability <= 1.0:
            raise ValidationError("outlier_probability outside [0, 1]")
        if not np.isfinite(self.outlier_magnitude):
            raise ValidationError("outlier_magnitude must be finite")
        if self.persona_devices < 0:
            raise ValidationError("persona_devices must be >= 0")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if not (np.isfinite(self.persona_noise) and self.persona_noise >= 0.0):
            raise ValidationError("persona_noise must be finite and >= 0")

        end = self.start + timedelta(days=self.n_days)
        if self.treatment is not None:
            if self.treatment.treated_unit not in ids:
                raise ValidationError(
                    f"treated unit {self.treatment.treated_unit!r} not in units"
                )
            if not self.start <= self.treatment.activation < end:
                raise ValidationError(
                    f"activation {self.treatment.activation} outside "
                    f"{self.start}..{end - timedelta(days=1)}"
                )
        if self.persona_shift is not None:
            if not self.start <= self.persona_shift.shift_date < end:
                raise ValidationError(
                    f"persona shift date {self.persona_shift.shift_date} "
                    "outside the scenario period"
                )
        if self.donor_mixture is not None:
            mixture = {
                unit: dict(weights) for unit, weights in dict(self.donor_mixture).items()
            }
            object.__setattr__(self, "donor_mixture", mixture)
            for unit, weights in mixture.items():
                if unit not in ids:
                    raise ValidationError(f"mixture unit {unit!r} not in units")
                if not weights:
                    raise ValidationError(f"mixture for {unit!r} is empty")
                for donor, w in weights.items():
                    if donor not in ids:
                        raise ValidationError(f"mixture donor {donor!r} not in units")
                    if donor == unit:
                        raise ValidationError(f"unit {unit!r} cannot mix itself")
                    if not (np.isfinite(w) and w >= 0.0):
                        raise ValidationError(
                            f"mixture weight {w} for {donor!r} must be >= 0"
                        )
                if abs(sum(weights.values()) - 1.0) > 1e-9:
                    raise ValidationError(
                        f"mixture weights for {unit!r} sum to "
                        f"{sum(weights.values())}, not 1"
                    )

    @property
    def dates(self) -> tuple[date, ...]:
        return tuple(self.start + timedelta(days=t) for t in range(self.n_days))


@dataclass(frozen=True)
class GroundTruthManifest:
    true_effect_hours: float
    true_effect_watts: float
    true_breakpoints: tuple[date, ...]
    true_weights: tuple[float, ...] | None
    scenario_hash: str


@dataclass(frozen=True)
class SimulatedData:
    timelines: tuple[PolicyTimeline, ...]
    telemetry: TelemetryColumns
    persona_records: UsageColumns
    manifest: GroundTruthManifest


def _json_default(value):
    if isinstance(value, date):
        return value.isoformat()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def scenario_hash(config: ScenarioConfig) -> str:
    """SHA-256 of the canonical JSON form of the config (sorted keys,
    ISO dates); the manifest is a pure function of this."""
    payload = json.dumps(
        asdict(config), sort_keys=True, separators=(",", ":"), default=_json_default
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_manifest(config: ScenarioConfig) -> GroundTruthManifest:
    effect_hours = effect_watts = 0.0
    breakpoints: set[date] = set()
    if config.treatment is not None:
        effect_hours = float(config.treatment.effect_hours)
        effect_watts = float(config.treatment.effect_watts)
        breakpoints.add(config.treatment.activation)
        if config.treatment.deactivation is not None:
            breakpoints.add(config.treatment.deactivation)
    if config.persona_shift is not None:
        breakpoints.add(config.persona_shift.shift_date)

    weights = None
    if config.donor_mixture is not None and len(config.donor_mixture) == 1:
        (mixture,) = config.donor_mixture.values()
        weights = tuple(float(mixture[d]) for d in sorted(mixture))
    return GroundTruthManifest(
        true_effect_hours=effect_hours,
        true_effect_watts=effect_watts,
        true_breakpoints=tuple(sorted(breakpoints)),
        true_weights=weights,
        scenario_hash=scenario_hash(config),
    )


def build_timelines(config: ScenarioConfig) -> list[PolicyTimeline]:
    """Code 0 everywhere, except the treated unit which runs code 3 from
    activation to deactivation (exclusive) and code 2 afterwards."""
    timelines = []
    for u in config.units:
        codes = np.zeros(config.n_days, dtype=np.int64)
        t = config.treatment
        if t is not None and u.unit_id == t.treated_unit:
            act = (t.activation - config.start).days
            deact = (
                (t.deactivation - config.start).days
                if t.deactivation is not None
                else config.n_days
            )
            codes[act:deact] = 3
            codes[deact:] = 2
        timelines.append(PolicyTimeline(u.unit_id, config.start, codes))
    return timelines


def _base_means(config: ScenarioConfig, outcome: str) -> np.ndarray:
    """Deterministic pre-mixture unit-day means, units in config order."""
    t = np.arange(config.n_days, dtype=float)
    rows = []
    for u in config.units:
        baseline = u.baseline_hours if outcome == "usage_hours" else u.baseline_watts
        rows.append(
            baseline
            + u.trend_per_day * t
            + u.seasonal_amplitude
            * np.sin(2.0 * np.pi * t / u.seasonal_period + u.seasonal_phase)
        )
    return np.vstack(rows)


def _effect_path(config: ScenarioConfig, magnitude: float) -> np.ndarray:
    """Per-day additive effect for the treated unit: zero before
    activation, then a linear ramp to the full magnitude."""
    path = np.zeros(config.n_days)
    t = config.treatment
    if t is None or magnitude == 0.0:
        return path
    act = (t.activation - config.start).days
    onset = max(t.effect_onset_days, 1)
    since = np.arange(config.n_days - act, dtype=float)
    path[act:] = magnitude * np.minimum(1.0, (since + 1.0) / onset)
    return path


def mean_matrix(config: ScenarioConfig, outcome: str = "usage_hours") -> np.ndarray:
    """Noise-free expected outcome per (unit, day): base shape, donor
    mixture substitution, then the treatment effect."""
    means = _base_means(config, outcome)
    index = {u.unit_id: i for i, u in enumerate(config.units)}
    if config.donor_mixture:
        base = means.copy()
        for unit, weights in config.donor_mixture.items():
            means[index[unit]] = sum(
                w * base[index[donor]] for donor, w in weights.items()
            )
    if config.treatment is not None:
        magnitude = (
            config.treatment.effect_hours
            if outcome == "usage_hours"
            else config.treatment.effect_watts
        )
        means[index[config.treatment.treated_unit]] += _effect_path(config, magnitude)
    return means


def _unit_streams(config: ScenarioConfig) -> tuple[list[np.random.Generator], np.random.Generator]:
    children = np.random.SeedSequence(config.seed).spawn(len(config.units) + 1)
    return (
        [np.random.default_rng(c) for c in children[:-1]],
        np.random.default_rng(children[-1]),
    )


def generate_panel(config: ScenarioConfig, outcome: str = "usage_hours") -> PanelDataset:
    """Unit-level panel: mean_matrix plus one N(0, noise_sigma) draw per
    cell, plus outlier spikes, with policy codes, each unit's continent,
    and its devices_per_day as ``system_count`` attached.

    Per-unit draw order: usage_hours normals, cpu_watts normals, outlier
    uniforms. Both outcome panels for the same config therefore see the
    same outlier days.
    """
    hours = mean_matrix(config, "usage_hours")
    watts = mean_matrix(config, "cpu_watts")
    unit_rngs, _ = _unit_streams(config)
    for i, rng in enumerate(unit_rngs):
        hours[i] += rng.normal(0.0, config.noise_sigma, config.n_days)
        watts[i] += rng.normal(0.0, config.noise_sigma, config.n_days)
        spikes = rng.uniform(size=config.n_days) < config.outlier_probability
        hours[i, spikes] += config.outlier_magnitude
        watts[i, spikes] += config.outlier_magnitude

    outcomes = hours if outcome == "usage_hours" else watts
    timelines = build_timelines(config)
    codes = np.array([tl.codes for tl in timelines], dtype=np.int64)
    return PanelDataset(
        unit_ids=tuple(u.unit_id for u in config.units),
        dates=config.dates,
        outcomes=outcomes,
        missing_mask=np.zeros_like(outcomes, dtype=bool),
        outcome_name=outcome,
        system_count=[float(u.devices_per_day) for u in config.units],
        continent=[u.continent for u in config.units],
        policy_codes=codes,
    )


def _generate_telemetry(config: ScenarioConfig, unit_rngs) -> Iterator[TelemetryColumns]:
    """Device-day rows, one unit at a time in config order: device by
    device within the unit, each device's days in order. Per-unit draw
    order: usage normals (devices x days), watts normals (devices x days),
    outlier uniforms (days). Usage is clipped to [0, 24] and watts to >= 0
    so every row passes schema validation."""
    hours = mean_matrix(config, "usage_hours")
    watts = mean_matrix(config, "cpu_watts")
    days = np.array([d.toordinal() for d in config.dates], dtype=np.int64)
    for i, u in enumerate(config.units):
        rng = unit_rngs[i]
        d = u.devices_per_day
        h_noise = rng.normal(0.0, config.noise_sigma, size=(d, config.n_days))
        w_noise = rng.normal(0.0, config.noise_sigma, size=(d, config.n_days))
        spikes = rng.uniform(size=config.n_days) < config.outlier_probability
        spike = np.where(spikes, config.outlier_magnitude, 0.0)
        n_vpro = int(np.floor(u.vpro_fraction * d + 0.5))
        devices, device = factorize(
            [(f"{u.unit_id}-{k:04d}", u.unit_id, u.chassis, u.cpu_family, k < n_vpro)
             for k in range(d)]
        )
        yield TelemetryColumns(
            day=np.tile(days, d),
            device=np.repeat(device, config.n_days),
            devices=devices,
            usage_hours=np.clip(hours[i] + h_noise + spike, 0.0, 24.0).ravel(),
            cpu_watts=np.maximum(watts[i] + w_noise + spike, 0.0).ravel(),
        )


def _generate_persona_stream(
    config: ScenarioConfig, rng: np.random.Generator
) -> Iterator[UsageColumns]:
    """Daily category-usage rows for ``persona_devices`` devices, a few
    devices at a time (about ``_PERSONA_ROWS`` rows): device by device,
    each device's days in order.

    Devices take home personas round-robin. If a shift is configured, a
    seeded sample of the source persona's devices switches to the damped
    target archetype from the shift date on. Draw order: shifted-device
    choice first, then the (devices x days x categories) normals in device
    order, drawn for each piece as it is made.
    """
    n = config.persona_devices
    model = archetype_model()
    k = model.k
    home = np.arange(n) % k
    shifted = np.zeros(n, dtype=bool)
    if config.persona_shift is not None:
        s = config.persona_shift
        from_idx = DEFAULT_PERSONA_NAMES.index(s.from_persona)
        to_idx = DEFAULT_PERSONA_NAMES.index(s.to_persona)
        pool = np.flatnonzero(home == from_idx)
        count = int(np.floor(s.fraction * len(pool) + 1e-9))
        shifted[rng.choice(pool, size=count, replace=False)] = True
        to_row = np.full(k, ARCHETYPE_BASE_HOURS)
        to_row[to_idx] = SHIFTED_DOMINANT_HOURS
        shift_day = (s.shift_date - config.start).days

    # Consecutive draws continue one stream, so drawing the noise a few
    # devices at a time gives the values of one (n, days, k) draw.
    days = np.array([d.toordinal() for d in config.dates], dtype=np.int64)
    step = max(1, _PERSONA_ROWS // config.n_days)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        rows = np.empty((hi - lo, config.n_days, k))
        rows[:] = model.centroids[home[lo:hi]][:, None, :]
        if shifted[lo:hi].any():
            rows[shifted[lo:hi], shift_day:] = to_row
        rows += rng.normal(0.0, config.persona_noise, size=rows.shape)
        np.maximum(rows, 0.0, out=rows)
        device_ids, device = factorize([f"p{dev:05d}" for dev in range(lo, hi)])
        yield UsageColumns(
            device_ids=device_ids,
            device=np.repeat(device, config.n_days),
            day=np.tile(days, hi - lo),
            values=rows.reshape(-1, k),
            feature_names=DEFAULT_FEATURE_CATEGORIES,
        )


def _joined_telemetry(pieces: list[TelemetryColumns]) -> TelemetryColumns:
    devices, code = factorize([key for p in pieces for key in p.devices])
    starts = np.cumsum([0, *(len(p.devices) for p in pieces)])
    return TelemetryColumns(
        day=np.concatenate([p.day for p in pieces]),
        device=np.concatenate([code[start + p.device] for start, p in zip(starts, pieces)]),
        devices=devices,
        usage_hours=np.concatenate([p.usage_hours for p in pieces]),
        cpu_watts=np.concatenate([p.cpu_watts for p in pieces]),
    )


def _joined_usage(pieces: list[UsageColumns]) -> UsageColumns:
    k = len(DEFAULT_FEATURE_CATEGORIES)
    return UsageColumns.from_rows(
        [p.device_ids[d] for p in pieces for d in p.device.tolist()],
        np.concatenate([np.empty(0, np.int64), *(p.day for p in pieces)]),
        np.concatenate([np.empty((0, k)), *(p.values for p in pieces)]),
        DEFAULT_FEATURE_CATEGORIES,
    )


def generate(config: ScenarioConfig) -> SimulatedData:
    """Produce policy timelines, device telemetry, the persona stream,
    and the ground-truth manifest for one scenario: the pieces
    :func:`write_scenario` writes, joined."""
    unit_rngs, persona_rng = _unit_streams(config)
    return SimulatedData(
        timelines=tuple(build_timelines(config)),
        telemetry=_joined_telemetry(list(_generate_telemetry(config, unit_rngs))),
        persona_records=_joined_usage(list(_generate_persona_stream(config, persona_rng))),
        manifest=build_manifest(config),
    )


def write_scenario(config: ScenarioConfig, outdir) -> dict[str, str]:
    """Emit the scenario as the files the ingestion layer consumes:
    policy.csv (codes in the ``DEFAULT_INDICATOR`` column), telemetry.csv,
    persona.csv (when devices exist), units.csv (unit descriptors), and
    manifest.json. Returns the paths.

    The files hold what :func:`generate` returns, but each table is
    written a piece at a time as its pieces are generated, so no table is
    held whole. They are one commit (:func:`~causalpanel.files.committed`),
    so a run that fails leaves the files of the previous run as they were;
    a persona.csv of a previous run is removed when this scenario has none.
    """
    with committed() as files:  # committed as the function returns
        return stage_scenario(files, config, outdir)[0]


def stage_scenario(
    files: Commit, config: ScenarioConfig, outdir
) -> tuple[dict[str, str], GroundTruthManifest]:
    """Write the files of :func:`write_scenario` on the commit ``files``,
    and name a persona.csv of a previous run stale when this scenario
    writes none. Returns their paths, by key, and the manifest."""
    unit_rngs, persona_rng = _unit_streams(config)
    tables = ("policy", "telemetry", "persona", "units")
    paths = {key: os.path.join(outdir, f"{key}.csv") for key in tables}
    paths["manifest"] = os.path.join(outdir, "manifest.json")

    write_policy_csv(build_timelines(config), files.open(paths["policy"]), DEFAULT_INDICATOR)
    write_telemetry_csv(_generate_telemetry(config, unit_rngs), files.open(paths["telemetry"]))
    if config.persona_devices:
        write_persona_csv(
            _generate_persona_stream(config, persona_rng), files.open(paths["persona"])
        )
    else:  # an earlier run's table would be stale
        files.remove(paths.pop("persona"))
    write_units_csv(
        [(u.unit_id, u.continent, u.devices_per_day, u.vpro_fraction) for u in config.units],
        files.open(paths["units"]),
    )

    manifest = build_manifest(config)
    fh = files.open(paths["manifest"])
    json.dump(asdict(manifest), fh, indent=2, sort_keys=True, default=_json_default)
    fh.write("\n")
    return paths, manifest


def describe(manifest: GroundTruthManifest) -> str:
    """Deterministic one-value-per-line summary of the ground truth."""
    lines = [
        f"scenario_hash={manifest.scenario_hash}",
        f"effect_hours={manifest.true_effect_hours!r}",
        f"effect_watts={manifest.true_effect_watts!r}",
    ]
    if manifest.true_breakpoints:
        lines.append(
            "breakpoints=" + ",".join(d.isoformat() for d in manifest.true_breakpoints)
        )
    else:
        lines.append("breakpoints=absent")
    if manifest.true_weights is not None:
        lines.append("weights=" + ",".join(repr(w) for w in manifest.true_weights))
    else:
        lines.append("weights=absent")
    return "\n".join(lines) + "\n"
