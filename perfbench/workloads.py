"""Workload definitions: seeded inputs, the CLI command sequence, and the
output checks that compare every result with the simulator's ground truth.

Each workload runs all seven CLI commands (simulate, ingest, did,
synth --placebo, cpd, persona, report), so every end-to-end metric exists
on every workload; what differs is which command carries the work.
Sizes are fixed per workload. The seed changes only the random draws
(noise, persona sampling, change-point positions), never a size, so run
time does not depend on the seed.
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass
from datetime import date, timedelta

COMMANDS = ("simulate", "ingest", "did", "synth", "cpd", "persona", "report")

START = date(2020, 1, 1)

# Persona windows are 28 days wide with a 14-day stride from the first
# day, so a shift on a multiple of 14 days opens the first fully
# post-shift window exactly.
WINDOW_STRIDE_DAYS = 14
WINDOW_WIDTH_DAYS = 28
SHIFT_FROM = "Office/Productivity"
SHIFT_TO = "Casual Gamers"

# Effects must fall within 0.1 h of the injected effect (5-7 % of it) and
# change points within 3 points of the injected shifts. Both held on
# seeds 100-129 of donor_pool and 100-124 of fleet
# for the package these checks were written against.
EFFECT_TOLERANCE_HOURS = 0.1
BREAKPOINT_TOLERANCE = 3


@dataclass(frozen=True)
class Workload:
    """One fixed-size scenario. ``series_*`` describe the harness-made
    intensity series passed to ``cpd --series``; without it ``cpd`` runs
    on the treated unit's panel row."""

    name: str
    units: tuple[dict, ...]
    n_days: int
    activation_day: int
    effect_hours: float
    noise_sigma: float
    treated: str
    controls: tuple[str, ...]
    donors: tuple[str, ...]
    persona_devices: int
    shift_day: int
    donor_mixture: dict | None = None
    series_len: int = 0
    series_shifts: int = 0

    @property
    def activation(self) -> date:
        return START + timedelta(days=self.activation_day)

    @property
    def shift_date(self) -> date:
        return START + timedelta(days=self.shift_day)


def _unit(unit_id: str, baseline: float, devices: int = 1, **shape) -> dict:
    return {
        "unit_id": unit_id,
        "baseline_hours": baseline,
        "devices_per_day": devices,
        "continent": "Europe",
        **shape,
    }


def fleet(smoke: bool = False) -> Workload:
    """Many devices per unit and a large persona stream: row parsing,
    aggregation, generation and windowing carry the time. Treated U00 is
    the even blend of U01 and U02 with no trends, so DiD trends are
    parallel and the two-donor synth recovers the effect."""
    devices = 2 if smoke else 12
    baselines = (6.0, 5.0, 7.0, 4.5, 5.5, 6.5, 7.5, 5.8)
    return Workload(
        name="fleet",
        units=tuple(
            _unit(f"U{i:02d}", b, devices) for i, b in enumerate(baselines)
        ),
        n_days=365,
        activation_day=140,
        effect_hours=1.5,
        noise_sigma=0.5,
        treated="U00",
        controls=tuple(f"U{i:02d}" for i in range(1, len(baselines))),
        donors=("U01", "U02"),
        persona_devices=30 if smoke else 180,
        shift_day=182,
    )


_PERIODS = (7.0, 9.0, 11.0, 13.0, 17.0, 19.0)


def donor_pool(smoke: bool = False) -> Workload:
    """One treated unit built as a known mixture of three donors out of a
    large pool: synth weight fits, placebo refits and the change-point DP
    carry the time. Donors differ in level and in a short seasonal cycle
    with no trend, so DiD against the whole pool stays unbiased up to
    seasonal residue far below the tolerance."""
    n_donors = 5 if smoke else 15
    donors = tuple(f"D{i:02d}" for i in range(n_donors))
    units = [_unit("T00", 6.0)]
    for i, d in enumerate(donors):
        units.append(
            _unit(
                d,
                3.0 + 6.0 * i / (n_donors - 1),
                seasonal_amplitude=0.2 + 0.1 * (i % 4),
                seasonal_period=_PERIODS[i % len(_PERIODS)],
                seasonal_phase=0.7 * i,
            )
        )
    mixture = {donors[1]: 0.5, donors[2]: 0.3, donors[-2]: 0.2}
    return Workload(
        name="donor_pool",
        units=tuple(units),
        n_days=365,
        activation_day=200,
        effect_hours=2.0,
        noise_sigma=0.1,
        treated="T00",
        controls=donors,
        donors=donors,
        persona_devices=30,
        shift_day=182,
        donor_mixture={"T00": mixture},
        series_len=600 if smoke else 3000,
        series_shifts=5,
    )


WORKLOADS = {w.__name__: w for w in (fleet, donor_pool)}


def get(name: str, smoke: bool = False) -> Workload:
    return WORKLOADS[name](smoke)


# ---------------------------------------------------------------- inputs


def scenario_payload(w: Workload, seed: int) -> dict:
    payload = {
        "units": list(w.units),
        "start": START.isoformat(),
        "n_days": w.n_days,
        "treatment": {
            "treated_unit": w.treated,
            "activation": w.activation.isoformat(),
            "effect_hours": w.effect_hours,
        },
        "noise_sigma": w.noise_sigma,
        "persona_devices": w.persona_devices,
        "persona_noise": 0.2,
        "persona_shift": {
            "shift_date": w.shift_date.isoformat(),
            "from_persona": SHIFT_FROM,
            "to_persona": SHIFT_TO,
            "fraction": 0.2,
        },
        "seed": seed,
    }
    if w.donor_mixture:
        payload["donor_mixture"] = w.donor_mixture
    return payload


def series_shifts(w: Workload, seed: int) -> list[int]:
    """Seeded positions of the injected mean shifts, at least a tenth of
    the series apart and away from both ends."""
    rng = random.Random(seed)
    gap = w.series_len // 10
    while True:
        points = sorted(rng.sample(range(gap, w.series_len - gap), w.series_shifts))
        if all(b - a >= gap for a, b in zip(points, points[1:])):
            return points


# Steps of at least 4 sigma keep a misplacement beyond the 3-point
# tolerance below about one shift in ten thousand; at 2 sigma it was
# about one in a hundred.
SERIES_MIN_STEP, SERIES_MAX_STEP = 4.0, 6.0


def series_values(w: Workload, seed: int) -> list[float]:
    """Unit-variance Gaussian noise around a level that steps by 4 to 6
    standard deviations, alternately up and down, at each shift."""
    rng = random.Random(seed + 1)
    level, values, shifts = 10.0, [], set(series_shifts(w, seed))
    sign = 1.0
    for i in range(w.series_len):
        if i in shifts:
            level += sign * rng.uniform(SERIES_MIN_STEP, SERIES_MAX_STEP)
            sign = -sign
        values.append(level + rng.gauss(0.0, 1.0))
    return values


def write_inputs(w: Workload, seed: int, inputs_dir: str) -> dict[str, str]:
    """Write the scenario JSON (and the change-point series) and return
    their paths."""
    os.makedirs(inputs_dir, exist_ok=True)
    paths = {"scenario": os.path.join(inputs_dir, "scenario.json")}
    with open(paths["scenario"], "w", encoding="utf-8") as fh:
        json.dump(scenario_payload(w, seed), fh, indent=2)
        fh.write("\n")
    if w.series_len:
        paths["series"] = os.path.join(inputs_dir, "series.csv")
        with open(paths["series"], "w", encoding="utf-8") as fh:
            fh.write("value\n")
            fh.writelines(f"{v!r}\n" for v in series_values(w, seed))
    return paths


def command_argvs(w: Workload, inputs: dict[str, str], data: str, work: str) -> list[tuple[str, list[str]]]:
    """The CLI arguments of each command, in the order they run."""
    act = w.activation.isoformat()
    cpd = (
        ["--series", inputs["series"]]
        if "series" in inputs
        else ["--panel", f"{work}/panel.txt", "--unit", w.treated]
    )
    argvs = {
        "simulate": ["simulate", "--scenario", inputs["scenario"], "--out", data],
        "ingest": [
            "ingest", "--policy", f"{data}/policy.csv",
            "--telemetry", f"{data}/telemetry.csv",
            "--units", f"{data}/units.csv", "--out", work,
        ],
        "did": [
            "did", "--panel", f"{work}/panel.txt", "--treated", w.treated,
            "--control", ",".join(w.controls), "--treatment-date", act,
            "--out", work,
        ],
        "synth": [
            "synth", "--panel", f"{work}/panel.txt", "--treated", w.treated,
            "--donors", ",".join(w.donors), "--treatment-date", act,
            "--placebo", "--out", work,
        ],
        "cpd": ["cpd", *cpd, "--out", work],
        "persona": [
            "persona", "--records", f"{data}/persona.csv",
            "--fit-until", w.shift_date.isoformat(), "--out", work,
        ],
        "report": ["report", f"{work}/did.json", f"{work}/synth.json", "--out", work],
    }
    return [(name, argvs[name]) for name in COMMANDS]


# ---------------------------------------------------------------- checks


class CheckFailed(Exception):
    """A command's output disagrees with the ground truth."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_truth(data: str) -> dict:
    """truth.txt as a key -> value map."""
    with open(os.path.join(data, "truth.txt"), encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def smallest_cpd_step(w: Workload) -> float:
    return SERIES_MIN_STEP if w.series_len else w.effect_hours


def expected_cpd_breakpoints(w: Workload, seed: int) -> list[int]:
    if w.series_len:
        return series_shifts(w, seed)
    return [w.activation_day]


def first_post_shift_window(w: Workload) -> date:
    return START + timedelta(
        days=-(-w.shift_day // WINDOW_STRIDE_DAYS) * WINDOW_STRIDE_DAYS
    )


def check_simulate(w: Workload, seed: int, data: str, work: str) -> None:
    truth = read_truth(data)
    manifest = _load(os.path.join(data, "manifest.json"))
    _require(
        float(truth["effect_hours"]) == w.effect_hours
        and manifest["true_effect_hours"] == w.effect_hours,
        f"truth effect {truth.get('effect_hours')} != injected {w.effect_hours}",
    )
    _require(
        truth["scenario_hash"] == manifest["scenario_hash"],
        "truth.txt and manifest.json disagree on the scenario hash",
    )
    expected = sorted({w.activation.isoformat(), w.shift_date.isoformat()})
    _require(
        manifest["true_breakpoints"] == expected,
        f"manifest breakpoints {manifest['true_breakpoints']} != {expected}",
    )
    for name in ("policy.csv", "telemetry.csv", "units.csv", "persona.csv"):
        _require(os.path.getsize(os.path.join(data, name)) > 0, f"{name} is empty")


def check_ingest(w: Workload, seed: int, data: str, work: str) -> None:
    with open(os.path.join(work, "panel.txt"), encoding="utf-8") as fh:
        _require(fh.readline().startswith("#causalpanel-panel"), "panel.txt header")
        text = fh.read()
    for unit in (w.treated, *w.controls):
        _require(f"\n{unit}\t" in text, f"panel.txt lacks unit {unit}")


def check_effect(label: str, effect, truth: float) -> None:
    _require(
        effect is not None and abs(effect - truth) <= EFFECT_TOLERANCE_HOURS,
        f"{label}: effect {effect} not within {EFFECT_TOLERANCE_HOURS} of {truth}",
    )


def check_breakpoints(found: list[int], means: list[float], expected: list[int],
                      min_step: float) -> None:
    """Every injected shift has a breakpoint within the tolerance. A further
    breakpoint passes only if the level moves across it by less than half
    the smallest injected step: at n = 120 the robust noise estimate alone
    lets BIC split a flat stretch in about one seed in sixty, and such a
    split misplaces no level."""
    unmatched = [e for e in expected if all(abs(f - e) > BREAKPOINT_TOLERANCE for f in found)]
    false_levels = [
        f for i, f in enumerate(found)
        if all(abs(f - e) > BREAKPOINT_TOLERANCE for e in expected)
        and abs(means[i + 1] - means[i]) >= min_step / 2
    ]
    _require(
        not unmatched and not false_levels,
        f"cpd breakpoints {found} (segment means {means}) do not match injected "
        f"{expected} within {BREAKPOINT_TOLERANCE}",
    )


def check_persona_shift(w: Workload, peak: tuple[str, str], cp_windows: list[str]) -> None:
    """The largest z-score is the shift target's gain into the first fully
    post-shift window, and that persona's first change point is there."""
    target = first_post_shift_window(w).isoformat()
    _require(
        peak == (target, SHIFT_TO),
        f"z-score peak at {peak}, expected {(target, SHIFT_TO)}",
    )
    _require(
        bool(cp_windows) and cp_windows[0] == target,
        f"{SHIFT_TO} change point windows {cp_windows}, expected {target} first",
    )


def _truth_effect(data: str) -> float:
    return float(read_truth(data)["effect_hours"])


def check_did(w: Workload, seed: int, data: str, work: str) -> None:
    check_effect("did", _load(os.path.join(work, "did.json"))["effect"], _truth_effect(data))


def check_synth(w: Workload, seed: int, data: str, work: str) -> None:
    payload = _load(os.path.join(work, "synth.json"))
    check_effect("synth", payload["effect"], _truth_effect(data))
    _require(payload["p_value"] is not None, "synth ran without placebo inference")


def check_cpd(w: Workload, seed: int, data: str, work: str) -> None:
    cpd = _load(os.path.join(work, "cpd.json"))
    check_breakpoints(
        cpd["breakpoints"], cpd["segment_means"], expected_cpd_breakpoints(w, seed),
        smallest_cpd_step(w),
    )


def check_persona(w: Workload, seed: int, data: str, work: str) -> None:
    with open(os.path.join(work, "persona_zscores.csv"), encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    _, window, persona = max(
        (float(v), row[0], header[j]) for row in body for j, v in enumerate(row) if j
    )
    cps = _load(os.path.join(work, "persona_changepoints.json"))
    check_persona_shift(
        w, (window, persona), cps.get(SHIFT_TO, {}).get("breakpoint_windows", [])
    )


def check_report(w: Workload, seed: int, data: str, work: str) -> None:
    rows = _load(os.path.join(work, "report.json"))["rows"]
    effects = {
        name: _load(os.path.join(work, f"{name}.json"))["effect"]
        for name in ("did", "synth")
    }
    _require(
        {r["estimator"]: r["effect"] for r in rows} == effects and len(rows) == 2,
        f"report rows {rows} do not match did/synth effects {effects}",
    )


CHECKS = {
    "simulate": check_simulate,
    "ingest": check_ingest,
    "did": check_did,
    "synth": check_synth,
    "cpd": check_cpd,
    "persona": check_persona,
    "report": check_report,
}
