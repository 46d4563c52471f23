"""Command-line front end: ingestion, estimation, inference, reports.

Option precedence: command-line flag > --config file entry > environment
(``CAUSALPANEL_OUT`` for the output directory) > built-in default.
Boolean flags combine with the config file by OR.

Every command logs to stderr and writes its results only to files in the
output directory (plus a short deterministic summary on stdout). Result
files never embed input paths or timestamps, so re-running the same
command over unchanged inputs reproduces them byte for byte. Files are
written to a temporary name and atomically renamed, so a failed run
never leaves a half-written artifact.

Exit codes: 0 success, 2 parse errors, 3 validation errors, 4 numerical
errors, 5 I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import logging
import os
import sys
from datetime import date
from typing import Mapping, Sequence

import numpy as np

from .changepoint import (
    PenaltyConfig,
    Segmentation,
    detect_penalized,
    effective_penalty,
)
from .did import DidSpec, fit_did, parallel_trends_diagnostic
from .errors import (
    CausalPanelError,
    DiagnosticUnavailableError,
    NumericalError,
    ParseError,
    SchemaError,
    ValidationError,
)
from .paneldata import (
    CHASSIS_TYPES,
    CPU_FAMILIES,
    SYSTEM_COUNT,
    PanelDataset,
    aggregate_telemetry,
    merge_panels,
)
from .panelio import (
    parse_persona_csv,
    parse_policy_csv,
    parse_telemetry_csv,
    read_panel,
    write_panel,
)
from .persona import (
    CATEGORY_TO_PERSONA,
    DEFAULT_FEATURE_CATEGORIES,
    DEFAULT_K,
    UsageFeatureVector,
    fit_kmeans,
    persona_changepoint,
    rename_personas,
    windowed_counts,
)
from .simgen import (
    DEFAULT_INDICATOR,
    PersonaShiftConfig,
    ScenarioConfig,
    TreatmentConfig,
    UnitConfig,
    build_manifest,
    describe,
    write_scenario,
)
from .synthcontrol import SynthSpec, fit_synth, randomization_inference

log = logging.getLogger("causalpanel")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5

OUT_ENV = "CAUSALPANEL_OUT"


# ---------------------------------------------------------------- helpers


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _sanitize(obj):
    """Make a payload strictly JSON-representable: numpy scalars become
    Python scalars and non-finite floats become null."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, float):
        value = float(obj)
        return value if np.isfinite(value) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _json_text(payload) -> str:
    return json.dumps(_sanitize(payload), indent=2, sort_keys=True) + "\n"


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, float):
            return "" if np.isnan(v) else repr(v)
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _iso_date(token: str, what: str) -> date:
    try:
        return date.fromisoformat(token)
    except ValueError:
        raise ParseError(f"{what}: not an ISO date: {token!r}") from None


def _split_list(token: str) -> list[str]:
    return [t.strip() for t in token.split(",") if t.strip()]


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: {err}") from None
    except OSError as err:
        raise OSError(f"{path}: {err.strerror or err}") from None


def _load_panel(path: str) -> PanelDataset:
    try:
        return read_panel(path)
    except (ParseError, ValidationError) as err:
        raise type(err)(f"{path}: {err}") from None


def _resolve(args, config: Mapping, name: str, default=None, env: str | None = None):
    value = getattr(args, name, None)
    if value not in (None, False):
        return value
    if name in config:
        return config[name]
    if env is not None and os.environ.get(env):
        return os.environ[env]
    if value is False:
        return bool(default)
    return default


def _outdir(args, config) -> str:
    out = _resolve(args, config, "out", default=".", env=OUT_ENV)
    os.makedirs(out, exist_ok=True)
    return out


def _emit(outdir: str, name: str, text: str) -> str:
    path = os.path.join(outdir, name)
    _write_atomic(path, text)
    log.info("wrote %s", path)
    return path


def _grid_labels(units: Sequence[str]) -> tuple[str, str]:
    """Derive (chassis, cpu_family) for the report grid from composite unit
    labels like "CHN|Notebook|i7". Disagreeing or absent parts give "all"."""
    chassis, families = set(), set()
    for u in units:
        parts = u.split("|")
        chassis.update(p for p in parts if p in CHASSIS_TYPES)
        families.update(p for p in parts if p in CPU_FAMILIES)
    pick = lambda values: values.pop() if len(values) == 1 else "all"
    return pick(chassis), pick(families)


def _mean_system_count(panel: PanelDataset, units: Sequence[str]) -> float | None:
    if SYSTEM_COUNT not in panel.covariate_names:
        return None
    col = panel.covariate(SYSTEM_COUNT)
    return float(np.mean([col[panel.unit_index(u)] for u in units]))


# ---------------------------------------------------------------- simulate


_SCENARIO_KEYS = {
    "units",
    "start",
    "n_days",
    "treatment",
    "donor_mixture",
    "noise_sigma",
    "outlier_probability",
    "outlier_magnitude",
    "persona_devices",
    "persona_noise",
    "persona_shift",
    "seed",
}


def _scenario_from_payload(payload, where: str) -> ScenarioConfig:
    if not isinstance(payload, dict):
        raise SchemaError(f"{where}: scenario must be a JSON object")
    unknown = set(payload) - _SCENARIO_KEYS
    if unknown:
        raise SchemaError(f"{where}: unknown scenario key(s): {sorted(unknown)}")
    if "units" not in payload:
        raise SchemaError(f"{where}: scenario needs a units list")

    def build(cls, fields, context):
        try:
            return cls(**fields)
        except TypeError as err:
            raise SchemaError(f"{where}: {context}: {err}") from None

    kwargs = dict(payload)
    kwargs["units"] = tuple(
        build(UnitConfig, u, f"units[{i}]") for i, u in enumerate(payload["units"])
    )
    if "start" in kwargs:
        kwargs["start"] = _iso_date(kwargs["start"], f"{where}: start")
    if kwargs.get("treatment") is not None:
        t = dict(kwargs["treatment"])
        t["activation"] = _iso_date(t["activation"], f"{where}: activation")
        if t.get("deactivation") is not None:
            t["deactivation"] = _iso_date(t["deactivation"], f"{where}: deactivation")
        kwargs["treatment"] = build(TreatmentConfig, t, "treatment")
    if kwargs.get("persona_shift") is not None:
        s = dict(kwargs["persona_shift"])
        s["shift_date"] = _iso_date(s["shift_date"], f"{where}: shift_date")
        kwargs["persona_shift"] = build(PersonaShiftConfig, s, "persona_shift")
    return build(ScenarioConfig, kwargs, "scenario")


def cmd_simulate(args, config) -> int:
    outdir = _outdir(args, config)
    scenario = _scenario_from_payload(_load_json(args.scenario), args.scenario)
    seed = _resolve(args, config, "seed")
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=int(seed))
    paths = write_scenario(scenario, outdir, indicator_column=args.indicator)
    manifest = build_manifest(scenario)
    _emit(outdir, "truth.txt", describe(manifest))
    for key in sorted(paths):
        log.info("scenario file %s -> %s", key, paths[key])
    sys.stdout.write(describe(manifest))
    return EXIT_OK


# ---------------------------------------------------------------- ingest


def _continent_lookup(path: str) -> dict[str, str]:
    table: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            try:
                id_col = header.index("unit_id")
                cont_col = header.index("continent")
            except ValueError:
                raise SchemaError(
                    f"{path}: units file needs unit_id and continent columns"
                ) from None
            width = max(id_col, cont_col) + 1
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                parts = line.rstrip("\n").split(",")
                if len(parts) < width:
                    raise ParseError(
                        f"{path} line {lineno}: {len(parts)} cell(s), "
                        f"need at least {width}"
                    )
                table[parts[id_col]] = parts[cont_col]
    except OSError as err:
        raise OSError(f"{path}: {err.strerror or err}") from None
    return table


def cmd_ingest(args, config) -> int:
    outdir = _outdir(args, config)
    timelines = parse_policy_csv(args.policy, args.indicator)
    log.info("parsed %d policy timeline(s)", len(timelines))
    records = parse_telemetry_csv(args.telemetry)
    log.info("parsed %d telemetry row(s)", len(records))

    panel = aggregate_telemetry(
        records, group_by=tuple(_split_list(args.group_by)), outcome=args.outcome
    )
    panel = merge_panels(panel, timelines)

    if args.units:
        continents = _continent_lookup(args.units)

        def continent_of(unit: str) -> str:
            return continents.get(unit, continents.get(unit.split("|", 1)[0], ""))

        panel = dataclasses.replace(
            panel,
            unit_tags={"continent": tuple(continent_of(u) for u in panel.unit_ids)},
        )

    path = _emit(outdir, "panel.txt", _panel_text(panel))
    print(
        f"ingest: {panel.n_units} unit(s) x {panel.n_dates} day(s) "
        f"[{panel.dates[0]}..{panel.dates[-1]}] -> {path}"
    )
    return EXIT_OK


def _panel_text(panel: PanelDataset) -> str:
    buf = io.StringIO()
    write_panel(panel, buf)
    return buf.getvalue()


# ---------------------------------------------------------------- did


def cmd_did(args, config) -> int:
    outdir = _outdir(args, config)
    panel = _load_panel(args.panel)
    spec = DidSpec(
        treated_units=frozenset(_split_list(args.treated)),
        control_units=frozenset(_split_list(args.control)),
        treatment_date=_iso_date(args.treatment_date, "--treatment-date"),
        covariate_names=tuple(_split_list(args.covariates)) if args.covariates else (),
        time_trend=bool(args.time_trend),
    )
    fit = fit_did(panel, spec)

    try:
        gap, gap_se = parallel_trends_diagnostic(panel, spec)
        trends = {"slope_gap": gap, "slope_gap_stderr": gap_se}
    except DiagnosticUnavailableError as err:
        trends = {"unavailable": str(err)}

    treated = sorted(spec.treated_units)
    chassis, family = _grid_labels(treated)
    payload = {
        "estimator": "did",
        "outcome": panel.outcome_name,
        "treatment_date": spec.treatment_date.isoformat(),
        "treated": treated,
        "control": sorted(spec.control_units),
        "time_trend": spec.time_trend,
        "alpha": fit.alpha,
        "beta0": fit.beta0,
        "stderr_beta0": fit.stderr_beta0,
        "p_value": fit.p_value,
        "confidence_interval": list(fit.confidence_interval),
        "n_obs": fit.n_obs,
        "covariate_betas": dict(fit.covariate_betas),
        "gamma": fit.gamma,
        "parallel_trends": trends,
        "effect": fit.beta0,
        "chassis": chassis,
        "cpu_family": family,
        "system_count": _mean_system_count(panel, treated),
    }
    path = _emit(outdir, "did.json", _json_text(payload))

    rows = []
    t_idx = [panel.unit_index(u) for u in treated]
    c_idx = [panel.unit_index(u) for u in sorted(spec.control_units)]

    def group_mean(indices, j):
        values = [
            panel.outcomes[i, j] for i in indices if not panel.missing_mask[i, j]
        ]
        return float(np.mean(values)) if values else float("nan")

    for j, d in enumerate(panel.dates):
        tm, cm = group_mean(t_idx, j), group_mean(c_idx, j)
        rows.append([d.isoformat(), tm, cm, tm - cm])
    _emit(
        outdir,
        "did_plot.csv",
        _csv_text(["date", "treated_mean", "control_mean", "difference"], rows),
    )
    print(
        f"did: beta0={fit.beta0:.6f} stderr={fit.stderr_beta0:.6g} "
        f"p={fit.p_value:.3g} -> {path}"
    )
    return EXIT_OK


# ---------------------------------------------------------------- synth


def cmd_synth(args, config) -> int:
    outdir = _outdir(args, config)
    panel = _load_panel(args.panel)
    spec_kwargs = dict(
        treated_unit=args.treated,
        donor_units=tuple(_split_list(args.donors)),
        treatment_date=_iso_date(args.treatment_date, "--treatment-date"),
    )
    if args.max_iterations is not None:
        spec_kwargs["max_iterations"] = args.max_iterations
    if args.tolerance is not None:
        spec_kwargs["tolerance"] = args.tolerance
    if args.covariates:
        spec_kwargs["covariate_names"] = tuple(_split_list(args.covariates))
    spec = SynthSpec(**spec_kwargs)
    fit = fit_synth(panel, spec)

    placebo_gaps = None
    p_value = None
    if args.placebo:
        p_value, placebo_gaps = randomization_inference(panel, spec, fit)
        log.info("randomization inference over %d donors", len(spec.donor_units))

    post = panel.date_index(spec.treatment_date)
    effect = float(np.nanmean(fit.gap[post:]))
    chassis, family = _grid_labels([spec.treated_unit])
    payload = {
        "estimator": "synth",
        "outcome": panel.outcome_name,
        "treatment_date": spec.treatment_date.isoformat(),
        "treated": spec.treated_unit,
        "donors": list(spec.donor_units),
        "weights": {d: float(w) for d, w in zip(spec.donor_units, fit.weights)},
        "pre_rmse": fit.pre_rmse,
        "post_pre_ratio": fit.post_pre_ratio,
        "converged": fit.converged,
        "p_value": p_value,
        "effect": effect,
        "chassis": chassis,
        "cpu_family": family,
        "system_count": _mean_system_count(panel, [spec.treated_unit]),
    }
    path = _emit(outdir, "synth.json", _json_text(payload))

    actual, _ = panel.unit_series(spec.treated_unit)
    rows = [
        [d.isoformat(), float(a), float(c), float(g)]
        for d, a, c, g in zip(panel.dates, actual, fit.counterfactual, fit.gap)
    ]
    _emit(
        outdir,
        "synth_plot.csv",
        _csv_text(["date", "actual", "counterfactual", "gap"], rows),
    )

    if placebo_gaps is not None:
        donors = [d for d in sorted(placebo_gaps) if placebo_gaps[d] is not None]
        rows = []
        for j, d in enumerate(panel.dates):
            rows.append(
                [d.isoformat(), float(fit.gap[j])]
                + [float(placebo_gaps[u][j]) for u in donors]
            )
        _emit(
            outdir,
            "synth_placebo.csv",
            _csv_text(["date", "treated"] + donors, rows),
        )

    ptxt = "n/a" if p_value is None else f"{p_value:.4g}"
    print(
        f"synth: pre_rmse={fit.pre_rmse:.4g} effect={effect:.6f} "
        f"p={ptxt} -> {path}"
    )
    return EXIT_OK


# ---------------------------------------------------------------- cpd


def _read_series_csv(path: str) -> tuple[np.ndarray, list[date] | None]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise ParseError(f"{path}: series file is empty") from None
            if "value" not in header:
                raise SchemaError(f"{path}: series file needs a value column")
            v_col = header.index("value")
            d_col = header.index("date") if "date" in header else None
            values, dates = [], []
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                try:
                    values.append(float(row[v_col]))
                except (ValueError, IndexError):
                    raise ParseError(
                        f"{path} row {lineno}: bad value cell"
                    ) from None
                if d_col is not None:
                    dates.append(_iso_date(row[d_col], f"{path} row {lineno}"))
    except OSError as err:
        raise OSError(f"{path}: {err.strerror or err}") from None
    return np.asarray(values), (dates if d_col is not None else None)


def cmd_cpd(args, config) -> int:
    outdir = _outdir(args, config)
    if bool(args.series) == bool(args.panel):
        raise ValidationError("cpd needs exactly one of --series or --panel")
    if args.panel:
        if not args.unit:
            raise ValidationError("--panel requires --unit")
        panel = _load_panel(args.panel)
        values, mask = panel.unit_series(args.unit)
        if mask.any():
            raise ValidationError(
                f"unit {args.unit!r} has missing days; change-point detection "
                "needs a complete series"
            )
        series, dates = np.asarray(values, dtype=float), list(panel.dates)
    else:
        series, dates = _read_series_csv(args.series)

    penalty = PenaltyConfig(
        kind=args.penalty, lam=args.lam, noise_scale=args.noise_scale
    )
    seg = detect_penalized(series, penalty, k_max=args.k_max)
    lam_eff = effective_penalty(series, penalty)

    def bp_date(b: int) -> str | None:
        return dates[b].isoformat() if dates is not None else None

    summary = (
        f"{seg.k} segment{'s' if seg.k != 1 else ''}, "
        f"{len(seg.breakpoints)} breakpoint{'s' if len(seg.breakpoints) != 1 else ''}"
    )
    payload = {
        "estimator": "cpd",
        "penalty": args.penalty,
        "lambda_eff": lam_eff,
        "n": seg.n,
        "k": seg.k,
        "total_cost": seg.total_cost,
        "breakpoints": list(seg.breakpoints),
        "breakpoint_dates": (
            [bp_date(b) for b in seg.breakpoints] if dates is not None else None
        ),
        "segment_means": list(seg.segment_means),
        "summary": summary,
    }
    path = _emit(outdir, "cpd.json", _json_text(payload))

    fitted = seg.fitted()
    rows = []
    for i, (v, m) in enumerate(zip(series, fitted)):
        label = dates[i].isoformat() if dates is not None else i
        rows.append([label, float(v), float(m)])
    _emit(
        outdir,
        "cpd_plot.csv",
        _csv_text(["date" if dates is not None else "index", "value", "segment_mean"], rows),
    )
    print(f"cpd: {summary} (lambda_eff={lam_eff:.6g}) -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------- persona


def cmd_persona(args, config) -> int:
    outdir = _outdir(args, config)
    records = parse_persona_csv(args.records)
    log.info("parsed %d persona usage row(s)", len(records))

    fit_until = (
        _iso_date(args.fit_until, "--fit-until") if args.fit_until else None
    )
    fit_records = (
        [r for r in records if r.window_start < fit_until] if fit_until else records
    )
    if not fit_records:
        raise ValidationError("no usage rows before --fit-until to fit on")

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

    seed = _resolve(args, config, "seed", default=0)
    model = fit_kmeans(vectors, k=args.k, seed=int(seed))
    if set(model.feature_names) == set(DEFAULT_FEATURE_CATEGORIES):
        model = rename_personas(model, CATEGORY_TO_PERSONA)

    series = windowed_counts(records, model, width=args.width, stride=args.stride)

    payload = {
        "estimator": "persona",
        "k": model.k,
        "seed": int(seed),
        "persona_names": list(model.persona_names),
        "feature_names": list(model.feature_names),
        "centroids": [[float(v) for v in row] for row in model.centroids],
        "windows": [d.isoformat() for d in series.window_starts],
    }
    path = _emit(outdir, "persona_model.json", _json_text(payload))

    names = list(series.persona_names)
    count_rows = [
        [d.isoformat()] + [int(c) for c in series.counts[w]]
        for w, d in enumerate(series.window_starts)
    ]
    _emit(
        outdir,
        "persona_counts.csv",
        _csv_text(["window_start"] + names, count_rows),
    )
    z_rows = [
        [series.window_starts[w + 1].isoformat()]
        + [float(z) for z in series.zscores[w]]
        for w in range(series.zscores.shape[0])
    ]
    _emit(
        outdir,
        "persona_zscores.csv",
        _csv_text(["transition_into"] + names, z_rows),
    )

    changepoints = {}
    if len(series.window_starts) >= 4:
        for name, seg in persona_changepoint(series).items():
            changepoints[name] = {
                "k": seg.k,
                "breakpoints": list(seg.breakpoints),
                "breakpoint_windows": [
                    series.window_starts[b + 1].isoformat() for b in seg.breakpoints
                ],
                "segment_means": list(seg.segment_means),
            }
    else:
        log.warning("fewer than 4 windows; skipping change-point analysis")
    _emit(outdir, "persona_changepoints.json", _json_text(changepoints))

    print(
        f"persona: {model.k} personas, {len(series.window_starts)} windows "
        f"-> {path}"
    )
    return EXIT_OK


# ---------------------------------------------------------------- report


_REPORT_KEYS = ("estimator", "outcome", "effect", "p_value")


def cmd_report(args, config) -> int:
    outdir = _outdir(args, config)
    if not args.artifacts:
        raise ValidationError("report needs at least one artifact file")
    rows = []
    outcomes = set()
    for path in args.artifacts:
        payload = _load_json(path)
        missing = [k for k in _REPORT_KEYS if k not in payload]
        if missing:
            raise ValidationError(
                f"{path}: artifact missing field(s): {', '.join(missing)}"
            )
        outcomes.add(payload["outcome"])
        rows.append(
            (
                payload.get("chassis", "all"),
                payload.get("cpu_family", "all"),
                payload["estimator"],
                float(payload["effect"]),
                payload.get("system_count"),
                payload["p_value"],
            )
        )
    if len(outcomes) > 1:
        raise ValidationError(
            "artifacts mix incompatible outcomes: " + ", ".join(sorted(outcomes))
        )
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    header = ["chassis", "cpu_family", "estimator", "effect", "system_count", "p_value"]

    fmt = _resolve(args, config, "format", default="json")
    if fmt == "csv":
        text = _csv_text(header, rows)
        path = _emit(outdir, "report.csv", text)
    else:
        payload = {
            "outcome": outcomes.pop(),
            "rows": [dict(zip(header, r)) for r in rows],
        }
        path = _emit(outdir, "report.json", _json_text(payload))
    print(f"report: {len(rows)} row(s) -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output directory (default: $CAUSALPANEL_OUT or .)")
    common.add_argument("--format", choices=("json", "csv"), help="report format")
    common.add_argument("--seed", type=int, help="seed override where applicable")
    common.add_argument("--quiet", action="store_true", help="suppress info logging")
    common.add_argument("--config", help="JSON file with default option values")

    parser = argparse.ArgumentParser(
        prog="causalpanel",
        description="Panel-data causal inference: DiD, synthetic control, "
        "change points, personas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="generate a scenario")
    p.add_argument("--scenario", required=True, help="scenario config JSON")
    p.add_argument("--indicator", default=DEFAULT_INDICATOR)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("ingest", parents=[common], help="build a panel from files")
    p.add_argument("--policy", required=True)
    p.add_argument("--telemetry", required=True)
    p.add_argument("--indicator", default=DEFAULT_INDICATOR)
    p.add_argument("--group-by", default="unit_id")
    p.add_argument("--outcome", default="usage_hours")
    p.add_argument("--units", help="units.csv with continent tags")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("did", parents=[common], help="difference-in-differences")
    p.add_argument("--panel", required=True)
    p.add_argument("--treated", required=True, help="comma-separated unit ids")
    p.add_argument("--control", required=True, help="comma-separated unit ids")
    p.add_argument("--treatment-date", required=True)
    p.add_argument("--covariates", help="comma-separated covariate/tag names")
    p.add_argument("--time-trend", action="store_true")
    p.set_defaults(handler=cmd_did)

    p = sub.add_parser("synth", parents=[common], help="synthetic control")
    p.add_argument("--panel", required=True)
    p.add_argument("--treated", required=True)
    p.add_argument("--donors", required=True, help="comma-separated unit ids")
    p.add_argument("--treatment-date", required=True)
    p.add_argument("--covariates", help="comma-separated covariate names")
    p.add_argument("--max-iterations", type=int, help="cap on active-set steps")
    p.add_argument(
        "--tolerance", type=float, help="KKT tolerance relative to the worst donor fit"
    )
    p.add_argument("--placebo", action="store_true", help="run randomization inference")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("cpd", parents=[common], help="offline change-point detection")
    p.add_argument("--series", help="CSV with a value column (optional date column)")
    p.add_argument("--panel", help="panel file (use with --unit)")
    p.add_argument("--unit")
    p.add_argument("--penalty", choices=("aic", "bic", "manual"), default="bic")
    p.add_argument("--lam", type=float, help="manual penalty value")
    p.add_argument("--noise-scale", type=float, help="override noise scale estimate")
    p.add_argument("--k-max", type=int, default=20)
    p.set_defaults(handler=cmd_cpd)

    p = sub.add_parser("persona", parents=[common], help="persona pipeline")
    p.add_argument("--records", required=True, help="persona usage CSV")
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--width", type=int, default=28, help="window width in days")
    p.add_argument("--stride", type=int, default=14, help="window stride in days")
    p.add_argument(
        "--fit-until", help="fit centroids only on rows before this ISO date"
    )
    p.set_defaults(handler=cmd_persona)

    p = sub.add_parser("report", parents=[common], help="consolidate artifacts")
    p.add_argument("artifacts", nargs="*", help="estimation artifact JSON files")
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(levelname)s %(message)s",
        force=True,
    )
    try:
        config: Mapping = {}
        if getattr(args, "config", None):
            loaded = _load_json(args.config)
            if not isinstance(loaded, dict):
                raise SchemaError(f"{args.config}: config file must be a JSON object")
            config = loaded
        if _resolve(args, config, "quiet", default=False):
            logging.getLogger().setLevel(logging.WARNING)
        return args.handler(args, config)
    except ParseError as err:
        log.error("parse error: %s", err)
        return EXIT_PARSE
    except (ValidationError, SchemaError) as err:
        log.error("validation error: %s", err)
        return EXIT_VALIDATION
    except NumericalError as err:
        log.error("numerical error: %s", err)
        return EXIT_NUMERICAL
    except json.JSONDecodeError as err:
        log.error("parse error: %s", err)
        return EXIT_PARSE
    except ValueError as err:
        log.error("validation error: %s", err)
        return EXIT_VALIDATION
    except OSError as err:
        log.error("io error: %s", err)
        return EXIT_IO
    except CausalPanelError as err:
        log.error("error: %s", err)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
