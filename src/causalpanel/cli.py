"""Command-line front end: ingestion, estimation, inference, reports.

Option precedence, for every option: command-line flag > --config file
entry > environment (``CAUSALPANEL_OUT`` for the output directory) >
built-in default. Each command's defaults are one table in its handler
(see :func:`_options`); argparse itself defaults every option to None, so
that a flag that is not given leaves the choice to the config file.

Each handler imports the modules its command runs, so a command's process
loads only those: ``did`` reads no simulator and ``cpd`` no estimator. This
module itself does no array work and imports no numpy, so ``--help`` and
``report``, which reads JSON artifacts only, start without it.

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
import io
import json
import logging
import math
import os
import sys
import warnings
from datetime import date
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence, get_args, get_origin, get_type_hints

from .errors import (
    CausalPanelError,
    ConvergenceWarning,
    DiagnosticUnavailableError,
    NumericalError,
    ParseError,
    SchemaError,
    ValidationError,
)

log = logging.getLogger("causalpanel")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5

OUT_ENV = "CAUSALPANEL_OUT"


# ---------------------------------------------------------------- helpers


def _sanitize(obj):
    """Make a payload strictly JSON-representable: numpy scalars become
    Python scalars, non-finite floats become null and tuples become lists.
    A numpy scalar can only come from a process that has loaded numpy, so
    numpy is looked up, never imported."""
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, float):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _json_text(payload) -> str:
    return json.dumps(_sanitize(payload), indent=2, sort_keys=True) + "\n"


def _text(write, *args) -> str:
    """What a panelio writer, called as ``write(*args, stream)``, writes."""
    buf = io.StringIO()
    write(*args, buf)
    return buf.getvalue()


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A result table (plot, count and report CSVs): floats with ``repr``,
    None and NaN as empty cells, other values with ``str``; a cell that
    holds the delimiter or a quote is quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [None if isinstance(v, float) and v != v else v for v in row]  # NaN
        for row in rows
    )
    return buf.getvalue()


def _iso_date(token: str, what: str) -> date:
    if not isinstance(token, str):  # a JSON number or null, say
        raise SchemaError(f"{what}: not an ISO date string: {json.dumps(token)}")
    try:
        return date.fromisoformat(token)
    except ValueError:
        raise ParseError(f"{what}: not an ISO date: {token!r}") from None


def _is_kind(value, kind: type) -> bool:
    """Whether a value read from JSON is of ``kind``: the one type rule of
    every JSON input (scenario, config file, report artifact). An integer
    is an int but not a bool; a number (``float``) is finite, and may be
    an int that a float holds exactly."""
    if kind is int:
        return type(value) is int
    if kind is float:
        if type(value) is float:
            return math.isfinite(value)
        return type(value) is int and abs(value) <= 2**53
    return isinstance(value, kind)


_KIND_NAMES = {
    int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"
}


def _decode(value, kind, where: str):
    """A JSON value checked against ``kind``, a type that simgen's config
    dataclasses or ``_REPORT_KEYS`` declare: str, int, float, date (an ISO
    string), X | None, a dataclass or Mapping (an object), tuple (a list).
    Scalars pass unconverted. Errors name ``where``: the file and key path."""
    args = get_args(kind)
    if type(None) in args:  # X | None
        if value is None:
            return None
        (kind,) = set(args) - {type(None)}
        return _decode(value, kind, where)
    if kind is date:
        return _iso_date(value, where)
    is_dataclass = hasattr(kind, "__dataclass_fields__")
    json_kind = list if get_origin(kind) is tuple else dict if args or is_dataclass else kind
    if not _is_kind(value, json_kind):
        raise SchemaError(f"{where}: not {_KIND_NAMES[json_kind]}: {json.dumps(value)}")
    if json_kind is list:  # tuple[X, ...]
        return tuple(_decode(v, args[0], f"{where}[{i}]") for i, v in enumerate(value))
    if args:  # Mapping[str, X]
        return {key: _decode(v, args[1], f"{where}: {key}") for key, v in value.items()}
    if not is_dataclass:
        return value

    from dataclasses import MISSING, fields

    hints = get_type_hints(kind)
    for key in value:
        if key not in hints:
            raise SchemaError(f"{where}: unknown key {key!r}")
    for f in fields(kind):
        if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
            raise SchemaError(f"{where}: missing key {f.name!r}")
    kwargs = {key: _decode(v, hints[key], f"{where}: {key}") for key, v in value.items()}
    try:
        return kind(**kwargs)
    except ValidationError as err:
        raise ValidationError(f"{where}: {err}") from None


def _split_list(token: str) -> list[str]:
    return [t.strip() for t in token.split(",") if t.strip()]


def _not_utf8(path: str, err: UnicodeDecodeError) -> ParseError:
    """A file's undecodable bytes as a parse error naming the file. No
    offset is given: ``err.start`` counts from the decoded chunk, not
    from the start of the file."""
    bad = " ".join(f"0x{b:02x}" for b in err.object[err.start : err.end])
    return ParseError(f"{path}: not UTF-8 text: {err.reason} {bad}")


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: {err}") from None
    except UnicodeDecodeError as err:
        raise _not_utf8(path, err) from None
    except OSError as err:
        raise OSError(f"{path}: {err.strerror or err}") from None


def _load(parse, path: str, *args):
    """Run a file reader, prefixing its parse, validation and I/O errors
    with the file path (the readers name only the row, section or unit)."""
    try:
        return parse(path, *args)
    except (ParseError, ValidationError) as err:
        raise type(err)(f"{path}: {err}") from None
    except UnicodeDecodeError as err:
        raise _not_utf8(path, err) from None
    except OSError as err:
        raise OSError(f"{path}: {err.strerror or err}") from None


def _resolve(args, config: Mapping, name: str, default=None, env: str | None = None):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    if env is not None and os.environ.get(env):
        return os.environ[env]
    return default


# The options every command takes, with their defaults.
_COMMON = {"out": ".", "quiet": False}


def _config_value(path: str, key: str, value, action: argparse.Action):
    """A config file's value for an option, checked as the flag's argument
    would be: a JSON string, integer or number as the flag's type (by
    :func:`_is_kind`), one of its choices, or true/false for a switch."""
    kind = bool if action.nargs == 0 else action.type or str
    if not _is_kind(value, kind) or (
        action.choices is not None and value not in action.choices
    ):
        raise SchemaError(
            f"{path}: {key}: {json.dumps(value)} is not a value of {action.option_strings[0]}"
        )
    return float(value) if kind is float else value


def _options(args, config: Mapping, defaults: Mapping) -> SimpleNamespace:
    """Every option of ``args.command``, each the first there is of its
    flag, its ``--config`` key, ``$CAUSALPANEL_OUT`` (for ``out``) and its
    entry in ``defaults`` or ``_COMMON``. The command takes exactly those
    options from a config file; any other key is a validation error
    naming the file and the key. Required flags are never config keys."""
    defaults = {**_COMMON, **defaults}
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise SchemaError(
            f"{args.config}: not a config key of {args.command}: "
            + ", ".join(map(repr, unknown))
        )
    actions = {a.dest: a for a in args.command_parser._actions}
    config = {
        key: _config_value(args.config, key, value, actions[key])
        for key, value in config.items()
    }
    return SimpleNamespace(
        **{
            name: _resolve(args, config, name, default, OUT_ENV if name == "out" else None)
            for name, default in defaults.items()
        }
    )


def _outdir(opts: SimpleNamespace) -> str:
    os.makedirs(opts.out, exist_ok=True)
    return opts.out


def _emit(outdir: str, name: str, text: str) -> str:
    path = os.path.join(outdir, name)
    with open(path + ".tmp", "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(path + ".tmp", path)
    log.info("wrote %s", path)
    return path


def _grid_labels(units: Sequence[str]) -> tuple[str, str]:
    """Derive (chassis, cpu_family) for the report grid from composite unit
    labels like "CHN|Notebook|i7". Disagreeing or absent parts give "all"."""
    from .paneldata import CHASSIS_TYPES, CPU_FAMILIES

    chassis, families = set(), set()
    for u in units:
        parts = u.split("|")
        chassis.update(p for p in parts if p in CHASSIS_TYPES)
        families.update(p for p in parts if p in CPU_FAMILIES)
    pick = lambda values: values.pop() if len(values) == 1 else "all"
    return pick(chassis), pick(families)


def _mean_system_count(panel, units: Sequence[str]) -> float | None:
    from .paneldata import SYSTEM_COUNT

    if SYSTEM_COUNT not in panel.covariate_names:
        return None
    col = panel.covariate(SYSTEM_COUNT)
    return float(col[[panel.unit_index(u) for u in units]].mean())


# ---------------------------------------------------------------- simulate


def cmd_simulate(args, config) -> int:
    from dataclasses import replace

    from .paneldata import DEFAULT_INDICATOR
    from .simgen import ScenarioConfig, build_manifest, describe, write_scenario

    opts = _options(args, config, {"seed": None, "indicator": DEFAULT_INDICATOR})
    outdir = _outdir(opts)
    scenario = _decode(_load_json(args.scenario), ScenarioConfig, args.scenario)
    if opts.seed is not None:
        scenario = replace(scenario, seed=opts.seed)
    paths = write_scenario(scenario, outdir, indicator_column=opts.indicator)
    manifest = build_manifest(scenario)
    _emit(outdir, "truth.txt", describe(manifest))
    for key in sorted(paths):
        log.info("scenario file %s -> %s", key, paths[key])
    sys.stdout.write(describe(manifest))
    return EXIT_OK


# ---------------------------------------------------------------- ingest


def cmd_ingest(args, config) -> int:
    from dataclasses import replace

    from .paneldata import DEFAULT_INDICATOR, aggregate_telemetry, merge_panels
    from .panelio import parse_policy_csv, parse_telemetry_csv, parse_units_csv, write_panel

    opts = _options(
        args,
        config,
        {
            "indicator": DEFAULT_INDICATOR,
            "group_by": "unit_id",
            "outcome": "usage_hours",
            "units": None,
        },
    )
    outdir = _outdir(opts)
    timelines = _load(parse_policy_csv, args.policy, opts.indicator)
    log.info("parsed %d policy timeline(s)", len(timelines))
    records = _load(parse_telemetry_csv, args.telemetry)
    log.info("parsed %d telemetry row(s)", len(records))

    panel = aggregate_telemetry(
        records, group_by=tuple(_split_list(opts.group_by)), outcome=opts.outcome
    )
    panel = merge_panels(panel, timelines)

    if opts.units:
        continents = _load(parse_units_csv, opts.units)

        def continent_of(unit: str) -> str:
            return continents.get(unit, continents.get(unit.split("|", 1)[0], ""))

        panel = replace(
            panel,
            unit_tags={"continent": tuple(continent_of(u) for u in panel.unit_ids)},
        )

    path = _emit(outdir, "panel.txt", _text(write_panel, panel))
    print(
        f"ingest: {panel.n_units} unit(s) x {panel.n_dates} day(s) "
        f"[{panel.dates[0]}..{panel.dates[-1]}] -> {path}"
    )
    return EXIT_OK


# ---------------------------------------------------------------- did


def cmd_did(args, config) -> int:
    from .did import DidSpec, fit_did, parallel_trends_diagnostic
    from .panelio import read_panel

    opts = _options(args, config, {"covariates": None, "time_trend": False})
    outdir = _outdir(opts)
    panel = _load(read_panel, args.panel)
    spec = DidSpec(
        treated_units=frozenset(_split_list(args.treated)),
        control_units=frozenset(_split_list(args.control)),
        treatment_date=_iso_date(args.treatment_date, "--treatment-date"),
        covariate_names=tuple(_split_list(opts.covariates)) if opts.covariates else (),
        time_trend=opts.time_trend,
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
        present = [i for i in indices if not panel.missing_mask[i, j]]
        return float(panel.outcomes[present, j].mean()) if present else float("nan")

    for j, d in enumerate(panel.dates):
        tm, cm = group_mean(t_idx, j), group_mean(c_idx, j)
        rows.append([d.isoformat(), tm, cm, tm - cm])
    header = ["date", "treated_mean", "control_mean", "difference"]
    _emit(outdir, "did_plot.csv", _csv_text(header, rows))
    print(
        f"did: beta0={fit.beta0:.6f} stderr={fit.stderr_beta0:.6g} "
        f"p={fit.p_value:.3g} -> {path}"
    )
    return EXIT_OK


# ---------------------------------------------------------------- synth


def cmd_synth(args, config) -> int:
    import numpy as np

    from .panelio import read_panel
    from .synthcontrol import (
        DEFAULT_MAX_ITERATIONS,
        DEFAULT_TOLERANCE,
        SynthSpec,
        fit_synth,
        randomization_inference,
    )

    opts = _options(
        args,
        config,
        {
            "covariates": None,
            "max_iterations": DEFAULT_MAX_ITERATIONS,
            "tolerance": DEFAULT_TOLERANCE,
            "placebo": False,
        },
    )
    outdir = _outdir(opts)
    panel = _load(read_panel, args.panel)
    spec = SynthSpec(
        treated_unit=args.treated,
        donor_units=tuple(_split_list(args.donors)),
        treatment_date=_iso_date(args.treatment_date, "--treatment-date"),
        max_iterations=opts.max_iterations,
        tolerance=opts.tolerance,
        covariate_names=tuple(_split_list(opts.covariates)) if opts.covariates else (),
    )
    fit = fit_synth(panel, spec)

    placebo_gaps = None
    p_value = None
    if opts.placebo:
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


def cmd_cpd(args, config) -> int:
    from .changepoint import (
        DEFAULT_K_MAX,
        PenaltyConfig,
        detect_penalized,
        effective_penalty,
    )
    from .panelio import parse_series_csv, read_panel

    opts = _options(
        args,
        config,
        {
            "series": None,
            "panel": None,
            "unit": None,
            "penalty": "bic",
            "lam": None,
            "noise_scale": None,
            "k_max": DEFAULT_K_MAX,
        },
    )
    outdir = _outdir(opts)
    if bool(opts.series) == bool(opts.panel):
        raise ValidationError("cpd needs exactly one of --series or --panel")
    if opts.panel:
        if not opts.unit:
            raise ValidationError("--panel requires --unit")
        panel = _load(read_panel, opts.panel)
        values, mask = panel.unit_series(opts.unit)
        if mask.any():
            raise ValidationError(
                f"unit {opts.unit!r} has missing days; change-point detection "
                "needs a complete series"
            )
        series, dates = values, list(panel.dates)
    else:
        series, dates = _load(parse_series_csv, opts.series)

    if opts.k_max < 1:
        raise ValidationError(f"k_max (cpd --k-max) must be at least 1, got {opts.k_max}")
    penalty = PenaltyConfig(
        kind=opts.penalty, lam=opts.lam, noise_scale=opts.noise_scale
    )
    seg = detect_penalized(series, penalty)
    lam_eff = effective_penalty(series, penalty)
    if seg.k > opts.k_max:
        raise ValidationError(
            f"the optimal segmentation has {seg.k} segments at penalty "
            f"lambda_eff={lam_eff:.6g}, more than --k-max {opts.k_max}; "
            "raise --k-max or the penalty"
        )

    def bp_date(b: int) -> str | None:
        return dates[b].isoformat() if dates is not None else None

    summary = (
        f"{seg.k} segment{'s' if seg.k != 1 else ''}, "
        f"{len(seg.breakpoints)} breakpoint{'s' if len(seg.breakpoints) != 1 else ''}"
    )
    payload = {
        "estimator": "cpd",
        "penalty": opts.penalty,
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
    header = ["date" if dates is not None else "index", "value", "segment_mean"]
    _emit(outdir, "cpd_plot.csv", _csv_text(header, rows))
    print(f"cpd: {summary} (lambda_eff={lam_eff:.6g}) -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------- persona


def _fit_rows(records, fit_until: str | None):
    """The usage rows the personas are fitted on: those before
    ``--fit-until`` when it is given, else all."""
    if fit_until:
        records = records.take(
            records.day < _iso_date(fit_until, "--fit-until").toordinal()
        )
    if not len(records):
        raise ValidationError("no usage rows before --fit-until to fit on")
    return records


def cmd_persona(args, config) -> int:
    from .panelio import parse_persona_csv
    from .persona import (
        CATEGORY_TO_PERSONA,
        DEFAULT_FEATURE_CATEGORIES,
        DEFAULT_K,
        WINDOW_STRIDE,
        WINDOW_WIDTH,
        device_means,
        fit_kmeans,
        persona_changepoint,
        rename_personas,
        windowed_counts,
    )

    opts = _options(
        args,
        config,
        {
            "seed": 0,
            "k": DEFAULT_K,
            "width": WINDOW_WIDTH.days,
            "stride": WINDOW_STRIDE.days,
            "fit_until": None,
        },
    )
    outdir = _outdir(opts)
    records = _load(parse_persona_csv, args.records)
    log.info("parsed %d persona usage row(s)", len(records))

    # the fit rows are a copy; only their per-device means outlive the fit
    model = fit_kmeans(
        device_means(_fit_rows(records, opts.fit_until)), k=opts.k, seed=opts.seed
    )
    if set(model.feature_names) == set(DEFAULT_FEATURE_CATEGORIES):
        model = rename_personas(model, CATEGORY_TO_PERSONA)

    series = windowed_counts(records, model, width=opts.width, stride=opts.stride)

    payload = {
        "estimator": "persona",
        "k": model.k,
        "seed": opts.seed,
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


# The keys report reads from an artifact, with their kinds: required, then optional.
_REPORT_KEYS = {"estimator": str, "outcome": str, "effect": float, "p_value": float | None}
_REPORT_OPTIONAL = {"system_count": float | None, "chassis": str, "cpu_family": str}


def cmd_report(args, config) -> int:
    opts = _options(args, config, {"format": "json"})
    outdir = _outdir(opts)
    if not args.artifacts:
        raise ValidationError("report needs at least one artifact file")
    rows = []
    outcomes = set()
    for path in args.artifacts:
        payload = _decode(_load_json(path), dict, path)
        missing = [k for k in _REPORT_KEYS if k not in payload]
        if missing:
            raise ValidationError(
                f"{path}: artifact missing field(s): {', '.join(missing)}"
            )
        for key, kind in {**_REPORT_KEYS, **_REPORT_OPTIONAL}.items():
            if key in payload:
                _decode(payload[key], kind, f"{path}: {key}")
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

    if opts.format == "csv":
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
    """The command-line parser. No option has a default here (a switch is
    None unless given): each handler resolves its options through
    :func:`_options`, so a config file can set any of them."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output directory (default: $CAUSALPANEL_OUT or .)")
    common.add_argument(
        "--quiet", action="store_true", default=None, help="suppress info logging"
    )
    common.add_argument("--config", help="JSON file with default option values")

    parser = argparse.ArgumentParser(
        prog="causalpanel",
        description="Panel-data causal inference: DiD, synthetic control, "
        "change points, personas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="generate a scenario")
    p.add_argument("--scenario", required=True, help="scenario config JSON")
    p.add_argument("--indicator")
    p.add_argument("--seed", type=int, help="override the scenario's seed")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("ingest", parents=[common], help="build a panel from files")
    p.add_argument("--policy", required=True)
    p.add_argument("--telemetry", required=True)
    p.add_argument("--indicator")
    p.add_argument("--group-by")
    p.add_argument("--outcome")
    p.add_argument("--units", help="units.csv with continent tags")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("did", parents=[common], help="difference-in-differences")
    p.add_argument("--panel", required=True)
    p.add_argument("--treated", required=True, help="comma-separated unit ids")
    p.add_argument("--control", required=True, help="comma-separated unit ids")
    p.add_argument("--treatment-date", required=True)
    p.add_argument("--covariates", help="comma-separated covariate/tag names")
    p.add_argument("--time-trend", action="store_true", default=None)
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
    p.add_argument(
        "--placebo", action="store_true", default=None, help="run randomization inference"
    )
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("cpd", parents=[common], help="offline change-point detection")
    p.add_argument("--series", help="CSV with a value column (optional date column)")
    p.add_argument("--panel", help="panel file (use with --unit)")
    p.add_argument("--unit")
    p.add_argument("--penalty", choices=("aic", "bic", "manual"))
    p.add_argument("--lam", type=float, help="manual penalty value")
    p.add_argument("--noise-scale", type=float, help="override noise scale estimate")
    p.add_argument(
        "--k-max", type=int, help="most segments accepted (exit 3 above it)"
    )
    p.set_defaults(handler=cmd_cpd)

    p = sub.add_parser("persona", parents=[common], help="persona pipeline")
    p.add_argument("--records", required=True, help="persona usage CSV")
    p.add_argument("--k", type=int)
    p.add_argument("--width", type=int, help="window width in days")
    p.add_argument("--stride", type=int, help="window stride in days")
    p.add_argument(
        "--fit-until", help="fit centroids only on rows before this ISO date"
    )
    p.add_argument("--seed", type=int, help="k-means seed")
    p.set_defaults(handler=cmd_persona)

    p = sub.add_parser("report", parents=[common], help="consolidate artifacts")
    p.add_argument("artifacts", nargs="*", help="estimation artifact JSON files")
    p.add_argument("--format", choices=("json", "csv"), help="report format")
    p.set_defaults(handler=cmd_report)

    for p in sub.choices.values():  # for _options, which checks config values
        p.set_defaults(command_parser=p)
    return parser


def _log_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as one log line, its category and message, in place
    of Python's two-line form with the source line."""
    log.warning("%s: %s", category.__name__, message)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(levelname)s %(message)s",
        force=True,
    )
    # a fresh warning registry per call: each call logs the toolkit's
    # warnings as a new process would, once per location
    with warnings.catch_warnings():
        warnings.simplefilter("default", ConvergenceWarning)
        warnings.showwarning = _log_warning
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
        except ValidationError as err:
            log.error("validation error: %s", err)
            return EXIT_VALIDATION
        except NumericalError as err:
            log.error("numerical error: %s", err)
            return EXIT_NUMERICAL
        except OSError as err:
            log.error("io error: %s", err)
            return EXIT_IO
        except CausalPanelError as err:
            log.error("error: %s", err)
            return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
