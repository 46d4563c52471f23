"""The traced run: per-layer metrics from in-process calls.

Spans are recorded from this file, around each call into a module's
public function; nothing inside the program is instrumented. The run:

1. times ``import causalpanel.cli`` in fresh child processes;
2. runs the workload's command sequence through ``cli.main`` in process
   (import excluded), checking each result file as the end-to-end run
   does;
3. repeats, while ``--seconds`` lasts, a pair of passes over the layers'
   public functions on the same inputs: one untraced, one traced. Their
   difference is the tracing overhead.

Times are medians over the traced passes; counts come from return
values and caught ``ConvergenceWarning``s, and must repeat exactly from
pass to pass.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import warnings

import workloads
from harness import (
    CHILD_TIMEOUT_S, SRC, Tally, checked, child_env, csv_rows, machine_record, probe,
)
from spans import NullTracer, Tracer

IMPORT_SAMPLES = 3
MIN_PAIRS = 2
IMPORT_PROBE = (
    "import sys, time; n = len(sys.modules); t = time.perf_counter(); "
    "import causalpanel.cli; print(time.perf_counter() - t, len(sys.modules) - n)"
)

# Metric name -> unit. A name ending in ``_s`` (other than the import and
# overhead figures) is the duration of the span named without that suffix.
LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.modules_loaded": "count",
    **{f"cli.main.{c}_s": "s" for c in workloads.COMMANDS},
    "simgen.generate_s": "s",
    "simgen.write_scenario_s": "s",
    "simgen.rows_written": "count",
    "simgen.bytes_written": "count",
    "panelio.parse_policy_s": "s",
    "panelio.parse_telemetry_s": "s",
    "panelio.parse_persona_s": "s",
    "panelio.write_panel_s": "s",
    "panelio.read_panel_s": "s",
    "panelio.rows_parsed": "count",
    "panelio.bytes_read": "count",
    "paneldata.aggregate_s": "s",
    "paneldata.merge_s": "s",
    "paneldata.cells": "count",
    "paneldata.masked_cells": "count",
    "did.fit_s": "s",
    "did.trends_s": "s",
    "did.n_obs": "count",
    "synthcontrol.fit_synth_s": "s",
    "synthcontrol.placebo_s": "s",
    "synthcontrol.fits": "count",
    "synthcontrol.iterations": "count",
    "synthcontrol.nonconverged_fits": "count",
    "synthcontrol.converged_ratio": "ratio",
    "synthcontrol.pre_rmse": "h",
    "changepoint.detect_s": "s",
    "changepoint.series_len": "count",
    "changepoint.k_max": "count",
    "persona.fit_kmeans_s": "s",
    "persona.windowed_counts_s": "s",
    "persona.changepoint_s": "s",
    "persona.records": "count",
    "persona.devices": "count",
    "persona.windows": "count",
    "persona.kmeans_iterations": "count",
    "trace.overhead_s": "s",
}


def import_cost(run_dir: str) -> tuple[float, int]:
    """Median in-child import time of the CLI module, and how many modules
    that import loads."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=run_dir, env=child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        seconds, modules = out.stdout.split()
        samples.append((float(seconds), int(modules)))
    return statistics.median(s for s, _ in samples), samples[-1][1]


def cli_pass(cli, w, seed: int, run_dir: str, tracer: Tracer, tally: Tally,
             log_path: str) -> None:
    """The command sequence through ``cli.main`` in this process; the
    commands' summaries go to the log, not to standard output."""
    inputs = workloads.write_inputs(w, seed, run_dir)
    data, work = os.path.join(run_dir, "data"), os.path.join(run_dir, "work")
    for name, argv in workloads.command_argvs(w, inputs, data, work):
        with open(log_path, "a", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                with tracer.span(f"cli.main.{name}"):
                    code = cli.main([*argv, "--quiet"])
            except Exception as err:  # a traceback is a failed command, as in a child
                code = f"{type(err).__name__}: {err}"
        if code != 0:
            tally.record(f"cli.main {name}", f"exit {code}")
        else:
            checked(tally, f"cli.main {name}", workloads.CHECKS[name], w, seed, data, work)


def scenario_config(w, seed: int):
    from causalpanel import simgen

    p = workloads.scenario_payload(w, seed)
    shift = p["persona_shift"]
    return simgen.ScenarioConfig(
        units=tuple(simgen.UnitConfig(**u) for u in p["units"]),
        start=workloads.START,
        n_days=w.n_days,
        treatment=simgen.TreatmentConfig(
            w.treated, w.activation, effect_hours=w.effect_hours
        ),
        donor_mixture=w.donor_mixture,
        noise_sigma=w.noise_sigma,
        persona_devices=w.persona_devices,
        persona_noise=p["persona_noise"],
        persona_shift=simgen.PersonaShiftConfig(
            w.shift_date, shift["from_persona"], shift["to_persona"], shift["fraction"]
        ),
        seed=seed,
    )


def layer_pass(w, seed: int, out_dir: str, tracer, cli_data: str) -> dict:
    """One pass over every layer's public functions. Returns the counts.
    Raises on a failed call or a result that disagrees with the ground
    truth; ``cli_data`` holds the files the CLI's ``simulate`` wrote, which
    this pass must reproduce byte for byte."""
    import numpy as np

    from causalpanel import changepoint, did, paneldata, panelio, persona, simgen, synthcontrol
    from causalpanel.errors import ConvergenceWarning

    span = tracer.span
    counts: dict[str, float] = {}
    config = scenario_config(w, seed)

    with span("simgen.generate"):
        simgen.generate(config)
    with span("simgen.write_scenario"):
        paths = simgen.write_scenario(config, out_dir)
    for key, path in paths.items():
        with open(path, "rb") as ours, open(
            os.path.join(cli_data, os.path.basename(path)), "rb"
        ) as theirs:
            if ours.read() != theirs.read():
                raise workloads.CheckFailed(f"write_scenario {key} differs from simulate's")
    counts["simgen.rows_written"] = sum(
        csv_rows(p) for p in paths.values() if p.endswith(".csv")
    )
    counts["simgen.bytes_written"] = sum(os.path.getsize(p) for p in paths.values())

    with span("panelio.parse_policy"):
        timelines = panelio.parse_policy_csv(paths["policy"], simgen.DEFAULT_INDICATOR)
    with span("panelio.parse_telemetry"):
        telemetry = panelio.parse_telemetry_csv(paths["telemetry"])
    with span("panelio.parse_persona"):
        usage = panelio.parse_persona_csv(paths["persona"])

    with span("paneldata.aggregate"):
        panel = paneldata.aggregate_telemetry(telemetry)
    with span("paneldata.merge"):
        panel = paneldata.merge_panels(panel, timelines)
    counts["paneldata.cells"] = panel.n_units * panel.n_dates
    counts["paneldata.masked_cells"] = int(panel.missing_mask.sum())

    panel_path = os.path.join(out_dir, "panel.txt")
    with span("panelio.write_panel"):
        panelio.write_panel(panel, panel_path)
    with span("panelio.read_panel"):
        panel = panelio.read_panel(panel_path)
    counts["panelio.rows_parsed"] = (
        sum(len(t.dates) for t in timelines) + len(telemetry) + len(usage)
    )
    counts["panelio.bytes_read"] = sum(
        os.path.getsize(p)
        for p in (paths["policy"], paths["telemetry"], paths["persona"], panel_path)
    )

    truth = w.effect_hours
    spec = did.DidSpec(frozenset({w.treated}), frozenset(w.controls), w.activation)
    with span("did.fit"):
        fit = did.fit_did(panel, spec)
    with span("did.trends"):
        did.parallel_trends_diagnostic(panel, spec)
    workloads.check_effect("fit_did", fit.beta0, truth)
    counts["did.n_obs"] = fit.n_obs

    sspec = synthcontrol.SynthSpec(w.treated, w.donors, w.activation)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConvergenceWarning)
        with span("synthcontrol.fit_synth"):
            sfit = synthcontrol.fit_synth(panel, sspec)
        with span("synthcontrol.placebo"):
            synthcontrol.randomization_inference(panel, sspec, sfit)
    post = panel.date_index(w.activation)
    workloads.check_effect("fit_synth", float(np.nanmean(sfit.gap[post:])), truth)
    fits = 1 + len(w.donors)
    nonconverged = sum(issubclass(c.category, ConvergenceWarning) for c in caught)
    counts["synthcontrol.fits"] = fits
    counts["synthcontrol.nonconverged_fits"] = nonconverged
    counts["synthcontrol.converged_ratio"] = (fits - nonconverged) / fits
    counts["synthcontrol.pre_rmse"] = sfit.pre_rmse

    donor_rows = [panel.unit_index(u) for u in sorted(w.donors)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        with span("synthcontrol.fit_weights"):
            *_, path = synthcontrol.fit_weights(
                panel.outcomes[panel.unit_index(w.treated), :post],
                panel.outcomes[donor_rows, :post].T,
                return_objectives=True,
            )
    counts["synthcontrol.iterations"] = len(path) - 1

    if w.series_len:
        series = np.asarray(workloads.series_values(w, seed))
    else:
        series = panel.unit_series(w.treated)[0]
    with span("changepoint.detect"):
        seg = changepoint.detect_penalized(series, changepoint.PenaltyConfig(kind="bic"))
    workloads.check_breakpoints(
        list(seg.breakpoints), list(seg.segment_means),
        workloads.expected_cpd_breakpoints(w, seed), workloads.smallest_cpd_step(w),
    )
    counts["changepoint.series_len"] = len(series)
    counts["changepoint.k_max"] = changepoint.DEFAULT_K_MAX

    by_device: dict[str, list] = {}
    for r in usage:
        if r.window_start < w.shift_date:
            by_device.setdefault(r.device_id, []).append(r)
    vectors = [
        persona.UsageFeatureVector(
            device,
            rows[0].window_start,
            {n: float(np.mean([r.features[n] for r in rows])) for n in sorted(rows[0].features)},
        )
        for device, rows in sorted(by_device.items())
    ]
    with span("persona.fit_kmeans"):
        model, history = persona.fit_kmeans(vectors, k=persona.DEFAULT_K, seed=0, return_history=True)
    model = persona.rename_personas(model, persona.CATEGORY_TO_PERSONA)
    with span("persona.windowed_counts"):
        pseries = persona.windowed_counts(
            usage, model, workloads.WINDOW_WIDTH_DAYS, workloads.WINDOW_STRIDE_DAYS
        )
    with span("persona.changepoint"):
        cps = persona.persona_changepoint(pseries)
    row, col = np.unravel_index(int(np.argmax(pseries.zscores)), pseries.zscores.shape)
    workloads.check_persona_shift(
        w,
        (pseries.window_starts[row + 1].isoformat(), pseries.persona_names[col]),
        [pseries.window_starts[b + 1].isoformat() for b in cps[workloads.SHIFT_TO].breakpoints],
    )
    counts["persona.records"] = len(usage)
    counts["persona.devices"] = len({r.device_id for r in usage})
    counts["persona.windows"] = len(pseries.window_starts)
    counts["persona.kmeans_iterations"] = len(history)
    return counts


def traced(w, seed: int, seconds: float, run_dir: str, tally: Tally) -> tuple[dict, dict]:
    begin = time.perf_counter()
    log_path = os.path.join(run_dir, "commands.log")
    info = probe(run_dir, log_path)
    import_s, modules = import_cost(run_dir)

    sys.path.insert(0, SRC)
    from causalpanel import cli

    tracer = Tracer()
    with tracer.span("perfbench.cli_pass"):
        cli_pass(cli, w, seed, os.path.join(run_dir, "cli"), tracer, tally, log_path)
    cli_data = os.path.join(run_dir, "cli", "data")

    traced_passes, overheads, counts = [], [], []
    while True:
        # Alternate which side runs first, so that what one pass leaves
        # behind for the next (garbage, page cache) cancels over a pair of
        # pairs; hence at least two pairs.
        order = [("untraced", NullTracer()), ("traced", tracer)]
        if len(overheads) % 2:
            order.reverse()
        walls = {}
        for label, t in order:
            out_dir = os.path.join(run_dir, f"{label}{len(overheads)}")
            first_span = len(tracer.spans)
            start = time.perf_counter()
            try:
                with t.span("perfbench.layer_pass"):
                    pass_counts = layer_pass(w, seed, out_dir, t, cli_data)
                walls[label] = time.perf_counter() - start
            except Exception as err:  # a failed call or check ends the pass
                tally.record(f"{label} layer pass", f"{type(err).__name__}: {err}")
                break
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            tally.record(f"{label} layer pass", None)
            if label == "traced":
                traced_passes.append(tracer.spans[first_span:])
                counts.append(pass_counts)
        if len(walls) < 2:
            break
        overheads.append(walls["traced"] - walls["untraced"])
        elapsed = time.perf_counter() - begin
        if len(overheads) >= MIN_PAIRS and elapsed + sum(walls.values()) > seconds:
            break

    shutil.rmtree(os.path.join(run_dir, "cli"), ignore_errors=True)
    differ = any(c != counts[0] for c in counts)
    tally.record("layer counts", f"counts differ between passes: {counts}" if differ else None)

    values: dict[str, float] = {"cli.import_s": import_s, "cli.modules_loaded": modules}
    for s in tracer.spans:
        if s.name.startswith("cli.main."):
            values[f"{s.name}_s"] = s.duration
    for name in LAYER_UNITS:
        span_name = name[:-2]
        samples = [s.duration for p in traced_passes for s in p if s.name == span_name]
        if name not in values and samples:
            values[name] = statistics.median(samples)
    if counts:
        values.update(counts[0])
    if overheads:
        values["trace.overhead_s"] = statistics.median(overheads)
    missing = [n for n in LAYER_UNITS if n not in values]
    tally.record("layer metrics", f"not measured: {missing}" if missing else None)

    with open(os.path.join(run_dir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump({**tracer.to_json(), "overhead_samples_s": overheads}, fh, indent=1)
        fh.write("\n")
    metrics = {
        n: {"value": values[n], "unit": unit} for n, unit in LAYER_UNITS.items() if n in values
    }
    return metrics, {"machine": machine_record(info), "layer_passes": len(traced_passes)}
