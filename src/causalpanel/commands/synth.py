"""``synth``: synthetic control on a panel file, with placebo inference."""

from __future__ import annotations

from ..cli import EXIT_OK, log
from . import (
    _csv_text,
    _emit,
    _grid_labels,
    _iso_date,
    _json_text,
    _load,
    _mean_system_count,
    _options,
    _split_list,
)


def cmd_synth(args, config) -> int:
    import numpy as np

    from ..panel import read_panel
    from ..synthcontrol import (
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
            "max_iterations": DEFAULT_MAX_ITERATIONS,
            "tolerance": DEFAULT_TOLERANCE,
            "placebo": False,
        },
    )
    panel = _load(read_panel, args.panel)
    spec = SynthSpec(
        treated_unit=args.treated,
        donor_units=tuple(_split_list(args.donors)),
        treatment_date=_iso_date(args.treatment_date, "--treatment-date"),
        max_iterations=opts.max_iterations,
        tolerance=opts.tolerance,
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
    actual, _ = panel.unit_series(spec.treated_unit)
    rows = [
        [d.isoformat(), float(a), float(c), float(g)]
        for d, a, c, g in zip(panel.dates, actual, fit.counterfactual, fit.gap)
    ]
    texts = {
        "synth.json": _json_text(payload),
        "synth_plot.csv": _csv_text(["date", "actual", "counterfactual", "gap"], rows),
    }

    if placebo_gaps is not None:
        donors = [d for d in sorted(placebo_gaps) if placebo_gaps[d] is not None]
        rows = [
            [d.isoformat(), float(fit.gap[j])] + [float(placebo_gaps[u][j]) for u in donors]
            for j, d in enumerate(panel.dates)
        ]
        texts["synth_placebo.csv"] = _csv_text(["date", "treated"] + donors, rows)
    # without --placebo, an earlier run's placebo gaps would sit beside this fit
    path = _emit(opts.out, texts, stale=() if opts.placebo else ("synth_placebo.csv",))

    ptxt = "n/a" if p_value is None else f"{p_value:.4g}"
    print(
        f"synth: pre_rmse={fit.pre_rmse:.4g} effect={effect:.6f} "
        f"p={ptxt} -> {path}"
    )
    return EXIT_OK
