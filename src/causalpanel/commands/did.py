"""``did``: difference-in-differences on a panel file, with the pre-trend check."""

from __future__ import annotations

from ..cli import EXIT_OK
from ..errors import DiagnosticUnavailableError
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


def cmd_did(args) -> int:
    from ..did import DidSpec, fit_did, parallel_trends_diagnostic
    from ..panel import read_panel

    opts = _options(args, {})
    spec = DidSpec(
        treated_units=frozenset(_split_list(args.treated)),
        control_units=frozenset(_split_list(args.control)),
        treatment_date=_iso_date(args.treatment_date, "--treatment-date"),
    )
    panel = _load(read_panel, args.panel)
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
        "beta0": fit.beta0,
        "stderr_beta0": fit.stderr_beta0,
        "p_value": fit.p_value,
        "confidence_interval": list(fit.confidence_interval),
        "n_obs": fit.n_obs,
        "parallel_trends": trends,
        "effect": fit.beta0,
        "chassis": chassis,
        "cpu_family": family,
        "system_count": _mean_system_count(panel, treated),
    }
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
    path = _emit(
        opts.out, {"did.json": _json_text(payload), "did_plot.csv": _csv_text(header, rows)}
    )
    print(
        f"did: beta0={fit.beta0:.6f} stderr={fit.stderr_beta0:.6g} "
        f"p={fit.p_value:.3g} -> {path}"
    )
    return EXIT_OK
