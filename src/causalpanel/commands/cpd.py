"""``cpd``: change points in a series file or in one unit's panel row."""

from __future__ import annotations

from ..cli import EXIT_OK
from ..errors import ValidationError
from . import _csv_text, _emit, _json_text, _load, _options


def cmd_cpd(args) -> int:
    from ..changepoint import (
        DEFAULT_K_MAX,
        PenaltyConfig,
        detect_penalized,
        effective_penalty,
    )

    opts = _options(
        args,
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
    # every flag is checked before an input file is opened
    if bool(opts.series) == bool(opts.panel):
        raise ValidationError("cpd needs exactly one of --series or --panel")
    if opts.k_max < 1:
        raise ValidationError(f"k_max (cpd --k-max) must be at least 1, got {opts.k_max}")
    # a setting the chosen penalty does not read is refused, not ignored
    unread = {"bic": ("--lam", opts.lam), "manual": ("--noise-scale", opts.noise_scale)}
    flag, value = unread[opts.penalty]
    if value is not None:
        raise ValidationError(f"the {opts.penalty} penalty does not read {flag}")
    penalty = PenaltyConfig(
        kind=opts.penalty, lam=opts.lam, noise_scale=opts.noise_scale
    )
    if opts.panel:
        from ..panel import read_panel

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
        from ..panelio import parse_series_csv

        series, dates = _load(parse_series_csv, opts.series)

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
    fitted = seg.fitted()
    rows = []
    for i, (v, m) in enumerate(zip(series, fitted)):
        label = dates[i].isoformat() if dates is not None else i
        rows.append([label, float(v), float(m)])
    header = ["date" if dates is not None else "index", "value", "segment_mean"]
    path = _emit(
        opts.out, {"cpd.json": _json_text(payload), "cpd_plot.csv": _csv_text(header, rows)}
    )
    print(f"cpd: {summary} (lambda_eff={lam_eff:.6g}) -> {path}")
    return EXIT_OK
