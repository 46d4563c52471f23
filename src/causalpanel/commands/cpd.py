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

    opts = _options(args, {"series": None, "panel": None, "unit": None, "lam": None})
    # every flag is checked before an input file is opened
    if bool(opts.series) == bool(opts.panel):
        raise ValidationError("cpd needs exactly one of --series or --panel")
    if opts.series and opts.unit is not None:
        raise ValidationError("--unit requires --panel: a series file holds one series")
    penalty = PenaltyConfig(kind="bic" if opts.lam is None else "manual", lam=opts.lam)
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
    if len(series) < 2:
        source = opts.series or f"unit {opts.unit!r} of {opts.panel}"
        raise ValidationError(
            f"need at least 2 points to segment; {source} has {len(series)}"
        )

    seg = detect_penalized(series, penalty)
    lam_eff = effective_penalty(series, penalty)
    if seg.k > DEFAULT_K_MAX:
        raise ValidationError(
            f"the optimal segmentation has {seg.k} segments at penalty "
            f"lambda_eff={lam_eff:.6g}, more than the {DEFAULT_K_MAX} cpd reports; "
            "raise --lam"
        )

    def bp_date(b: int) -> str | None:
        return dates[b].isoformat() if dates is not None else None

    summary = (
        f"{seg.k} segment{'s' if seg.k != 1 else ''}, "
        f"{len(seg.breakpoints)} breakpoint{'s' if len(seg.breakpoints) != 1 else ''}"
    )
    payload = {
        "estimator": "cpd",
        "penalty": penalty.kind,
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
