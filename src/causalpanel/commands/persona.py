"""``persona``: personas from usage rows, their windowed counts and change points."""

from __future__ import annotations

from ..cli import EXIT_OK, log
from ..errors import ValidationError
from . import _csv_text, _emit, _iso_date, _json_text, _load, _options


def cmd_persona(args) -> int:
    from ..panelio import parse_persona_csv
    from ..persona import (
        CATEGORY_TO_PERSONA,
        DEFAULT_FEATURE_CATEGORIES,
        WINDOW_STRIDE,
        WINDOW_WIDTH,
        device_means,
        fit_kmeans,
        persona_changepoint,
        rename_personas,
        windowed_counts,
    )

    opts = _options(
        args, {"width": WINDOW_WIDTH, "stride": WINDOW_STRIDE, "fit_until": None}
    )
    # every flag is checked before the records are read
    for flag, value in (("--width", opts.width), ("--stride", opts.stride)):
        if value < 1:
            raise ValidationError(f"{flag} must be >= 1, got {value}")
    fit_until = opts.fit_until and _iso_date(opts.fit_until, "--fit-until")
    records = _load(parse_persona_csv, args.records)
    log.info("parsed %d persona usage row(s)", len(records))
    if not len(records):
        raise ValidationError(f"{args.records}: no usage rows after the header")

    # the personas are fitted on the rows before --fit-until, else on all
    fit_rows = None
    if fit_until:
        fit_rows = records.day < fit_until.toordinal()
    try:
        means = device_means(records, where=fit_rows)
        if not len(means):
            raise ValidationError("no usage rows before --fit-until to fit on")
        model = fit_kmeans(means)  # DEFAULT_K personas, first center from seed 0
        if set(model.feature_names) == set(DEFAULT_FEATURE_CATEGORIES):
            model = rename_personas(model, CATEGORY_TO_PERSONA)
        series = windowed_counts(records, model, width=opts.width, stride=opts.stride)
    except ValidationError as err:
        raise type(err)(f"{args.records}: {err}") from None

    payload = {
        "estimator": "persona",
        "k": model.k,
        "seed": 0,
        "persona_names": list(model.persona_names),
        "feature_names": list(model.feature_names),
        "centroids": [[float(v) for v in row] for row in model.centroids],
        "windows": [d.isoformat() for d in series.window_starts],
    }
    names = list(series.persona_names)
    count_rows = [
        [d.isoformat()] + [int(c) for c in series.counts[w]]
        for w, d in enumerate(series.window_starts)
    ]
    z_rows = [
        [series.window_starts[w + 1].isoformat()]
        + [float(z) for z in series.zscores[w]]
        for w in range(series.zscores.shape[0])
    ]
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
    path = _emit(
        opts.out,
        {
            "persona_model.json": _json_text(payload),
            "persona_counts.csv": _csv_text(["window_start"] + names, count_rows),
            "persona_zscores.csv": _csv_text(["transition_into"] + names, z_rows),
            "persona_changepoints.json": _json_text(changepoints),
        },
    )

    print(
        f"persona: {model.k} personas, {len(series.window_starts)} windows "
        f"-> {path}"
    )
    return EXIT_OK
