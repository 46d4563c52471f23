"""``ingest``: read the policy, telemetry and units tables into ``panel.txt``."""

from __future__ import annotations

import os

from ..cli import EXIT_OK, log
from ..errors import SchemaError, ValidationError
from . import _load, _options, _split_list


def cmd_ingest(args) -> int:
    from dataclasses import replace

    from ..paneldata import (
        DEFAULT_INDICATOR, aggregate_telemetry, check_outcome, group_fields, merge_panels
    )
    from ..panel import write_panel
    from ..panelio import parse_policy_csv, parse_telemetry_csv, parse_units_csv

    opts = _options(
        args,
        {
            "indicator": DEFAULT_INDICATOR,
            "group_by": "unit_id",
            "outcome": "usage_hours",
            "units": None,
        },
    )
    # every flag is checked before an input file is opened
    group_by = _split_list(opts.group_by)
    for flag, check, value in (
        ("--group-by", group_fields, group_by), ("--outcome", check_outcome, opts.outcome)
    ):
        try:
            check(value)
        except SchemaError as err:
            raise SchemaError(f"{flag}: {err}") from None
    if "unit_id" not in group_by:
        raise ValidationError(
            f"--group-by {opts.group_by!r} lacks unit_id, by which policy timelines are merged"
        )
    timelines = _load(parse_policy_csv, args.policy, opts.indicator)
    log.info("parsed %d policy timeline(s)", len(timelines))
    records = _load(parse_telemetry_csv, args.telemetry)
    log.info("parsed %d telemetry row(s)", len(records))

    panel = aggregate_telemetry(records, group_by=group_by, outcome=opts.outcome)
    panel = merge_panels(panel, timelines)

    if opts.units:
        continents = _load(parse_units_csv, opts.units)

        def continent_of(unit: str) -> str:
            return continents.get(unit, continents.get(unit.split("|", 1)[0], ""))

        panel = replace(panel, continent=[continent_of(u) for u in panel.unit_ids])

    path = os.path.join(opts.out, "panel.txt")
    write_panel(panel, path)  # a commit of one file
    log.info("wrote %s", path)
    print(
        f"ingest: {panel.n_units} unit(s) x {panel.n_dates} day(s) "
        f"[{panel.dates[0]}..{panel.dates[-1]}] -> {path}"
    )
    return EXIT_OK
