"""``simulate``: generate a scenario's input tables and its ground truth."""

from __future__ import annotations

import os
import sys

from ..cli import EXIT_OK, log
from ..files import committed
from . import _decode, _load, _options, _read_json


def cmd_simulate(args, config) -> int:
    from dataclasses import replace

    from ..paneldata import DEFAULT_INDICATOR
    from ..simgen import ScenarioConfig, describe, stage_scenario

    opts = _options(args, config, {"seed": None, "indicator": DEFAULT_INDICATOR})
    scenario = _decode(_load(_read_json, args.scenario), ScenarioConfig, args.scenario)
    if opts.seed is not None:
        scenario = replace(scenario, seed=opts.seed)
    with committed() as files:
        paths, manifest = stage_scenario(files, scenario, opts.out, opts.indicator)
        paths["truth"] = os.path.join(opts.out, "truth.txt")
        files.open(paths["truth"]).write(describe(manifest))
    for key in sorted(paths):
        log.info("scenario file %s -> %s", key, paths[key])
    sys.stdout.write(describe(manifest))
    return EXIT_OK
