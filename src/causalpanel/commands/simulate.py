"""``simulate``: generate a scenario's input tables and its ground truth."""

from __future__ import annotations

import os
import sys

from ..cli import EXIT_OK, log
from ..files import committed
from . import _decode, _load, _options, _read_json


def cmd_simulate(args) -> int:
    from ..simgen import ScenarioConfig, describe, stage_scenario

    opts = _options(args, {})
    scenario = _decode(_load(_read_json, args.scenario), ScenarioConfig, args.scenario)
    with committed() as files:
        paths, manifest = stage_scenario(files, scenario, opts.out)
        paths["truth"] = os.path.join(opts.out, "truth.txt")
        files.open(paths["truth"]).write(describe(manifest))
    for key in sorted(paths):
        log.info("scenario file %s -> %s", key, paths[key])
    sys.stdout.write(describe(manifest))
    return EXIT_OK
