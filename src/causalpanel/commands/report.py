"""``report``: one table of the effects in estimation artifacts."""

from __future__ import annotations

from ..cli import EXIT_OK
from ..errors import ValidationError
from . import _decode, _emit, _json_text, _load, _options, _read_json


# The keys report reads from an artifact, with their kinds: required, then optional.
_REPORT_KEYS = {"estimator": str, "outcome": str, "effect": float, "p_value": float | None}
_REPORT_OPTIONAL = {"system_count": float | None, "chassis": str, "cpu_family": str}


def cmd_report(args) -> int:
    opts = _options(args, {})
    if not args.artifacts:
        raise ValidationError("report needs at least one artifact file")
    rows = []
    outcomes = set()
    for path in args.artifacts:
        payload = _decode(_load(_read_json, path), dict, path)
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
    text = _json_text({"outcome": outcomes.pop(), "rows": [dict(zip(header, r)) for r in rows]})
    path = _emit(opts.out, {"report.json": text})
    print(f"report: {len(rows)} row(s) -> {path}")
    return EXIT_OK
