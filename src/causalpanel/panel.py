"""The panel type and its file: :class:`PanelDataset`, an aligned
(unit x date) outcome panel, and ``panel.txt``, the self-describing text
format that :func:`write_panel` writes and :func:`read_panel` reads.

A panel file is a magic line, a header naming the outcome, then
tab-separated sections (``outcomes``, ``covariates``, ``tags``,
``codes``), each a header row and one row per unit, with masked cells
written as the sentinel ``NA``.

``did``, ``synth`` and ``cpd --panel`` read a panel and no other input
file, so this module holds what they run and no more: no CSV
reader or writer (:mod:`causalpanel.panelio`,
:mod:`causalpanel.csvwrite`) and no aggregation
(:mod:`causalpanel.paneldata`, which builds panels from telemetry).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from datetime import date, timedelta
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import ParseError, SchemaError, ValidationError
from .files import parse_date
from .textio import _float_cells, _opened

if TYPE_CHECKING:
    from .paneldata import PolicyTimeline

POLICY_CODES = (0, 1, 2, 3)
# The parts of a composite unit label such as "CHN|Notebook|i7" that name
# a chassis or a CPU family.
CHASSIS_TYPES = frozenset({"Notebook", "Desktop", "TwoInOne", "NUC"})
CPU_FAMILIES = frozenset({"i3", "i5", "i7", "i9", "Other"})

SYSTEM_COUNT = "system_count"

PANEL_MAGIC = "#causalpanel-panel v1"
NA = "NA"


def _check_contiguous(dates: Sequence[date], context: str) -> None:
    for prev, cur in zip(dates, dates[1:]):
        if cur <= prev:
            raise ValidationError(f"{context}: dates not strictly increasing at {cur}")
        if cur - prev != timedelta(days=1):
            raise ValidationError(
                f"{context}: calendar gap between {prev} and {cur}"
            )


def _equal_fields(self, other) -> bool:
    """Field-by-field equality of two instances of one dataclass, arrays
    bitwise: the ``__eq__`` of the classes that hold arrays."""
    if type(other) is not type(self):
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    return all(
        a.tobytes() == b.tobytes() if isinstance(a, np.ndarray) else a == b for a, b in pairs
    )


def _frozen_array(values, dtype) -> np.ndarray:
    """A read-only view of ``values`` as ``dtype``: no copy is made when
    the dtype already matches, and the caller's own array stays writable."""
    arr = np.asarray(values, dtype=dtype).view()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PanelDataset:
    """Aligned (unit x date) outcome panel with per-unit covariates.

    ``missing_mask`` is True where a cell has no observation; masked cells
    are never interpolated and every estimator must honour the mask.
    ``unit_tags`` holds categorical per-unit labels (e.g. continent).
    ``policy_codes`` is attached by :func:`~causalpanel.paneldata.merge_panels`:
    a code of ``POLICY_CODES`` per cell, or -1 where no code is known.
    """

    unit_ids: tuple[str, ...]
    dates: tuple[date, ...]
    outcomes: np.ndarray
    missing_mask: np.ndarray
    outcome_name: str = "usage_hours"
    covariates: np.ndarray | None = None
    covariate_names: tuple[str, ...] = ()
    unit_tags: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    policy_codes: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "unit_ids", tuple(self.unit_ids))
        object.__setattr__(self, "dates", tuple(self.dates))
        out = _frozen_array(self.outcomes, float)
        mask = _frozen_array(self.missing_mask, bool)
        object.__setattr__(self, "outcomes", out)
        object.__setattr__(self, "missing_mask", mask)
        shape = (len(self.unit_ids), len(self.dates))
        if out.shape != shape or mask.shape != shape:
            raise ValidationError(
                f"panel shape mismatch: outcomes {out.shape}, mask {mask.shape}, "
                f"expected {shape}"
            )
        if len(set(self.unit_ids)) != len(self.unit_ids):
            raise ValidationError("panel unit ids not unique")
        _check_contiguous(self.dates, "panel")
        bad = np.argwhere(~(np.isfinite(out) | mask))
        if bad.size:
            i, j = bad[0]
            where = f"unit {self.unit_ids[i]!r} on {self.dates[j]}"
            raise ValidationError(f"panel has an unmasked non-finite outcome for {where}")
        if self.covariates is not None:
            cov = _frozen_array(self.covariates, float)
            object.__setattr__(self, "covariates", cov)
            if cov.shape != (len(self.unit_ids), len(self.covariate_names)):
                raise ValidationError(
                    f"covariate matrix {cov.shape} does not match "
                    f"{len(self.unit_ids)} units x {len(self.covariate_names)} names"
                )
            bad = np.argwhere(~np.isfinite(cov))
            if bad.size:
                i, c = bad[0]
                raise ValidationError(
                    f"covariate {self.covariate_names[c]!r} is non-finite "
                    f"for unit {self.unit_ids[i]!r}"
                )
        elif self.covariate_names:
            raise ValidationError("covariate names given without a matrix")
        object.__setattr__(
            self,
            "unit_tags",
            {k: tuple(v) for k, v in dict(self.unit_tags).items()},
        )
        for name, levels in self.unit_tags.items():
            if len(levels) != len(self.unit_ids):
                raise ValidationError(
                    f"tag {name!r} has {len(levels)} entries for "
                    f"{len(self.unit_ids)} units"
                )
        if self.policy_codes is not None:
            # checked before the cast to int64, which would truncate a
            # fraction and cannot hold every int
            codes = np.asarray(self.policy_codes)
            if codes.shape != shape:
                raise ValidationError("policy code matrix shape mismatch")
            bad = np.argwhere(~np.isin(codes, (*POLICY_CODES, -1)))
            if bad.size:
                i, j = bad[0]
                raise ValidationError(
                    f"panel has a policy code {codes[i, j]} outside 0..3 for "
                    f"unit {self.unit_ids[i]!r} on {self.dates[j]}"
                )
            object.__setattr__(self, "policy_codes", _frozen_array(codes, np.int64))

    @property
    def n_units(self) -> int:
        return len(self.unit_ids)

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    def unit_index(self, unit_id: str) -> int:
        try:
            return self.unit_ids.index(unit_id)
        except ValueError:
            raise ValidationError(f"unit {unit_id!r} not in panel") from None

    def date_index(self, day: date) -> int:
        idx = (day - self.dates[0]).days
        if idx < 0 or idx >= len(self.dates):
            raise ValidationError(
                f"date {day} outside panel range {self.dates[0]}..{self.dates[-1]}"
            )
        return idx

    def unit_series(self, unit_id: str) -> tuple[np.ndarray, np.ndarray]:
        """Return (values, missing_mask) rows for one unit."""
        i = self.unit_index(unit_id)
        return self.outcomes[i], self.missing_mask[i]

    def covariate(self, name: str) -> np.ndarray:
        if name not in self.covariate_names:
            raise SchemaError(f"covariate {name!r} not in panel")
        return self.covariates[:, self.covariate_names.index(name)]

    def timeline(self, unit_id: str) -> PolicyTimeline | None:
        """The attached policy series of one unit, if merged."""
        from .paneldata import PolicyTimeline

        if self.policy_codes is None:
            return None
        codes = self.policy_codes[self.unit_index(unit_id)]
        if (codes < 0).any():
            return None
        return PolicyTimeline(unit_id, self.dates[0], codes)


def write_panel(panel: PanelDataset, target) -> None:
    """Write a panel in the self-describing interchange format."""
    for u in panel.unit_ids:
        if "\t" in u:
            raise ValidationError(f"unit id {u!r} contains a tab")
    with _opened(target, "w") as stream:
        w = stream.write
        w(PANEL_MAGIC + "\n")
        w(f"#outcome {panel.outcome_name}\n")
        date_header = "\t".join(["unit"] + [d.isoformat() for d in panel.dates]) + "\n"
        w("#section outcomes\n" + date_header)
        for i, u in enumerate(panel.unit_ids):
            cells = _float_cells(panel.outcomes[i])
            for j in np.flatnonzero(panel.missing_mask[i]).tolist():
                cells[j] = NA
            w("\t".join([u] + cells) + "\n")
        if panel.covariates is not None and panel.covariate_names:
            w("#section covariates\n")
            w("\t".join(["unit"] + list(panel.covariate_names)) + "\n")
            for i, u in enumerate(panel.unit_ids):
                w("\t".join([u] + _float_cells(panel.covariates[i])) + "\n")
        if panel.unit_tags:
            names = sorted(panel.unit_tags)
            w("#section tags\n")
            w("\t".join(["unit"] + names) + "\n")
            for i, u in enumerate(panel.unit_ids):
                w("\t".join([u] + [panel.unit_tags[n][i] for n in names]) + "\n")
        if panel.policy_codes is not None:
            w("#section codes\n" + date_header)
            for i, u in enumerate(panel.unit_ids):
                cells = [NA if c < 0 else str(c) for c in panel.policy_codes[i].tolist()]
                w("\t".join([u] + cells) + "\n")


def read_panel(source) -> PanelDataset:
    """Read a panel written by :func:`write_panel`. A section header that
    comes twice, or a second row for a unit in one section, is a parse
    error naming it."""
    with _opened(source) as stream:
        lines = stream.read().splitlines()
    if not lines or lines[0] != PANEL_MAGIC:
        raise ParseError("not a panel file (missing magic header)")
    if len(lines) < 2 or not lines[1].startswith("#outcome "):
        raise ParseError("panel file missing #outcome header")

    sections: dict[str, list[list[str]]] = {}
    current: list[list[str]] | None = None
    for lineno, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        if line.startswith("#section "):
            name = line[len("#section ") :].strip()
            if name in sections:
                raise ParseError(f"line {lineno}: a second '#section {name}' header")
            current = sections[name] = []
        elif current is None:
            raise ParseError(f"line {lineno}: content outside any section")
        else:
            current.append(line.split("\t"))
    if not sections.get("outcomes"):
        raise ParseError("panel file has no outcomes section")

    header, *body = sections["outcomes"]
    try:
        dates = tuple(map(parse_date, header[1:]))
    except ValueError:
        raise ParseError("outcomes section: malformed date header") from None
    units, outcomes = [], []
    for u, *cells in body:
        if len(cells) != len(dates):
            raise ParseError(f"outcomes row for {u!r}: {len(cells)} cells for {len(dates)} dates")
        units.append(u)
        outcomes.append([0.0 if c == NA else _parse_number(c, "outcomes", u) for c in cells])
    _one_row_each("outcomes", units)
    mask = np.array([[c == NA for c in row[1:]] for row in body], dtype=bool)

    def unit_rows(kind: str) -> tuple[list[str], list[list[str]] | None]:
        """Column names and one row of cells per unit, in outcome order; no
        names and None where the file has no such section or its header only."""
        if len(sections.get(kind, ())) < 2:
            return [], None
        header, *body = sections[kind]
        _one_row_each(kind, [row[0] for row in body])
        by_unit = {row[0]: row[1:] for row in body}
        for u in units:
            if u not in by_unit:
                raise ParseError(f"{kind} section has no row for unit {u!r}")
            if len(by_unit[u]) != len(header) - 1:
                raise ParseError(
                    f"{kind} row for {u!r}: {len(by_unit[u])} cells for "
                    f"{len(header) - 1} columns"
                )
        return header[1:], [by_unit[u] for u in units]

    names, rows = unit_rows("covariates")
    covariates = None if rows is None else np.array(
        [[_parse_number(c, "covariates", u) for c in row] for u, row in zip(units, rows)]
    )
    tag_names, tag_rows = unit_rows("tags")
    tags = {name: tuple(row[k] for row in tag_rows) for k, name in enumerate(tag_names)}
    code_dates, code_rows = unit_rows("codes")
    if code_rows is not None and code_dates != header[1:]:
        raise ParseError("codes section: date header differs from the outcomes'")
    # Python ints: PanelDataset checks their range before it casts them
    codes = None if code_rows is None else [
        [-1 if c == NA else _parse_code(c, u, day) for c, day in zip(row, dates)]
        for u, row in zip(units, code_rows)
    ]
    return PanelDataset(
        unit_ids=tuple(units),
        dates=dates,
        outcomes=np.array(outcomes),
        missing_mask=mask,
        outcome_name=lines[1][len("#outcome ") :].strip(),
        covariates=covariates,
        covariate_names=tuple(names),
        unit_tags=tags,
        policy_codes=codes,
    )


def _one_row_each(section: str, units: Sequence[str]) -> None:
    """A parse error naming the first unit that has a second row in
    ``section``."""
    seen = set()
    for u in units:
        if u in seen:
            raise ParseError(f"{section} section has a second row for unit {u!r}")
        seen.add(u)


def _parse_number(token: str, section: str, unit: str, kind=float):
    try:
        return kind(token)
    except ValueError:
        raise ParseError(f"{section} row for {unit!r}: bad number {token!r}") from None


def _parse_code(token: str, unit: str, day: date) -> int:
    """A ``codes`` cell other than ``NA``. A negative one is out of range
    here, -1 too: -1 is the panel's "no code", which the file writes NA."""
    code = _parse_number(token, "codes", unit, int)
    if code < 0:
        raise ValidationError(
            f"panel has a policy code {code} outside 0..3 for unit {unit!r} on {day}"
        )
    return code
