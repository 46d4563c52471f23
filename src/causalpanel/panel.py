"""The panel type and its file: :class:`PanelDataset`, an aligned
(unit x date) outcome panel, and ``panel.txt``, the text format that
:func:`write_panel` writes and :func:`read_panel` reads.

A panel file is a magic line, a header naming the outcome, then up to
four tab-separated sections in this order, each a header row and one row
per unit:

* ``outcomes`` (header ``unit`` and the dates): masked cells are ``NA``;
* ``covariates`` (header exactly ``unit``, ``system_count``);
* ``tags`` (header exactly ``unit``, ``continent``);
* ``codes`` (the outcomes' header): one policy code of 0..3 per cell.

Only ``outcomes`` is required; the others are written when the panel
holds them. The reader accepts this layout and nothing else: another
section, a section out of order, another header, or an ``NA`` code is
an error naming the line, section or unit.

``did``, ``synth`` and ``cpd --panel`` read a panel and no other input
file, so this module holds what they run and no more: no CSV
reader or writer (:mod:`causalpanel.panelio`,
:mod:`causalpanel.csvwrite`) and no aggregation
(:mod:`causalpanel.paneldata`, which builds panels from telemetry).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from datetime import date, timedelta
from typing import Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .files import parse_date
from .textio import _opened

POLICY_CODES = (0, 1, 2, 3)
# The parts of a composite unit label such as "CHN|Notebook|i7" that name
# a chassis or a CPU family.
CHASSIS_TYPES = frozenset({"Notebook", "Desktop", "TwoInOne", "NUC"})
CPU_FAMILIES = frozenset({"i3", "i5", "i7", "i9", "Other"})

PANEL_MAGIC = "#causalpanel-panel v1"
NA = "NA"
# A panel file's sections in the order they come, and the fixed header of
# each per-unit one; the codes section repeats the outcomes' header.
SECTIONS = ("outcomes", "covariates", "tags", "codes")
_HEADERS = {"covariates": ["unit", "system_count"], "tags": ["unit", "continent"]}


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
    """Aligned (unit x date) outcome panel.

    ``missing_mask`` is True where a cell has no observation; masked cells
    are never interpolated and every estimator must honour the mask.
    ``system_count`` is each unit's mean daily device count (a read-only
    float array, which ``report`` shows) and ``continent`` each unit's
    continent (from ``ingest --units``); either may be None.
    ``policy_codes`` is attached by :func:`~causalpanel.paneldata.merge_panels`:
    a code of ``POLICY_CODES`` per cell.
    """

    unit_ids: tuple[str, ...]
    dates: tuple[date, ...]
    outcomes: np.ndarray
    missing_mask: np.ndarray
    outcome_name: str = "usage_hours"
    system_count: np.ndarray | None = None
    continent: tuple[str, ...] | None = None
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
        if self.system_count is not None:
            counts = _frozen_array(self.system_count, float)
            object.__setattr__(self, "system_count", counts)
            if counts.shape != (len(self.unit_ids),):
                raise ValidationError(
                    f"system_count has shape {counts.shape} for {len(self.unit_ids)} units"
                )
            bad = np.flatnonzero(~np.isfinite(counts))
            if bad.size:
                raise ValidationError(
                    f"covariate 'system_count' is non-finite for unit {self.unit_ids[bad[0]]!r}"
                )
        if self.continent is not None:
            object.__setattr__(self, "continent", tuple(self.continent))
            if len(self.continent) != len(self.unit_ids):
                raise ValidationError(
                    f"continent has {len(self.continent)} entries for {len(self.unit_ids)} units"
                )
        if self.policy_codes is not None:
            # checked before the cast to int64, which would truncate a
            # fraction and cannot hold every int
            codes = np.asarray(self.policy_codes)
            if codes.shape != shape:
                raise ValidationError("policy code matrix shape mismatch")
            bad = np.argwhere(~np.isin(codes, POLICY_CODES))
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


def check_cell(what: str, text: str) -> None:
    """Refuse a unit id or continent (``what``) that a panel file would not
    read back as the one cell it was (a tab or a line break, a unit id that
    starts like a section header), or an empty unit id, which no flag names."""
    if what == "unit id" and not text.strip():
        raise ValidationError(f"unit id {text!r} is empty")
    if "\t" in text or text.splitlines() not in ([], [text]):
        raise ValidationError(f"{what} {text!r} contains a tab or a line break")
    if what == "unit id" and text.startswith("#section "):
        raise ValidationError(
            f"unit id {text!r} starts with '#section ', which a panel file reads "
            "as a section header"
        )


def write_panel(panel: PanelDataset, target) -> None:
    """Write a panel in the format :func:`read_panel` reads, floats as
    ``repr``. Each unit id and continent must pass :func:`check_cell`."""
    from .tablefmt import BLOCK_ROWS, SLOT, CellTable, float_cells, padded, write_rows

    for what, texts in (("unit id", panel.unit_ids), ("continent", panel.continent or ())):
        for text in texts:
            check_cell(what, text)
    units = CellTable()
    unit = units.codes(panel.unit_ids)

    def outcomes(lo, hi):
        cells = float_cells(panel.outcomes[lo:hi])
        cells[panel.missing_mask[lo:hi]] = padded([NA.encode()], SLOT)
        return [units.take(unit[lo:hi]), cells]

    def counts(lo, hi):
        return [units.take(unit[lo:hi]), float_cells(panel.system_count[lo:hi])]

    with _opened(target, "w") as stream:
        w = stream.write
        w(PANEL_MAGIC + "\n")
        w(f"#outcome {panel.outcome_name}\n")
        date_header = "\t".join(["unit"] + [d.isoformat() for d in panel.dates]) + "\n"
        w("#section outcomes\n" + date_header)
        # about BLOCK_ROWS * 6 floats a block, as the persona table's
        rows = max(1, BLOCK_ROWS * 6 // max(1, len(panel.dates)))
        write_rows(stream, len(panel.unit_ids), outcomes, "\t", rows)
        if panel.system_count is not None:
            w("#section covariates\n" + "\t".join(_HEADERS["covariates"]) + "\n")
            write_rows(stream, len(panel.unit_ids), counts, "\t")
        if panel.continent is not None:
            w("#section tags\n" + "\t".join(_HEADERS["tags"]) + "\n")
            w("".join(f"{u}\t{c}\n" for u, c in zip(panel.unit_ids, panel.continent)))
        if panel.policy_codes is not None:
            w("#section codes\n" + date_header)
            for u, codes in zip(panel.unit_ids, panel.policy_codes.tolist()):
                w("\t".join([u, *map(str, codes)]) + "\n")


def read_panel(source) -> PanelDataset:
    """Read a panel written by :func:`write_panel`. Anything else is a
    parse error naming the line, section or unit: a section not in
    :data:`SECTIONS`, out of their order or twice, a header other than
    the section's, a unit's second row in a section or its row missing,
    or a row for a unit the outcomes section lacks."""
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
            after = SECTIONS.index(list(sections)[-1]) + 1 if sections else 0
            if name not in SECTIONS[after:]:
                raise ParseError(
                    f"line {lineno}: unexpected '#section {name}'; a panel's sections "
                    f"are {', '.join(SECTIONS)}, in this order"
                )
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

    known = set(units)

    def unit_rows(kind: str) -> list[list[str]] | None:
        """One row of cells per unit, in outcome order, or None where the
        file has no such section."""
        if kind not in sections:
            return None
        if not sections[kind]:
            raise ParseError(f"{kind} section has no header")
        own_header, *body = sections[kind]
        if kind == "codes" and own_header != header:
            raise ParseError("codes section: date header differs from the outcomes'")
        if own_header != _HEADERS.get(kind, header):
            got, want = ("\t".join(h) for h in (own_header, _HEADERS[kind]))
            raise ParseError(f"{kind} section: header {got!r} where a panel has {want!r}")
        _one_row_each(kind, [row[0] for row in body])
        by_unit = {row[0]: row[1:] for row in body}
        for u in by_unit:
            if u not in known:
                raise ParseError(
                    f"{kind} section has a row for unit {u!r} that the outcomes section lacks"
                )
        for u in units:
            if u not in by_unit:
                raise ParseError(f"{kind} section has no row for unit {u!r}")
            if len(by_unit[u]) != len(own_header) - 1:
                raise ParseError(
                    f"{kind} row for {u!r}: {len(by_unit[u])} cells for "
                    f"{len(own_header) - 1} columns"
                )
        return [by_unit[u] for u in units]

    counts, tags, codes = map(unit_rows, SECTIONS[1:])
    return PanelDataset(
        unit_ids=tuple(units),
        dates=dates,
        outcomes=np.array(outcomes),
        missing_mask=mask,
        outcome_name=lines[1][len("#outcome ") :].strip(),
        system_count=None if counts is None else [
            _parse_number(c, "covariates", u) for u, (c,) in zip(units, counts)
        ],
        continent=None if tags is None else [c for (c,) in tags],
        # Python ints: PanelDataset checks their range before it casts them
        policy_codes=None if codes is None else [
            [_parse_number(c, "codes", u, int) for c in row] for u, row in zip(units, codes)
        ],
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
