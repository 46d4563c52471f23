"""Table rows as bytes, a block of rows at a time: the float cell that
every written table shares (:func:`float_cells`), the distinct text cells
of a file (:class:`CellTable`), and the block writer (:func:`write_rows`).
The CSV writers (:mod:`causalpanel.csvwrite`) and the panel file's writer
(:func:`causalpanel.panel.write_panel`) write through this module; the
commands that only read load none of it.

Float cells
-----------
:func:`float_cells` writes every float64 ``x`` as ``repr(x)``: the
shortest digit string that reads back as ``x``, and of those the one
closest to it. It computes the digits in numpy for the finite ``x`` with
``1e-3 <= |x| < 1e12`` that are not a power of two, whose ``repr`` is in
fixed notation and whose rounding interval is symmetric. For such a
``v = |x|`` in the decade ``10**E <= v < 10**(E+1)``:

* ``E`` is found by comparing ``v`` with the doubles ``1e-3 .. 1e12``
  (:data:`_DECADES`). Those at or above 1 are exact; ``1e-3``, ``1e-2``
  and ``1e-1`` are rounded up, so for a double ``v >= 10**k`` holds
  exactly when ``v`` is at least the double ``10**k``.
* ``X = v * 10**(16-E)`` is formed exactly as ``hi + lo`` by Dekker's
  (1971) TwoProduct: ``10**p`` is an exact double for ``p <= 22`` (here
  ``5 <= p <= 19``), and each product and difference of the split is a
  separate numpy operation, so each is rounded to binary64 on its own and
  none is contracted into a fused multiply-add. ``X`` lies in
  ``[1e16, 1e17)``, far from overflow and underflow.
* ``D17`` is the integer nearest ``X`` and ``r = X - D17`` its exact
  remainder. ``x`` reads back from a decimal exactly when the decimal
  lies within half a unit in the last place (ulp) of ``x``, the gap to
  the doubles on either side, which are equal since ``x`` is not a power
  of two. Scaled, the bound is ``h = 10**(16-E) * ulp / 2``, exact
  because the ulp is a power of two. ``h > 0.55``, so the nearest
  17-digit decimal always reads back.
* For ``n = 16, 15, 14`` digits (``m = 10**(17-n)``) the nearest
  ``n``-digit candidate is ``D17 // m`` rounded by the remainder
  ``(D17 % m) + r``, and its distance from ``X`` is that remainder less
  ``m`` where it rounded up. A candidate is accepted when its distance is
  below ``h``. Every shorter decimal that reads back is also a longer one
  with trailing zeros, so accepting is monotone: the shortest count is 17
  when 16 is refused, 16 when 15 is refused, and 15 when 14 is. Of the
  candidates of that count, the nearest one is the closest to ``x``,
  which is the one ``repr`` picks; its last digit is not zero, since a
  zero would make one digit fewer acceptable.

These distances are computed in binary64 with an error below ``1e-13``
at the scale of ``X``, where ``h > 0.55``. So a value goes to ``repr``
instead exactly when:

* it is outside the domain above (zero, subnormal, infinite, NaN, a
  power of two, below ``1e-3`` or at least ``1e12`` in magnitude);
* at any of the four digit counts, a distance is within a relative
  ``1e-6`` of ``h``, or the remainder is within ``1e-9`` (at that count's
  scale) of the tie at ``0.5``;
* it is accepted at 14 digits: its ``repr`` has 14 or fewer.

Each digit string is laid out in a slot of :data:`SLOT` bytes around a
decimal point at a fixed column, the integer digits right-aligned before
it and the fraction digits left-aligned after it, four digits at a time
from a table of the 10,000 four-digit ASCII words.

Blocks
------
A block's rows are laid out side by side as fixed-width uint8 slots, one
per cell and each followed by its separator. The bytes of a slot that are
not its cell hold :data:`PAD`, ``0xFF``, a byte that UTF-8 never writes;
the bytes that are not ``PAD`` are decoded as one string and written. So
every byte a cell has is kept: a text cell holding ``"\\x00"`` is written
as it is.
"""

from __future__ import annotations

from typing import Callable, Hashable

import numpy as np

from .paneldata import distinct

# The byte of a slot that is not its cell's: UTF-8 never writes it.
PAD = 0xFF


def padded(cells: list[bytes], width: int) -> np.ndarray:
    """Each of ``cells`` in a slot of ``width`` bytes, padded with :data:`PAD`."""
    data = np.frombuffer(b"".join(c.ljust(width, bytes([PAD])) for c in cells), np.uint8)
    return data.reshape(len(cells), width)


# Rows written per block. Holds the block's working arrays to a few
# hundred kilobytes: a persona block of 512 rows has 3072 floats.
BLOCK_ROWS = 512

# A float cell's slot, nine aligned 4-byte words: a sign, 12 integer
# digits (|x| < 1e12), the point and 19 fraction digits (1e-3 <= |x| < 1e-2
# at 17 significant digits). The point opens the fifth word.
SLOT = 36
_POINT = 16

# the ASCII words "0000" .. "9999", and ".000" .. ".999", as uint32; made
# from small integers, so that importing allocates little
_WORDS = np.empty((10_000, 4), np.uint8)
_DIGITS = np.arange(10_000, dtype=np.uint16)
for _col, _m in enumerate((1000, 100, 10, 1)):
    _WORDS[:, _col] = _DIGITS // _m % 10 + ord("0")
_POINT_WORDS = _WORDS[:1000].copy()
_POINT_WORDS[:, 0] = ord(".")
_WORDS, _POINT_WORDS = (w.view(np.uint32).ravel() for w in (_WORDS, _POINT_WORDS))
del _DIGITS, _col, _m
# row start * (SLOT + 1) + end: 0 on a slot's bytes start..end-1, PAD
# elsewhere, as nine uint32 words
_columns = np.arange(SLOT)
_bounds = np.arange(SLOT + 1)
_PADS = (_columns < _bounds[:, None, None]) | (_columns >= _bounds[None, :, None])
_PADS = (_PADS * np.uint8(PAD)).view(np.uint32).reshape((SLOT + 1) ** 2, SLOT // 4)
del _columns, _bounds

_DECADES = np.array([float(f"1e{k}") for k in range(-3, 13)])
_POW10 = np.array([float(10**k) for k in range(23)])
_SPLITTER = float(2**27 + 1)  # Veltkamp's split of a binary64 into 26 + 26 bits
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_POW10_INT = np.array([10**k for k in range(19)], np.int64)
_MANTISSA_BITS = np.uint64(2**52 - 1)


def _shortest(v: np.ndarray):
    """For in-domain magnitudes ``v``: the digits ``D`` of each one's
    ``repr``, their count ``n``, the decade ``E``, and whether the value
    was decided here (False: left to ``repr``)."""
    E = np.searchsorted(_DECADES, v, side="right")
    E -= 4
    p = 16 - E
    P, Ph, Pl = (np.take(table, p) for table in (_POW10, _POW10_HI, _POW10_LO))
    del p
    hi = v * P
    vh = v * _SPLITTER
    vh -= vh - v
    vl = v - vh
    # lo = vl*Pl - (((hi - vh*Ph) - vl*Ph) - vh*Pl), one rounding at a time
    lo = vh * Ph
    np.subtract(hi, lo, out=lo)
    term = vl * Ph
    lo -= term
    np.multiply(vh, Pl, out=term)
    lo -= term
    np.multiply(vl, Pl, out=term)
    np.subtract(term, lo, out=lo)  # hi + lo == v * P exactly
    del vh, vl, Ph, Pl, term
    r = np.rint(lo)
    D17 = hi.astype(np.int64)
    D17 += r.astype(np.int64)
    r = np.subtract(lo, r, out=lo)  # X - D17, exact, |r| <= 1/2
    del hi
    h = np.spacing(v)
    h *= P
    h *= 0.5
    del P
    unsure = np.abs(np.abs(r) - 0.5) < 1e-9
    tol = h * 1e-6
    D, n = D17, np.full(v.shape, 17)
    accepted = np.ones(v.shape, bool)
    for m in (10, 100, 1000):  # 16, 15 and 14 digits
        q = D17 // m  # the candidate below X
        t = D17 - q * m + r  # X less it
        up = t > m / 2  # the nearest candidate is the one above
        t -= m * up
        np.abs(t, out=t)  # the nearest candidate's distance from X
        unsure |= np.abs(t - m / 2) < 1e-9 * m
        unsure |= np.abs(t - h) < tol
        accepted &= t < h
        if m < 1000:
            q += up
            D = np.where(accepted, q, D)
            n -= accepted
    return D, n, E, ~(unsure | accepted)


def _put_words(words: np.ndarray, digits: np.ndarray) -> None:
    """Write ``digits`` (below ``10**(4 * words.shape[1])``) as four-digit
    words, zero-padded, into the columns of ``words``."""
    for col in range(words.shape[1] - 1):
        m = 10 ** (4 * (words.shape[1] - 1 - col))
        high = digits // m
        digits -= high * m
        np.take(_WORDS, high, out=words[:, col], mode="clip")
    np.take(_WORDS, digits, out=words[:, -1], mode="clip")


def _layout(D: np.ndarray, n: np.ndarray, E: np.ndarray, negative: np.ndarray):
    """The slots of the fixed-notation cells of the ``n``-digit values
    ``D * 10**(E+1-n)``, signed where ``negative``."""
    f = n - 1 - E  # fraction digits, 3..19
    m = np.take(_POW10_INT, f - 3)
    head = D // m  # the integer part and the first three fraction digits
    tail = D - head * m
    tail *= np.take(_POW10_INT, 19 - f)  # the other fraction digits, left-aligned in 16
    integer = head // 1000
    head -= integer * 1000
    words = np.empty((len(D), SLOT // 4), np.uint32)
    _put_words(words[:, 1:4], integer)
    np.take(_POINT_WORDS, head, out=words[:, 4], mode="clip")
    _put_words(words[:, 5:9], tail)
    del m, head, tail, integer
    out = words.view(np.uint8)
    start = _POINT - np.maximum(E + 1, 1)
    signed = np.flatnonzero(negative)
    start[signed] -= 1
    out[signed, start[signed]] = ord("-")
    start *= SLOT + 1
    start += f
    start += _POINT + 1  # the row of _PADS of the cell's bytes
    words |= np.take(_PADS, start, axis=0, mode="clip")
    return out


def float_cells(values) -> np.ndarray:
    """Every value of the float array ``values`` as its ``repr`` (see the
    module docstring), in slots of :data:`SLOT` bytes with the shape of
    ``values``."""
    shape = np.shape(values)
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    v = np.abs(x)
    inside = (v >= 1e-3) & (v < 1e12) & (x.view(np.uint64) & _MANTISSA_BITS != 0)
    v[~inside] = 1.5  # any in-domain value: its cells are replaced below
    D, n, E, decided = _shortest(v)
    data = _layout(D, n, E, x < 0)
    rest = np.flatnonzero(~(decided & inside))
    if rest.size:
        data[rest] = padded([repr(value).encode() for value in x[rest].tolist()], SLOT)
    return data.reshape(*shape, SLOT)


class CellTable:
    """A file's distinct text cells, each formatted once: ``form`` makes a
    key's cell, and :meth:`codes` numbers keys by their cell."""

    def __init__(self, form: Callable[[Hashable], str] = str):
        self.form = form
        self.index: dict = {}  # key -> code
        self.cells: list[bytes] = []  # code -> UTF-8 cell
        self._slots: np.ndarray | None = None

    def codes(self, keys) -> np.ndarray:
        """The code of each key of the sequence ``keys``, new keys numbered
        in the order met."""
        for key in keys:
            if key not in self.index:
                self.index[key] = len(self.cells)
                self.cells.append(self.form(key).encode())
                self._slots = None
        return np.fromiter(map(self.index.__getitem__, keys), np.intp, len(keys))

    def int_codes(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`codes` of an integer array, each distinct key looked up once."""
        sorted_keys = distinct(keys)
        return self.codes(sorted_keys.tolist())[np.searchsorted(sorted_keys, keys)]

    def take(self, codes: np.ndarray) -> np.ndarray:
        """The slots of the cells of ``codes``."""
        if self._slots is None:
            self._slots = padded(self.cells, max(map(len, self.cells), default=0))
        return np.take(self._slots, codes, axis=0)


def _laid_out(columns: list[np.ndarray], sep: str) -> np.ndarray:
    """The slots of ``columns`` (each ``(rows, slot)`` or ``(rows, cells,
    slot)``) side by side, each followed by ``sep`` and the last of a row
    by a line break."""
    columns = [c if c.ndim == 3 else c[:, None] for c in columns]
    rows = len(columns[0])
    text = np.empty((rows, sum(c.shape[1] * (c.shape[2] + 1) for c in columns)), np.uint8)
    at = 0
    for c in columns:
        _, n, slot = c.shape
        t = text[:, at : at + n * (slot + 1)].reshape(rows, n, slot + 1)
        t[..., :slot] = c
        t[..., slot] = ord(sep)
        at += n * (slot + 1)
    text[:, -1] = ord("\n")
    return text


def write_rows(stream, n_rows: int, block, sep: str = ",", rows: int = BLOCK_ROWS) -> None:
    """Write ``n_rows`` rows, ``rows`` at a time; ``block(lo, hi)`` returns
    the slots of rows lo..hi, one array a column (see :func:`_laid_out`)."""
    for lo in range(0, n_rows, rows):
        text = _laid_out(block(lo, min(lo + rows, n_rows)), sep)
        text = text[text != PAD]
        stream.write(str(text.data, "utf-8"))
