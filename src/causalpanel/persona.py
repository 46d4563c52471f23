"""Persona pipeline: cluster devices on app-category usage, then track the
persona mix through time against frozen centroids.

The workflow mirrors a two-stage study design: personas are learned once
(k-means on per-device feature vectors) and the centroids frozen; later
data is only ever assigned, never refit, so count changes between windows
reflect behavior change rather than cluster drift. Window-to-window count
differences are z-scored per persona and fed to the change-point
detector.

Usage rows are held as columns (:class:`UsageColumns`): the sorted
distinct device ids, an int64 device index and an int64 day ordinal per
row, and one float64 matrix with a column per feature.
:class:`UsageFeatureVector` is the per-row view of the same data;
:func:`device_means`, :func:`fit_kmeans` and :func:`windowed_counts`
convert vectors to columns once on entry, so each computation has one
code path. The column code reproduces the per-row arithmetic bitwise: a
window mean is a sum over each device's rows in day order, taken as
``X[rows].sum(axis=1) / m`` over blocks of devices with the same row
count ``m`` (the sequential sum ``np.mean`` does along axis 0), and a
per-device fit mean is a contiguous per-feature row sum divided by ``m``
(the pairwise sum of a 1-D ``np.mean``). Each block is gathered at most
``_GATHER_ROWS`` rows at a time; every mean is summed alone, so the
split does not change a bit.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from datetime import date
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConvergenceWarning, SchemaError, ValidationError
from .panel import _frozen_array
from .paneldata import distinct, factorize

if TYPE_CHECKING:
    from .changepoint import Segmentation

DEFAULT_K = 6
MAX_LLOYD_ITERATIONS = 300

# Sliding windows, in days.
WINDOW_WIDTH = 28
WINDOW_STRIDE = 14

# Rows gathered at once when runs of rows are averaged (per-device and
# per-window means).
_GATHER_ROWS = 8192

# Stand-in 6-category feature space; the label set follows the published
# persona taxonomy, and each category is the usage domain its persona is
# named after.
DEFAULT_PERSONA_NAMES = (
    "Casual Gamers",
    "Web Users",
    "Communication Users",
    "Content Creators",
    "Office/Productivity",
    "File & Network Sharer",
)
DEFAULT_FEATURE_CATEGORIES = (
    "gaming",
    "web_browsing",
    "communication",
    "content_creation",
    "office_productivity",
    "file_network_sharing",
)
CATEGORY_TO_PERSONA = dict(zip(DEFAULT_FEATURE_CATEGORIES, DEFAULT_PERSONA_NAMES))


@dataclass(frozen=True)
class UsageFeatureVector:
    """Per-device usage intensities (hours) over one window or day."""

    device_id: str
    window_start: date
    features: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "features", dict(self.features))
        for name, value in self.features.items():
            if not (np.isfinite(value) and value >= 0.0):
                raise ValidationError(
                    f"device {self.device_id}: feature {name!r} = {value} "
                    "must be finite and non-negative"
                )

    def as_array(self, feature_names: Sequence[str]) -> np.ndarray:
        missing = set(feature_names) ^ set(self.features)
        if missing:
            raise SchemaError(
                f"device {self.device_id}: feature names do not align "
                f"(mismatch on {sorted(missing)})"
            )
        return np.array([self.features[n] for n in feature_names], dtype=float)


@dataclass(frozen=True, eq=False)
class UsageColumns:
    """Usage rows as columns. Row ``i`` is device ``device_ids[device[i]]``
    on day ``date.fromordinal(day[i])`` with feature values ``values[i]``,
    whose columns follow ``feature_names``. ``device_ids`` is sorted, so
    device index order is device-id order.

    Equality compares the rows, floats bitwise. Iterating yields one
    :class:`UsageFeatureVector` per row.
    """

    device_ids: tuple[str, ...]
    device: np.ndarray
    day: np.ndarray
    values: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        ids = tuple(self.device_ids)
        names = tuple(self.feature_names)
        device = _frozen_array(self.device, np.int64)
        day = _frozen_array(self.day, np.int64)
        values = np.asarray(self.values, dtype=float)
        if values.size == 0:
            values = values.reshape(len(device), len(names))
        values = _frozen_array(values, float)
        object.__setattr__(self, "device_ids", ids)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "device", device)
        object.__setattr__(self, "day", day)
        object.__setattr__(self, "values", values)
        if list(ids) != sorted(set(ids)):
            raise ValidationError("device ids must be sorted and distinct")
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate feature names in {list(names)}")
        if device.ndim != 1 or day.shape != device.shape:
            raise ValidationError("device and day columns differ in length")
        if values.shape != (len(device), len(names)):
            raise ValidationError(
                f"values matrix {values.shape} does not match {len(device)} rows "
                f"x {len(names)} features"
            )
        if device.size and not (0 <= device.min() and device.max() < len(ids)):
            raise ValidationError("device index outside the device id list")
        # min and max propagate NaN, and neither makes a temporary array
        if values.size and not (values.min() >= 0.0 and values.max() < np.inf):
            i, j = np.argwhere(~(np.isfinite(values) & (values >= 0.0)))[0]
            raise ValidationError(
                f"device {ids[device[i]]}: feature {names[j]!r} = {values[i, j]} "
                "must be finite and non-negative"
            )

    @classmethod
    def from_rows(
        cls, device_id: Sequence[str], day, values, feature_names: Sequence[str]
    ) -> UsageColumns:
        """Columns from one device id per row."""
        ids, device = factorize(device_id)
        return cls(ids, device, day, values, feature_names)

    @classmethod
    def from_vectors(cls, vectors: Iterable[UsageFeatureVector]) -> UsageColumns:
        """Columns from per-row vectors; features in sorted name order."""
        vectors = list(vectors)
        names = tuple(sorted(vectors[0].features)) if vectors else ()
        for v in vectors:
            mismatch = set(names) ^ set(v.features)
            if mismatch:
                raise SchemaError(
                    f"device {v.device_id}: feature names differ between rows "
                    f"(mismatch on {sorted(mismatch)})"
                )
        return cls.from_rows(
            [v.device_id for v in vectors],
            [v.window_start.toordinal() for v in vectors],
            [[v.features[n] for n in names] for v in vectors],
            names,
        )

    def __len__(self) -> int:
        return self.device.shape[0]

    def __iter__(self):
        names = self.feature_names
        for d, day, row in zip(self.device.tolist(), self.day.tolist(), self.values.tolist()):
            yield UsageFeatureVector(
                self.device_ids[d], date.fromordinal(day), dict(zip(names, row))
            )

    def __eq__(self, other):
        if not isinstance(other, UsageColumns):
            return NotImplemented
        return (
            self.feature_names == other.feature_names
            and [self.device_ids[d] for d in self.device]
            == [other.device_ids[d] for d in other.device]
            and np.array_equal(self.day, other.day)
            and self.values.tobytes() == other.values.tobytes()
        )

    __hash__ = None

    def columns_of(self, feature_names: Sequence[str]) -> list[int]:
        """The stored column of each of ``feature_names``, which must be
        the stored names in some order."""
        mismatch = set(feature_names) ^ set(self.feature_names)
        if mismatch:
            raise SchemaError(
                f"feature names do not align (mismatch on {sorted(mismatch)})"
            )
        return [self.feature_names.index(n) for n in feature_names]

    def matrix(self, feature_names: Sequence[str]) -> np.ndarray:
        """The values with columns in ``feature_names`` order. When that is
        the stored order, this is :attr:`values` itself, read-only and not
        a copy; otherwise a new array."""
        columns = self.columns_of(feature_names)
        if tuple(feature_names) == self.feature_names:
            return self.values
        return self.values[:, columns]


def as_usage_columns(records) -> UsageColumns:
    """``records`` as columns: a :class:`UsageColumns` as is, any other
    iterable of :class:`UsageFeatureVector` converted row by row."""
    if isinstance(records, UsageColumns):
        return records
    return UsageColumns.from_vectors(records)


def _gather_slices(n_runs: int, run_length: int):
    """Slices over ``n_runs`` runs of ``run_length`` rows each, taking at
    most :data:`_GATHER_ROWS` rows a slice (one run when a run is longer),
    so that averaging the runs one slice at a time needs working memory
    that does not grow with the row count."""
    step = max(1, _GATHER_ROWS // run_length)
    return (slice(lo, lo + step) for lo in range(0, n_runs, step))


def device_means(records, where: np.ndarray | None = None) -> UsageColumns:
    """One row per device: the mean of each feature over the device's
    rows, dated on the device's first row. Features in sorted name order.
    With ``where``, a boolean mask over the rows, only the rows where it
    is True are averaged (and a device with none has no row), without a
    copy of the rows.

    Each mean is bitwise equal to ``np.mean`` over the device's values of
    that feature in row order.
    """
    rows = as_usage_columns(records)
    names = tuple(sorted(rows.feature_names))
    X = rows.matrix(names)
    device = rows.device if where is None else rows.device[where]
    # rows device by device, input order kept within a device
    order = np.argsort(device, kind="stable")
    if where is not None:
        order = np.flatnonzero(where)[order]
    counts = np.bincount(device, minlength=len(rows.device_ids))
    starts = np.cumsum(counts) - counts
    present = np.flatnonzero(counts)
    means = np.empty((present.size, len(names)))
    for m in distinct(counts[present]).tolist():
        group = np.flatnonzero(counts[present] == m)
        for part in _gather_slices(group.size, m):
            sel = group[part]
            block = X[order[starts[present[sel], None] + np.arange(m)]]
            # (devices, features, m) contiguous: each feature sums as a 1-D run
            means[sel] = np.ascontiguousarray(block.transpose(0, 2, 1)).sum(axis=2) / m
    return UsageColumns(
        tuple(rows.device_ids[d] for d in present.tolist()),
        np.arange(present.size),
        rows.day[order[starts[present]]],
        means,
        names,
    )


@dataclass(frozen=True)
class PersonaModel:
    """k distinct centroids with stable names."""

    centroids: np.ndarray
    persona_names: tuple[str, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self):
        c = _frozen_array(self.centroids, float)
        object.__setattr__(self, "centroids", c)
        object.__setattr__(self, "persona_names", tuple(self.persona_names))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        k, d = c.shape if c.ndim == 2 else (0, 0)
        if c.ndim != 2 or k < 2:
            raise ValidationError("need a 2-d centroid matrix with k >= 2 rows")
        if len(self.persona_names) != k:
            raise ValidationError(f"{k} centroids but {len(self.persona_names)} names")
        if len(set(self.persona_names)) != k:
            raise ValidationError("persona names must be unique")
        if len(self.feature_names) != d:
            raise ValidationError(f"{d} feature columns but {len(self.feature_names)} names")
        for i in range(k):
            for j in range(i + 1, k):
                if np.array_equal(c[i], c[j]):
                    raise ValidationError(f"centroids {i} and {j} are identical")

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


@dataclass(frozen=True)
class PersonaCountSeries:
    """Device counts per persona over sliding windows, with consecutive
    differences and their per-persona z-scores."""

    window_starts: tuple[date, ...]
    counts: np.ndarray
    diffs: np.ndarray
    zscores: np.ndarray
    persona_names: tuple[str, ...]

    def __post_init__(self):
        counts = _frozen_array(self.counts, np.int64)
        diffs = _frozen_array(self.diffs, np.int64)
        z = _frozen_array(self.zscores, float)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "diffs", diffs)
        object.__setattr__(self, "zscores", z)
        object.__setattr__(self, "window_starts", tuple(self.window_starts))
        object.__setattr__(self, "persona_names", tuple(self.persona_names))
        w = len(self.window_starts)
        k = len(self.persona_names)
        if counts.shape != (w, k):
            raise ValidationError(f"counts shape {counts.shape}, expected {(w, k)}")
        if (counts < 0).any():
            raise ValidationError("negative persona counts")
        if w and (diffs.shape != (w - 1, k) or z.shape != (w - 1, k)):
            raise ValidationError("diffs/zscores must have windows-1 rows")
        if not np.array_equal(diffs, counts[1:] - counts[:-1]):
            raise ValidationError("diffs do not match count differences")


def _squared_distances(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances, computed by explicit expansion
    so ties are exact for identical coordinates."""
    return ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# PCG64's LCG multiplier (numpy's PCG_DEFAULT_MULTIPLIER_128)
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seeded_index(seed: int, n: int) -> int:
    """``np.random.default_rng(seed).integers(n)``, by exact integer
    arithmetic and without loading ``numpy.random``: numpy's
    ``SeedSequence`` hashes the seed into a pool and the pool into PCG64's
    128-bit state and increment; PCG64 steps its LCG and outputs XSL-RR
    64-bit words; the draw is numpy's Lemire bounded draw, on 32-bit
    halves of the words (low half first) for ``n`` up to 2**32, on whole
    words above."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    # the seed's 32-bit words, least significant first, hashed into a pool of 4
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    pool = [hashmix(word) for word in (entropy + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # eight 32-bit words from the pool, read as four 64-bit ones
    hash_const, state = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        state.append(value ^ value >> 16)
    s0, s1, s2, s3 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    increment = ((s2 << 64 | s3) << 1 | 1) & _M128
    bits = 32 if n <= 1 << 32 else 64

    def outputs():
        lcg = ((increment + (s0 << 64 | s1)) * _PCG64_MULTIPLIER + increment) & _M128
        while True:
            lcg = (lcg * _PCG64_MULTIPLIER + increment) & _M128
            x, rotation = (lcg >> 64 ^ lcg) & _M64, lcg >> 122
            word = (x >> rotation | x << (64 - rotation)) & _M64
            yield from (word & _M32, word >> 32) if bits == 32 else (word,)

    # Lemire: the high bits of draw * n, redrawn while the low bits fall
    # below (2**bits - n) % n; for n == 2**32 that is the draw itself
    draws, low = outputs(), (1 << bits) - 1
    product = next(draws) * n
    if product & low < n:
        threshold = ((1 << bits) - n) % n
        while product & low < threshold:
            product = next(draws) * n
    return product >> bits


def _farthest_point_init(X: np.ndarray, k: int, seed: int) -> np.ndarray:
    """First center the row ``np.random.default_rng(seed).integers(n)``
    picks (see :func:`_seeded_index`); the rest greedily maximize the
    distance to the nearest chosen center (ties to the lowest index).
    When every remaining point sits at squared distance 0 from a chosen
    center (equal, or apart by so little that the square underflows),
    fewer than ``k`` distinct vectors exist and this raises ValidationError."""
    n = X.shape[0]
    chosen = [_seeded_index(seed, n)]
    min_d2 = _squared_distances(X, X[chosen])[:, 0]
    while len(chosen) < k:
        nxt = int(np.argmax(min_d2))
        if min_d2[nxt] == 0.0:
            raise ValidationError(f"need at least {k} distinct vectors, have {len(chosen)}")
        chosen.append(nxt)
        min_d2 = np.minimum(min_d2, _squared_distances(X, X[[nxt]])[:, 0])
    return X[chosen].copy()


def _derive_names(centroids: np.ndarray, feature_names: Sequence[str]) -> tuple[str, ...]:
    """Name each persona after its dominant feature, suffixing repeats."""
    names: list[str] = []
    for row in centroids:
        base = feature_names[int(np.argmax(row))]
        name = base
        copy = 2
        while name in names:
            name = f"{base}/{copy}"
            copy += 1
        names.append(name)
    return tuple(names)


def fit_kmeans(
    vectors,
    k: int = DEFAULT_K,
    seed: int = 0,
    *,
    return_history: bool = False,
):
    """Lloyd's k-means with deterministic seeded initialization, one point
    per row of ``vectors`` (a :class:`UsageColumns` or a sequence of
    :class:`UsageFeatureVector`), features in sorted name order.

    Empty clusters are reseeded to the point currently farthest from its
    assigned centroid. Iteration stops when assignments repeat, or after
    ``MAX_LLOYD_ITERATIONS`` rounds with a ConvergenceWarning. The first
    center is the row ``np.random.default_rng(seed).integers(n)`` picks,
    for ``seed`` >= 0. Each persona is named after its dominant feature
    (:func:`rename_personas` relabels them). With ``return_history`` the
    per-iteration SSE path is returned alongside the model; it is
    non-increasing by construction.
    """
    rows = as_usage_columns(vectors)
    if not len(rows):
        raise ValidationError("no vectors to cluster")
    feature_names = tuple(sorted(rows.feature_names))
    X = rows.matrix(feature_names)
    if k < 2:
        raise ValidationError("k must be at least 2")

    C = _farthest_point_init(X, k, seed)
    previous_assign = None
    sse_path: list[float] = []
    for _ in range(MAX_LLOYD_ITERATIONS):
        d2 = _squared_distances(X, C)
        assign = np.argmin(d2, axis=1)
        sse_path.append(float(d2[np.arange(len(X)), assign].sum()))
        if previous_assign is not None and np.array_equal(assign, previous_assign):
            break

        # Reseed each empty cluster to the worst-fit remaining point; the
        # reseeded point moves to cost 0, so SSE stays non-increasing.
        empty = [j for j in range(k) if not (assign == j).any()]
        if empty:
            own_d2 = d2[np.arange(len(X)), assign]
            order = np.argsort(own_d2)[::-1]
            used: set[int] = set()
            for j in empty:
                pick = next(int(i) for i in order if int(i) not in used)
                used.add(pick)
                assign[pick] = j
        # The stopping comparison uses the post-reseed assignment: that is
        # the partition the next centroid update is computed from.
        previous_assign = assign
        for j in range(k):
            members = assign == j
            if members.any():
                C[j] = X[members].mean(axis=0)
    else:
        warnings.warn(
            f"k-means stopped after {MAX_LLOYD_ITERATIONS} rounds before the "
            "assignments repeated",
            ConvergenceWarning,
            stacklevel=2,
        )

    names = _derive_names(C, feature_names)
    model = PersonaModel(centroids=C, persona_names=names, feature_names=feature_names)
    if return_history:
        return model, np.asarray(sse_path)
    return model


def rename_personas(model: PersonaModel, mapping: Mapping[str, str]) -> PersonaModel:
    """Relabel personas (e.g. dominant-feature names to published labels)
    without touching centroids or their order."""
    names = tuple(mapping.get(n, n) for n in model.persona_names)
    return PersonaModel(
        centroids=model.centroids,
        persona_names=names,
        feature_names=model.feature_names,
    )


def _window_means(rows: UsageColumns, X: np.ndarray, offsets: np.ndarray, width: int):
    """Each device's mean row (of ``X``) in each window it has rows in, as
    (window index, device index, mean) arrays; window ``w`` covers days
    ``first + offsets[w]`` up to ``width`` days on. A device's rows are
    summed in day order, ties in input order, one block of devices with
    the same row count at a time, gathered a slice at a time."""
    first = int(rows.day.min())
    span = int(rows.day.max()) - first + 1
    # Keyed device by device, then by day, so that one device's rows in
    # one window are one contiguous run of the sorted rows.
    order = np.lexsort((rows.day, rows.device))
    key = rows.device[order]
    key *= span
    key += rows.day[order]
    key -= first
    base = np.arange(len(rows.device_ids))[None, :] * span
    lo = np.searchsorted(key, base + offsets[:, None])
    m = np.searchsorted(key, base + offsets[:, None] + width) - lo
    windows, devices, means = [], [], []
    for size in distinct(m[m > 0]).tolist():
        window, device = np.nonzero(m == size)
        run_starts = lo[window, device]
        group = np.empty((run_starts.size, X.shape[1]))
        for part in _gather_slices(run_starts.size, size):
            group[part] = X[order[run_starts[part, None] + np.arange(size)]].sum(axis=1) / size
        windows.append(window)
        devices.append(device)
        means.append(group)
    return np.concatenate(windows), np.concatenate(devices), np.concatenate(means)


def windowed_counts(
    records,
    model: PersonaModel,
    width: int = WINDOW_WIDTH,
    stride: int = WINDOW_STRIDE,
) -> PersonaCountSeries:
    """Count devices per persona over sliding windows of ``width`` days,
    one starting every ``stride`` days from the first record day.

    ``records`` are daily feature rows, a :class:`UsageColumns` or a
    sequence of :class:`UsageFeatureVector` whose ``window_start`` is the
    record day. Per window, each device's rows inside the window are averaged
    to one vector, zero-usage devices are dropped, and the rest are
    assigned to their nearest frozen centroid. Diffs are consecutive
    count differences; z-scores standardize each persona's diff column
    by its population std (zero-std columns give all-zero z-scores).
    """
    if width <= 0 or stride <= 0:
        raise ValidationError("width and stride must be positive day counts")
    rows = as_usage_columns(records)
    if not len(rows):
        raise ValidationError("no usage records")
    columns = rows.columns_of(model.feature_names)
    first, last = int(rows.day.min()), int(rows.day.max())
    span = last - first + 1
    if width > span:
        raise ValidationError(
            f"records span {date.fromordinal(first)}..{date.fromordinal(last)}, "
            f"less than one {width}-day window"
        )
    offsets = np.arange(0, span - width + 1, stride)
    starts = tuple(date.fromordinal(first + int(o)) for o in offsets)

    # means of the stored columns, then reordered: each column sums alike
    # in either order, and the value matrix is not copied to reorder it
    window, _, means = _window_means(rows, rows.values, offsets, width)
    means = means[:, columns]
    active = means.any(axis=1)
    persona = np.argmin(_squared_distances(means[active], model.centroids), axis=1)
    counts = np.zeros((len(starts), model.k), dtype=np.int64)
    np.add.at(counts, (window[active], persona), 1)

    diffs = counts[1:] - counts[:-1]
    z = np.zeros_like(diffs, dtype=float)
    if diffs.shape[0] > 0:
        means = diffs.mean(axis=0)
        stds = diffs.std(axis=0)
        nonzero = stds > 0
        z[:, nonzero] = (diffs[:, nonzero] - means[nonzero]) / stds[nonzero]
    return PersonaCountSeries(
        window_starts=starts,
        counts=counts,
        diffs=diffs,
        zscores=z,
        persona_names=model.persona_names,
    )


def persona_changepoint(series: PersonaCountSeries) -> dict[str, Segmentation]:
    """Change-point detection with the bic penalty on each persona's z-score column."""
    from .changepoint import PenaltyConfig, detect_penalized

    if len(series.window_starts) < 4:
        raise ValidationError("need at least 4 windows for change-point analysis")
    return {
        name: detect_penalized(series.zscores[:, j], PenaltyConfig(kind="bic"))
        for j, name in enumerate(series.persona_names)
    }
