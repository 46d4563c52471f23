"""Synthetic control: simplex-weighted donor pools and placebo inference.

Weights minimize the squared pre-treatment distance between the treated
series and a convex combination of donor series, constrained to the
probability simplex (non-negative, summing to one). The solver is an exact
primal active-set method (Lawson-Hanson NNLS adapted to the simplex): it
starts at the best single donor, solves the equality-constrained problem
on a growing free set, and stops when the KKT conditions certify the
optimum, so the result never loses to any vertex. Inference is
randomization-style: each donor is refit as a pseudo treated unit and the
treated post/pre error ratio is ranked among the placebo ratios.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from datetime import date
from typing import Sequence

import numpy as np

from .errors import ConvergenceWarning, SpecError, ValidationError
from .paneldata import PanelDataset, _frozen_array

DEFAULT_MAX_ITERATIONS = 10_000
DEFAULT_TOLERANCE = 1e-8


@dataclass(frozen=True)
class SynthSpec:
    """Treated unit, ordered donor pool, and solver limits.

    ``max_iterations`` caps the active-set steps of the weight fit.
    ``tolerance`` is its KKT tolerance, in units of the largest single-donor
    objective max_j ||A_j - b||^2 (no multiplier exceeds twice that): the
    fit is converged when multipliers off the support are >= -tolerance and
    those on it are within tolerance of zero.
    """

    treated_unit: str
    donor_units: tuple[str, ...]
    treatment_date: date
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        object.__setattr__(self, "donor_units", tuple(self.donor_units))
        if len(self.donor_units) < 2:
            raise ValidationError("need at least 2 donor units")
        if len(set(self.donor_units)) != len(self.donor_units):
            raise ValidationError("duplicate donor units")
        if self.treated_unit in self.donor_units:
            raise ValidationError(
                f"treated unit {self.treated_unit!r} cannot be its own donor"
            )
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be positive")
        if not 0 < self.tolerance < math.inf:
            raise ValidationError(
                f"tolerance must be positive and finite, not {self.tolerance}"
            )


@dataclass(frozen=True)
class SynthFit:
    """Fitted weights plus the derived series.

    ``counterfactual`` and ``gap`` are full-length date series with NaN
    where the required cells are masked; norms never include those dates.
    """

    weights: np.ndarray
    pre_rmse: float
    counterfactual: np.ndarray
    gap: np.ndarray
    post_pre_ratio: float
    converged: bool = True

    def __post_init__(self):
        w = _frozen_array(self.weights, float)
        object.__setattr__(self, "weights", w)
        for name in ("counterfactual", "gap"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), float))
        if w.size and ((w < -1e-9).any() or (w > 1 + 1e-9).any()):
            raise ValidationError("weights outside [0, 1]")
        if w.size and abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValidationError("weights do not sum to 1")
        if self.pre_rmse < 0:
            raise ValidationError("pre_rmse must be non-negative")


def project_to_simplex(v: Sequence[float]) -> np.ndarray:
    """Euclidean projection onto {w : w >= 0, sum w = 1}.

    Sort-based: with entries sorted descending, the projection subtracts
    one shared threshold from every coordinate that stays positive and
    zeroes the rest; the threshold is found exactly from cumulative sums.
    """
    u = np.asarray(v, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise ValidationError("need a non-empty 1-d vector")
    if not np.isfinite(u).all():
        raise ValidationError("non-finite entries")
    s = np.sort(u)[::-1]
    cumulative = np.cumsum(s) - 1.0
    j = np.arange(1, u.size + 1)
    rho = int(np.nonzero(s - cumulative / j > 0)[0][-1])
    theta = cumulative[rho] / (rho + 1)
    return np.maximum(u - theta, 0.0)


def _face_minimizer(block: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm minimizer of ||block z - b|| subject to sum z = 1.

    With Q the orthonormal Helmert basis of {sum z = 0}, z = 1/k + Q u has
    ||z||^2 = 1/k + ||u||^2, so the minimum-norm least-squares u gives the
    minimum-norm z when the Gram matrix is singular (duplicate donors, fewer
    dates than donors). block @ Q ignores a level shared by all series.
    """
    k = block.shape[1]
    i = np.arange(1, k)
    basis = np.triu(np.ones((k, k - 1)))
    basis[i, i - 1] = -i
    basis /= np.sqrt(i * (i + 1.0))
    u = np.linalg.lstsq(block @ basis, b - block.mean(axis=1), rcond=None)[0]
    return 1.0 / k + basis @ u


def _multipliers(A: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Simplex KKT multipliers lam_j = (A_j - A w)'(A w - b): feasible w is
    optimal iff lam is zero on its support and non-negative off it. Summed
    per column, not by matrix product, so identical donors get identical
    multipliers bit for bit and ties go to the lowest index."""
    fitted = A @ w
    return ((A - fitted[:, None]) * (fitted - b)[:, None]).sum(axis=0)


def _active_set_simplex(
    A: np.ndarray, b: np.ndarray, max_steps: int, tolerance: float
) -> tuple[np.ndarray, bool, np.ndarray]:
    """Minimize ||A w - b||^2 over the simplex: Lawson-Hanson's active-set
    NNLS adapted to the sum-to-one constraint.

    From the best vertex, each step frees the donor with the most negative
    multiplier and moves to the minimizer on the free face; while that has a
    non-positive weight, it steps back to the boundary and drops the donor
    that hits it. Ties go to the lowest index. Each iterate lies on the
    segment from the previous one to a face minimizer, so the objective
    never rises. Returns (weights, converged, objective_path).
    """
    vertex_objs = np.sum((A - b[:, None]) ** 2, axis=0)
    scale = float(vertex_objs.max())
    w = np.zeros(A.shape[1])
    w[int(np.argmin(vertex_objs))] = 1.0
    path = [float(vertex_objs.min())]
    while True:
        lam = _multipliers(A, b, w)
        off_support = np.where(w > 0, np.inf, lam)
        entering = int(np.argmin(off_support))
        if off_support[entering] >= -tolerance * scale or len(path) > max_steps:
            break
        free = w > 0
        free[entering] = True
        while True:
            idx = np.flatnonzero(free)
            z = _face_minimizer(A[:, idx], b)
            blocked = np.flatnonzero(z <= 0)
            if blocked.size == 0 or (w[idx[blocked]] == 0.0).any():
                break
            # step back along w -> z to the first weight that reaches zero
            ratios = w[idx[blocked]] / (w[idx[blocked]] - z[blocked])
            w[idx] = np.maximum(w[idx] + float(ratios.min()) * (z - w[idx]), 0.0)
            w[idx[blocked[int(np.argmin(ratios))]]] = 0.0
            free = w > 0
        if blocked.size:
            break  # rounding leaves no descent through the entering donor
        w = np.zeros(A.shape[1])
        w[idx] = z
        path.append(float(np.sum((A @ w - b) ** 2)))
    residual = float(np.max(np.where(w > 0, np.abs(lam), -lam)))
    return w, residual <= tolerance * scale, np.asarray(path)


def fit_weights(
    pre_treated: np.ndarray,
    pre_donors: np.ndarray,
    *,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    tolerance: float = DEFAULT_TOLERANCE,
    return_objectives: bool = False,
):
    """Simplex-constrained least squares of the treated pre-period on the
    donor pre-period block (dates x donors).

    The solve starts at the best single donor, so it never loses to any
    vertex. ``max_iterations`` and ``tolerance`` are as in SynthSpec;
    without a KKT certificate when the steps run out, the last iterate is
    returned with a ConvergenceWarning. ``return_objectives`` adds
    ``converged`` and the non-increasing objective path: the starting
    vertex, then one entry per active-set step.
    """
    b = np.asarray(pre_treated, dtype=float)
    A = np.asarray(pre_donors, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.size:
        raise ValidationError(
            f"donor block {A.shape} does not match treated length {b.size}"
        )
    if A.shape[0] < 2:
        raise SpecError("need at least 2 pre-period dates to fit weights")
    if A.shape[1] < 1:
        raise ValidationError("empty donor pool")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValidationError("non-finite values in pre-period block")

    w, converged, path = _active_set_simplex(A, b, max_iterations, tolerance)
    if not converged:
        warnings.warn(
            f"weight fit stopped after {path.size - 1} active-set steps "
            f"without KKT certificate at tolerance {tolerance}",
            ConvergenceWarning,
            stacklevel=2,
        )
    pre_rmse = float(np.sqrt(path[-1] / b.size))
    if return_objectives:
        return w, pre_rmse, converged, path
    return w, pre_rmse


def _synth_impl(
    panel: PanelDataset,
    treated_unit: str,
    donor_units: Sequence[str],
    treatment_date: date,
    max_iterations: int,
    tolerance: float,
) -> SynthFit:
    donors_sorted = sorted(donor_units)
    treated_row = panel.unit_index(treated_unit)
    donor_rows = [panel.unit_index(u) for u in donors_sorted]

    y = panel.outcomes[treated_row]
    D = panel.outcomes[donor_rows, :]
    complete = ~panel.missing_mask[treated_row] & ~panel.missing_mask[
        donor_rows, :
    ].any(axis=0)
    post = np.array([d >= treatment_date for d in panel.dates])

    pre_idx = np.nonzero(complete & ~post)[0]
    post_idx = np.nonzero(complete & post)[0]
    if pre_idx.size < 2:
        raise SpecError(f"need >= 2 complete pre-treatment dates, have {pre_idx.size}")
    if post_idx.size == 0:
        raise SpecError("no complete post-treatment dates")

    w_sorted, pre_rmse, converged, _ = fit_weights(
        y[pre_idx], D[:, pre_idx].T, max_iterations=max_iterations,
        tolerance=tolerance, return_objectives=True,
    )

    donor_missing = panel.missing_mask[donor_rows, :].any(axis=0)
    counterfactual = w_sorted @ D
    counterfactual[donor_missing] = np.nan
    gap = np.where(complete, y - counterfactual, np.nan)

    pre_gap = gap[pre_idx]
    post_gap = gap[post_idx]
    pre_rmspe = float(np.sqrt(np.mean(pre_gap**2)))
    post_rmspe = float(np.sqrt(np.mean(post_gap**2)))
    if pre_rmspe > 0.0:
        ratio = post_rmspe / pre_rmspe
    else:
        ratio = float("inf") if post_rmspe > 0.0 else 0.0

    order = [donors_sorted.index(u) for u in donor_units]
    return SynthFit(
        weights=w_sorted[order],
        pre_rmse=pre_rmse,
        counterfactual=counterfactual,
        gap=gap,
        post_pre_ratio=ratio,
        converged=converged,
    )


def fit_synth(panel: PanelDataset, spec: SynthSpec) -> SynthFit:
    """Fit weights on the pre-period and derive counterfactual, gap, and
    the post/pre error ratio.

    Donors are processed in sorted-id order internally and the weights
    mapped back to the caller's order, so permuting ``donor_units``
    permutes the weights and changes nothing else, bit for bit. Only
    dates where the treated unit and every donor are unmasked enter any
    norm; the counterfactual is NaN where a donor is masked.
    """
    for unit in (spec.treated_unit, *spec.donor_units):
        panel.unit_index(unit)
    return _synth_impl(
        panel,
        spec.treated_unit,
        spec.donor_units,
        spec.treatment_date,
        spec.max_iterations,
        spec.tolerance,
    )


def randomization_inference(
    panel: PanelDataset, spec: SynthSpec, fit: SynthFit
) -> tuple[float, dict[str, np.ndarray | None]]:
    """Placebo test: refit each donor as pseudo-treated against the other
    donors and rank the treated post/pre ratio among the placebo ratios.

    p = (1 + #{placebo ratio >= treated ratio}) / (J + 1 - skipped), so p
    is never 0 and a treated ratio above every placebo gives 1/(J+1). A
    placebo whose refit fails is skipped, reported as None in the gap
    map, and removed from the denominator.
    """
    placebo_gaps: dict[str, np.ndarray | None] = {}
    exceed = 0
    skipped = 0
    for donor in spec.donor_units:
        # the pool is every other donor; at J=2 this leaves a single donor,
        # which the internal fit accepts even though a top-level spec would
        # not
        pool = tuple(u for u in spec.donor_units if u != donor)
        try:
            pseudo = _synth_impl(
                panel,
                donor,
                pool,
                spec.treatment_date,
                spec.max_iterations,
                spec.tolerance,
            )
        except (SpecError, ValidationError):
            placebo_gaps[donor] = None
            skipped += 1
            continue
        placebo_gaps[donor] = pseudo.gap
        if pseudo.post_pre_ratio >= fit.post_pre_ratio:
            exceed += 1
    denominator = len(spec.donor_units) + 1 - skipped
    p_value = (1 + exceed) / denominator
    return p_value, placebo_gaps
