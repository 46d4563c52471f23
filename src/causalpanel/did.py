"""Difference in differences with unit and date fixed effects.

The estimating equation, over the observed (unmasked) cells of the spec's
units, is

    Y_it = a_i + b_t + beta0 * D_it + e_it,

where a_i is a unit effect, b_t a date effect, and D_it = 1 exactly when
unit i is treated and date t is on or after the treatment date. The fixed
effects absorb each unit's level and each day's shock shared by all units,
so anything constant within a unit (a covariate, a region tag) or common
to all units on a day (a shared trend, seasonality) needs no term of its
own.

The solve is exact and never builds the unit and date dummies. With W the
0/1 observed-cell matrix (units x dates), n_i the number of observed cells
of unit i and m_t that of date t, eliminating the date effects from the
normal equations of the fixed effects leaves one units x units system,

    (diag(n) - W diag(1/m) W') a = r,

where r_i is unit i's sum less the sum of its cells' date means. The
system is solved through its SVD with solve_ols's rank cutoff, and then
b_t = (sum of date t's cells - (W'a)_t) / m_t. Doing so for Y and for D
gives their two-way residuals; by the Frisch-Waugh-Lovell theorem beta0
and its stderr are those of the regression of Y's residual on D's. The
fit takes O(N*T + N^3) time for N units and T dates, on balanced and
masked panels alike. parallel_trends_diagnostic fits the pre-period slope
gap by the same elimination over the pre-period cells.

The degrees of freedom are n_obs - rank(FE) - 1. rank(FE), the rank of
the unit and date dummies over the observed cells, is the number of
dates observed plus the rank of the units x units matrix: N - 1 when
shared dates connect every unit to every other. Standard errors are
classical homoskedastic ones. Serial-correlation and cluster corrections
are deliberately out of scope; the reported p-values are exact only under
i.i.d. errors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from datetime import date
from typing import Sequence

import numpy as np

from .errors import (
    DiagnosticUnavailableError,
    NumericalError,
    SingularDesignError,
    SpecError,
    ValidationError,
)
from .panel import PanelDataset

# relative singular-value cutoff below which a design is reported as
# rank deficient rather than solved
RANK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class DidSpec:
    """Which units form the treatment contrast, and when treatment starts."""

    treated_units: frozenset[str]
    control_units: frozenset[str]
    treatment_date: date

    def __post_init__(self):
        treated = frozenset(self.treated_units)
        control = frozenset(self.control_units)
        object.__setattr__(self, "treated_units", treated)
        object.__setattr__(self, "control_units", control)
        if not treated or not control:
            raise ValidationError("treated and control sets must be non-empty")
        overlap = treated & control
        if overlap:
            raise ValidationError(
                f"units cannot be both treated and control: {sorted(overlap)}"
            )


@dataclass(frozen=True)
class DidFit:
    """Fitted two-way fixed-effects design. beta0 is the coefficient of
    the treatment indicator, i.e. the causal effect under parallel trends."""

    beta0: float
    stderr_beta0: float
    p_value: float
    confidence_interval: tuple[float, float]
    n_obs: int

    def __post_init__(self):
        lo, hi = self.confidence_interval
        if not lo <= self.beta0 <= hi:
            raise ValidationError("confidence interval must bracket beta0")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValidationError("p-value outside [0, 1]")
        if self.stderr_beta0 < 0:
            raise ValidationError("stderr must be non-negative")


def solve_ols(
    design: np.ndarray,
    response: np.ndarray,
    column_names: Sequence[str] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least squares via one thin SVD with a rank guard.

    With X = U diag(s) V', the coefficients are V diag(1/s) U'y and the
    diagonal of (X'X)^-1 is the row sums of (V diag(1/s))^2. Returns
    (coefficients, residuals, stderrs); stderrs come from the classical
    homoskedastic covariance s^2 (X'X)^-1 and are NaN when there are no
    residual degrees of freedom. Rank deficiency (smallest singular value
    below RANK_TOLERANCE times the largest) raises SingularDesignError
    naming the dependent columns (see :func:`_dependent_columns`).
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if X.ndim != 2:
        raise ValidationError("design must be a 2-d matrix")
    n, p = X.shape
    if y.shape != (n,):
        raise ValidationError(f"response length {y.shape} does not match {n} rows")
    if n < p:
        raise ValidationError(f"underdetermined system: {n} rows < {p} columns")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValidationError("design or response contains non-finite values")

    U, singular_values, Vt = np.linalg.svd(X, full_matrices=False)
    if singular_values[0] == 0.0 or singular_values[-1] < RANK_TOLERANCE * singular_values[0]:
        raise SingularDesignError(
            _describe_dependent_columns(X, column_names),
            columns=_dependent_columns(X, column_names),
        )

    v_scaled = Vt.T / singular_values
    coefficients = v_scaled @ (U.T @ y)
    residuals = y - X @ coefficients

    dof = n - p
    if dof > 0:
        sigma2 = float(residuals @ residuals) / dof
        stderrs = np.sqrt(sigma2 * np.sum(v_scaled * v_scaled, axis=1))
    else:
        stderrs = np.full(p, np.nan)
    return coefficients, residuals, stderrs


def _dependent_columns(
    X: np.ndarray, column_names: Sequence[str] | None
) -> tuple[str, ...]:
    """Columns that are (numerically) linear combinations of others.

    Greedy column pivoting with modified Gram-Schmidt, the pivot rule of
    LAPACK's pivoted QR (geqp3): each step takes the column whose residual
    norm is largest, the first in the current order on a tie, swaps it
    into place and projects it out of the rest. Once the largest residual
    norm falls below RANK_TOLERANCE times the first pivot's, every column
    not yet pivoted is dependent; if none does, the last pivot is named.
    """
    residual = np.array(X, dtype=float)
    order = list(range(residual.shape[1]))
    scale = None
    for i in range(len(order)):
        norms = np.linalg.norm(residual[:, order[i:]], axis=0)
        k = int(np.argmax(norms))
        if scale is None:
            scale = norms[k] if norms[k] > 0 else 1.0
        if norms[k] < RANK_TOLERANCE * scale:
            bad = order[i:]
            break
        order[i], order[i + k] = order[i + k], order[i]
        q = residual[:, order[i]] / norms[k]
        rest = order[i + 1 :]
        residual[:, rest] -= np.outer(q, q @ residual[:, rest])
    else:
        bad = order[-1:]
    if column_names is None:
        return tuple(f"column {j}" for j in sorted(bad))
    return tuple(column_names[j] for j in sorted(bad))


def _describe_dependent_columns(
    X: np.ndarray, column_names: Sequence[str] | None
) -> str:
    names = _dependent_columns(X, column_names)
    return "design is rank deficient; dependent columns: " + ", ".join(names)


def _log_gamma_half_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)). For large a the difference of two
    lgamma values loses digits to cancellation (2e-11 absolute at a = 5e4),
    so there it comes from Stirling's series, whose leading terms cancel
    analytically."""
    if a < 20.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)

    def series(z: float) -> float:  # log Gamma(z) minus its Stirling terms
        w = 1.0 / (z * z)
        return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / z

    return a * math.log1p(0.5 / a) + 0.5 * math.log(a) - 0.5 + series(a + 0.5) - series(a)


# Safety caps, far above need: the continued fraction takes under 200 terms
# for any dof up to 1e12, and Newton's method under 10 steps at q = 0.975
# and about 50 at q = 1 - 1e-15
_FRACTION_MAX_TERMS = 10_000
_NEWTON_MAX_STEPS = 100


def _beta_fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) * B(a, b) / (x^a y^b), y = 1 - x, by the continued
    fraction of DiDonato and Morris (1992, algorithm 708, BFRAC), for
    x < a / (a + b). ``lam`` is (a + b) * y - b, which the caller forms
    from whichever of x and y avoids cancellation."""
    c = 1.0 + lam
    c0, c1 = b / a, 1.0 + 1.0 / a
    p, s = 1.0, a + 1.0
    an, bn, an1, bn1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, _FRACTION_MAX_TERMS + 1):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * w * x
        beta = n + w / s + (1.0 + t) / (c1 + t + t) * (c + n * (1.0 + y))
        p, s = 1.0 + t, s + 2.0
        an, an1 = an1, alpha * an + beta * an1
        bn, bn1 = bn1, alpha * bn + beta * bn1
        r_prev, r = r, an1 / bn1
        if abs(r - r_prev) <= sys.float_info.epsilon * r:
            return r
        an, bn, an1, bn1 = an / bn1, bn / bn1, r, 1.0  # rescale
    raise NumericalError(f"incomplete beta fraction did not converge at a={a}, b={b}")


def _t_two_sided(t: float, dof: int) -> float:
    """P(|T| >= |t|) for Student's t with ``dof`` degrees of freedom:
    the regularized incomplete beta I_x(dof/2, 1/2) at x = dof/(dof+t^2),
    with x and 1 - x = t^2/(dof+t^2) each formed without cancellation.
    dof 1 (Cauchy) and 2 have closed forms."""
    t = abs(float(t))
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    if dof == 1:
        return 2.0 * math.atan2(1.0, t) / math.pi
    if dof == 2:
        root = math.sqrt(2.0 + t2)
        return 2.0 / (root * (root + t))
    a, b = 0.5 * dof, 0.5
    x, y = 1.0 / (1.0 + t2 / dof), 1.0 / (1.0 + dof / t2)
    # x^a y^b / B(a, 1/2)
    front = math.exp(
        _log_gamma_half_ratio(a) - a * math.log1p(t2 / dof) - b * math.log1p(dof / t2)
    ) / math.sqrt(math.pi)
    if x < a / (a + b):
        return front * _beta_fraction(a, b, x, y, (a + b) * y - b)
    return 1.0 - front * _beta_fraction(b, a, y, x, b - (a + b) * y)


def _t_density(t: float, dof: int) -> float:
    return math.exp(
        _log_gamma_half_ratio(0.5 * dof) - 0.5 * (dof + 1) * math.log1p(t * t / dof)
    ) / math.sqrt(math.pi * dof)


def _t_quantile(dof: int, q: float) -> float:
    """The t with P(T <= t) = q, for 1/2 < q < 1. dof 1 and 2 have closed
    forms. Otherwise the upper tail is inverted from the normal quantile,
    which lies left of every t quantile, with the dof-2 quantile, which
    lies right of every higher dof's, as the other end of the bracket."""
    tail = 1.0 - q
    if dof == 1:
        return 1.0 / math.tan(math.pi * tail)
    if dof == 2:
        return (1.0 - 2.0 * tail) / math.sqrt(2.0 * tail * q)
    hi = _t_quantile(2, q)
    z = _invert_tail(
        lambda u: 0.5 * math.erfc(u / math.sqrt(2.0)),
        lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi),
        tail, 0.0, hi,
    )
    return _invert_tail(
        lambda u: 0.5 * _t_two_sided(u, dof), lambda u: _t_density(u, dof), tail, z, hi
    )


def _invert_tail(upper_tail, density, target: float, lo: float, hi: float) -> float:
    """The point in [lo, hi] where a convex, falling upper tail equals
    ``target``, by Newton's method from lo, which lies left of it. On a
    convex tail the iterates rise monotonically to the root. The search
    ends when a step moves the point by a few ulps, or when it would leave
    the bracket of points known to lie left and right of the root, which
    only rounding can cause once the root is resolved."""
    t = lo
    for _ in range(_NEWTON_MAX_STEPS):
        excess = upper_tail(t) - target
        if excess > 0.0:
            lo = t
        else:
            hi = t
        nxt = t + excess / density(t)
        if not lo < nxt < hi:
            return t
        if abs(nxt - t) <= 4.0 * sys.float_info.epsilon * nxt:
            return nxt
        t = nxt
    raise NumericalError(f"Newton's method did not settle on tail {target}")


def _t_pvalue_and_ci(
    estimate: float, stderr: float, dof: int
) -> tuple[float, tuple[float, float]]:
    """Two-sided p-value and 95% interval from the t distribution with
    ``dof`` >= 1. A zero stderr (perfect fit) degenerates to p=0 for
    nonzero estimates and a point interval."""
    if stderr == 0.0:
        p = 1.0 if estimate == 0.0 else 0.0
        return p, (estimate, estimate)
    p = _t_two_sided(estimate / stderr, dof)
    half = _t_quantile(dof, 0.975) * stderr
    return min(p, 1.0), (estimate - half, estimate + half)


def _cells(
    panel: PanelDataset, spec: DidSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The spec's units' rows of the panel in sorted-unit order, so that
    any permutation of the panel's unit axis gives bit-identical fits:
    the observed-cell mask, the outcomes (0 in masked cells), each unit's
    treated flag, and each date's post-period flag."""
    units = sorted(spec.treated_units | spec.control_units)
    missing = [u for u in units if u not in panel.unit_ids]
    if missing:
        raise ValidationError(f"panel does not contain units: {missing}")
    rows = [panel.unit_index(u) for u in units]
    observed = ~panel.missing_mask[rows]
    outcomes = np.where(observed, panel.outcomes[rows], 0.0)
    treated = np.array([u in spec.treated_units for u in units])
    post = np.array([d >= spec.treatment_date for d in panel.dates])
    return observed, outcomes, treated, post


def _two_way_residuals(
    observed: np.ndarray, columns: np.ndarray
) -> tuple[np.ndarray, int]:
    """The residuals of each of ``columns`` (k x units x dates, 0 in
    unobserved cells) on unit and date effects over the observed cells (0
    elsewhere), and the rank of those effects. Every date has an observed
    cell. See the module docstring for the elimination."""
    W = observed.astype(float)
    n, m = W.sum(axis=1), W.sum(axis=0)
    unit_sums, date_sums = columns.sum(axis=2), columns.sum(axis=1)
    U, singular_values, Vt = np.linalg.svd(np.diag(n) - (W / m) @ W.T)
    keep = singular_values > RANK_TOLERANCE * singular_values[0]
    rhs = unit_sums - (date_sums / m) @ W.T
    a = (rhs @ U[:, keep] / singular_values[keep]) @ Vt[keep]
    b = (date_sums - a @ W) / m
    residuals = (columns - a[:, :, None] - b[:, None, :]) * W
    return residuals, m.size + int(keep.sum())


def _fixed_effects_slope(
    observed: np.ndarray, y: np.ndarray, z: np.ndarray, name: str
) -> tuple[float, float, int]:
    """The coefficient of ``z`` in y_it = a_i + b_t + c * z_it + e_it over
    the observed cells (every date has one), its classical stderr and the
    residual dof, from the two-way residuals of y and z (Frisch-Waugh-
    Lovell). Raises SingularDesignError naming ``name`` when the effects
    absorb z, and SpecError with no residual degrees of freedom."""
    (y_res, z_res), fe_rank = _two_way_residuals(observed, np.stack([y, z]))
    z_ss = float(np.sum(z_res * z_res))
    if z_ss <= RANK_TOLERANCE**2 * float(np.sum(z * z)):
        raise SingularDesignError(
            f"design is rank deficient; dependent columns: {name}", columns=(name,)
        )
    n_obs = int(observed.sum())
    dof = n_obs - fe_rank - 1
    if dof < 1:
        raise SpecError(
            f"no residual degrees of freedom: {n_obs} observations fit "
            f"exactly by {fe_rank} fixed effects and {name}"
        )
    coef = float(np.sum(z_res * y_res)) / z_ss
    residuals = y_res - coef * z_res
    return coef, math.sqrt(float(np.sum(residuals * residuals)) / dof / z_ss), dof


def fit_did(panel: PanelDataset, spec: DidSpec) -> DidFit:
    """Fit the two-way fixed-effects design on all observed cells of the
    spec's units."""
    observed, y, treated, post = _cells(panel, spec)
    for label, group in (("treated", treated), ("control", ~treated)):
        cells = observed[group]
        pre_n, post_n = int(cells[:, ~post].sum()), int(cells[:, post].sum())
        if pre_n < 2 or post_n < 2:
            raise SpecError(
                f"{label} group needs >= 2 observations on each side of the "
                f"treatment date (has {pre_n} pre, {post_n} post)"
            )

    dates = observed.any(axis=0)
    observed = observed[:, dates]
    d = (treated[:, None] & post[dates]) & observed
    beta0, stderr_beta0, dof = _fixed_effects_slope(
        observed, y[:, dates], d.astype(float), "treatment_effect"
    )
    p_value, ci = _t_pvalue_and_ci(beta0, stderr_beta0, dof)
    return DidFit(
        beta0=beta0,
        stderr_beta0=stderr_beta0,
        p_value=p_value,
        confidence_interval=ci,
        n_obs=int(observed.sum()),
    )


def parallel_trends_diagnostic(
    panel: PanelDataset, spec: DidSpec
) -> tuple[float, float]:
    """Treated-minus-control difference in pre-period linear slopes, net
    of unit and date effects.

    Over the observed pre-period cells, the slope gap g is fitted in

        Y_it = a_i + b_t + g * treated_i * (t - mean t) + e_it

    as fit_did fits beta0. Returns (slope_gap, slope_gap_stderr). No
    pass/fail verdict is attached; a gap small against its own uncertainty
    is what supports the parallel-trends reading. Raises
    DiagnosticUnavailableError with fewer than 3 pre-period dates, when the
    effects absorb the slope term, or with no residual degrees of freedom.
    """
    observed, y, treated, post = _cells(panel, spec)
    dates = (observed & ~post).any(axis=0)
    if int(dates.sum()) < 3:
        raise DiagnosticUnavailableError(
            "parallel-trends diagnostic needs at least 3 pre-period dates"
        )
    observed = observed[:, dates]
    t_days = np.array([(d - panel.dates[0]).days for d in panel.dates], dtype=float)
    t = t_days[dates]
    t -= t[np.nonzero(observed)[1]].mean()
    x = np.where(observed & treated[:, None], t, 0.0)
    try:
        gap, stderr, _ = _fixed_effects_slope(observed, y[:, dates], x, "treated_time")
    except (SingularDesignError, SpecError) as err:
        raise DiagnosticUnavailableError(f"parallel-trends diagnostic: {err}") from err
    return gap, stderr
