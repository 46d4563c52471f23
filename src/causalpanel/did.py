"""Two-way difference-in-differences on merged usage panels.

The estimating equation is Y_it = a + b0*D_i(t) + b1*X_i + g*t + e_it,
where D_i(t) = 1 exactly when unit i is treated and t is on or after the
treatment date. Group and post-period main effects are always included
alongside the interaction; without them the interaction coefficient
absorbs level differences between groups and periods instead of the
effect. The time trend is shared across groups, matching the single g*t
term of the model.

Standard errors are classical homoskedastic ones. Serial-correlation and
cluster corrections are deliberately out of scope; the reported p-values
are exact only under i.i.d. errors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from datetime import date
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DiagnosticUnavailableError,
    NumericalError,
    SchemaError,
    SingularDesignError,
    SpecError,
    ValidationError,
)
from .paneldata import PanelDataset, distinct

# relative singular-value cutoff below which a design is reported as
# rank deficient rather than solved
RANK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class DidSpec:
    """Which units form the treatment contrast and what enters the design."""

    treated_units: frozenset[str]
    control_units: frozenset[str]
    treatment_date: date
    covariate_names: tuple[str, ...] = ()
    time_trend: bool = False

    def __post_init__(self):
        treated = frozenset(self.treated_units)
        control = frozenset(self.control_units)
        object.__setattr__(self, "treated_units", treated)
        object.__setattr__(self, "control_units", control)
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))
        if not treated or not control:
            raise ValidationError("treated and control sets must be non-empty")
        overlap = treated & control
        if overlap:
            raise ValidationError(
                f"units cannot be both treated and control: {sorted(overlap)}"
            )


@dataclass(frozen=True)
class DidFit:
    """Fitted two-way design. beta0 is the treated-x-post interaction,
    i.e. the causal effect under parallel trends."""

    alpha: float
    beta0: float
    covariate_betas: Mapping[str, float]
    gamma: float | None
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
    """Two-sided p-value and 95% interval from the t distribution. A zero
    stderr (perfect fit) degenerates to p=0 for nonzero estimates and a
    point interval."""
    if not np.isfinite(stderr) or dof <= 0:
        return float("nan"), (float("-inf"), float("inf"))
    if stderr == 0.0:
        p = 1.0 if estimate == 0.0 else 0.0
        return p, (estimate, estimate)
    p = _t_two_sided(estimate / stderr, dof)
    half = _t_quantile(dof, 0.975) * stderr
    return min(p, 1.0), (estimate - half, estimate + half)


def _covariate_columns(
    panel: PanelDataset, units: Sequence[str], names: Sequence[str]
) -> tuple[list[str], np.ndarray]:
    """Per-unit covariate block. Numeric names map straight to panel
    covariates; categorical tag names expand to k-1 dummies with the
    alphabetically first level as baseline."""
    columns: list[np.ndarray] = []
    labels: list[str] = []
    for name in names:
        if name in panel.covariate_names:
            j = panel.covariate_names.index(name)
            values = np.array([panel.covariates[panel.unit_index(u), j] for u in units])
            columns.append(values)
            labels.append(name)
        elif name in panel.unit_tags:
            tags = panel.unit_tags[name]
            values = [tags[panel.unit_index(u)] for u in units]
            levels = sorted(set(values))
            for level in levels[1:]:
                columns.append(np.array([1.0 if v == level else 0.0 for v in values]))
                labels.append(f"{name}={level}")
        else:
            raise SchemaError(f"unknown covariate {name!r}")
    block = np.column_stack(columns) if columns else np.empty((len(units), 0))
    return labels, block


def _stack_cells(
    panel: PanelDataset, spec: DidSpec
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unmasked (unit, date) rows in sorted-unit order, so any permutation
    of the panel's unit axis produces bit-identical designs."""
    units = sorted(spec.treated_units | spec.control_units)
    missing = [u for u in units if u not in panel.unit_ids]
    if missing:
        raise ValidationError(f"panel does not contain units: {missing}")

    t_days = np.array([(d - panel.dates[0]).days for d in panel.dates], dtype=float)
    post = np.array([d >= spec.treatment_date for d in panel.dates])

    rows_unit: list[int] = []
    y_parts, t_parts, post_parts, treat_parts = [], [], [], []
    for k, unit in enumerate(units):
        i = panel.unit_index(unit)
        keep = ~panel.missing_mask[i]
        y_parts.append(panel.outcomes[i, keep])
        t_parts.append(t_days[keep])
        post_parts.append(post[keep].astype(float))
        is_treated = 1.0 if unit in spec.treated_units else 0.0
        treat_parts.append(np.full(int(keep.sum()), is_treated))
        rows_unit.extend([k] * int(keep.sum()))

    y = np.concatenate(y_parts)
    t = np.concatenate(t_parts)
    post_col = np.concatenate(post_parts)
    treated_col = np.concatenate(treat_parts)
    return units, np.asarray(rows_unit), y, t, np.column_stack([treated_col, post_col])


def fit_did(panel: PanelDataset, spec: DidSpec) -> DidFit:
    """Fit the two-way design on all unmasked cells of the spec's units."""
    units, row_unit, y, t, group_post = _stack_cells(panel, spec)
    treated_col = group_post[:, 0]
    post_col = group_post[:, 1]

    if not post_col.any():
        raise SpecError("no observations on or after the treatment date")
    if post_col.all():
        raise SpecError("no observations before the treatment date")
    for label, mask in (("treated", treated_col == 1.0), ("control", treated_col == 0.0)):
        pre_n = int(((post_col == 0.0) & mask).sum())
        post_n = int(((post_col == 1.0) & mask).sum())
        if pre_n < 2 or post_n < 2:
            raise SpecError(
                f"{label} group needs >= 2 observations on each side of the "
                f"treatment date (has {pre_n} pre, {post_n} post)"
            )

    interaction = treated_col * post_col
    names = ["intercept", "treated_group", "post_period", "treatment_effect"]
    columns = [np.ones_like(y), treated_col, post_col, interaction]

    cov_labels, cov_block = _covariate_columns(panel, units, spec.covariate_names)
    for j, label in enumerate(cov_labels):
        columns.append(cov_block[row_unit, j])
        names.append(label)

    if spec.time_trend:
        columns.append(t - t.mean())
        names.append("time_trend")

    X = np.column_stack(columns)
    coefficients, _, stderrs = solve_ols(X, y, column_names=names)

    idx = {name: j for j, name in enumerate(names)}
    beta0 = float(coefficients[idx["treatment_effect"]])
    stderr_beta0 = float(stderrs[idx["treatment_effect"]])
    dof = X.shape[0] - X.shape[1]
    p_value, ci = _t_pvalue_and_ci(beta0, stderr_beta0, dof)

    return DidFit(
        alpha=float(coefficients[idx["intercept"]]),
        beta0=beta0,
        covariate_betas={
            label: float(coefficients[idx[label]]) for label in cov_labels
        },
        gamma=float(coefficients[idx["time_trend"]]) if spec.time_trend else None,
        stderr_beta0=stderr_beta0,
        p_value=p_value,
        confidence_interval=ci,
        n_obs=int(X.shape[0]),
    )


def parallel_trends_diagnostic(
    panel: PanelDataset, spec: DidSpec
) -> tuple[float, float]:
    """Treated-minus-control difference in pre-period linear slopes.

    Returns (slope_gap, slope_gap_stderr). No pass/fail verdict is
    attached; a gap small against its own uncertainty is what supports
    the parallel-trends reading.
    """
    units, row_unit, y, t, group_post = _stack_cells(panel, spec)
    pre = group_post[:, 1] == 0.0
    if distinct(t[pre]).size < 3:
        raise DiagnosticUnavailableError(
            "parallel-trends diagnostic needs at least 3 pre-period dates"
        )
    treated_col = group_post[pre, 0]
    tt = t[pre]
    tt = tt - tt.mean()
    X = np.column_stack([np.ones_like(tt), tt, treated_col, treated_col * tt])
    names = ["intercept", "time", "treated_group", "treated_time"]
    coefficients, _, stderrs = solve_ols(X, y[pre], column_names=names)
    return float(coefficients[3]), float(stderrs[3])
