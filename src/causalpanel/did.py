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

from dataclasses import dataclass
from datetime import date
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import qr, solve_triangular
from scipy.special import stdtr, stdtrit

from .errors import (
    DiagnosticUnavailableError,
    SchemaError,
    SingularDesignError,
    SpecError,
    ValidationError,
)
from .paneldata import PanelDataset

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
    """Least squares via QR with a rank guard.

    Returns (coefficients, residuals, stderrs); stderrs come from the
    classical homoskedastic covariance s^2 (X'X)^-1 and are NaN when
    there are no residual degrees of freedom. Rank deficiency (smallest
    singular value below RANK_TOLERANCE times the largest) raises
    SingularDesignError naming the dependent columns, identified from
    the small diagonal entries of a pivoted QR.
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

    singular_values = np.linalg.svd(X, compute_uv=False)
    if singular_values[0] == 0.0 or singular_values[-1] < RANK_TOLERANCE * singular_values[0]:
        raise SingularDesignError(
            _describe_dependent_columns(X, column_names),
            columns=_dependent_columns(X, column_names),
        )

    Q, R = np.linalg.qr(X)
    coefficients = solve_triangular(R, Q.T @ y, lower=False)
    residuals = y - X @ coefficients

    dof = n - p
    if dof > 0:
        sigma2 = float(residuals @ residuals) / dof
        r_inv = solve_triangular(R, np.eye(p), lower=False)
        stderrs = np.sqrt(sigma2 * np.sum(r_inv * r_inv, axis=1))
    else:
        stderrs = np.full(p, np.nan)
    return coefficients, residuals, stderrs


def _dependent_columns(
    X: np.ndarray, column_names: Sequence[str] | None
) -> tuple[str, ...]:
    """Columns whose pivoted-QR diagonal collapses, i.e. the ones that are
    (numerically) linear combinations of earlier pivots."""
    _, R, piv = qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    scale = diag[0] if diag.size and diag[0] > 0 else 1.0
    bad = [int(piv[i]) for i in range(diag.size) if diag[i] < RANK_TOLERANCE * scale]
    if not bad:
        bad = [int(piv[-1])]
    if column_names is None:
        return tuple(f"column {j}" for j in sorted(bad))
    return tuple(column_names[j] for j in sorted(bad))


def _describe_dependent_columns(
    X: np.ndarray, column_names: Sequence[str] | None
) -> str:
    names = _dependent_columns(X, column_names)
    return "design is rank deficient; dependent columns: " + ", ".join(names)


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
    t_stat = estimate / stderr
    p = 2.0 * float(stdtr(dof, -abs(t_stat)))
    half = float(stdtrit(dof, 0.975)) * stderr
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
    if np.unique(t[pre]).size < 3:
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
