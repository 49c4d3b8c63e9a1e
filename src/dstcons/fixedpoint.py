"""Fixed points of the self-combination map and their stability.

A mass function ``m`` is a fixed point of an operator when ``m (+) m = m``.
Stability is judged from the Jacobian of the self-combination image with
respect to the free coordinates (all subsets except the universal set, whose
mass is the dependent coordinate ``1 - sum``): a fixed point is stable when
every eigenvalue lies strictly inside the unit circle.

The image is quadratic in the subset coordinates for Dubois & Prade's and
Yager's rules, rational (``C / (1 - K)``) for Dempster's and linear for
averaging, so the Jacobian is exact: each column is the operators' own
product loop applied to ``m`` and a coordinate direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mass import (
    EPS_NORM,
    MassFunction,
    _conjunctive,
    _dubois_prade_products,
    get_combiner,
)

EPS_FIX = 1e-10
DELTA_STAB = 1e-3
# Largest frame for the (2^n - 2)^2 Jacobian (128 MB at n = 12) and its eigvals.
MAX_JACOBIAN_STATES = 12


@dataclass(frozen=True)
class FixedPointReport:
    """Residual, spectral radius, and the resulting classification for one point."""

    operator: str
    mass: MassFunction
    residual: float
    is_fixed: bool
    spectral_radius: float
    classification: str  # stable | unstable | marginal | not_fixed


def self_combine_residual(operator: str, m: MassFunction) -> float:
    """Max-norm distance between ``m (+) m`` and ``m`` over all subsets."""
    combined = get_combiner(operator)(m, m)
    residual = 0.0
    for subset in m.focal.keys() | combined.focal.keys():
        diff = abs(combined.focal.get(subset, 0.0) - m.focal.get(subset, 0.0))
        if diff > residual:
            residual = diff
    return residual


def dp_polynomial_map(x: np.ndarray) -> np.ndarray:
    """Dubois & Prade self-combination images for n = 3, written out explicitly.

    ``x`` holds the six free masses in the order {s1}, {s2}, {s3}, {s1,s2},
    {s1,s3}, {s2,s3}; the universal-set mass is the dependent coordinate
    ``x7 = 1 - sum(x)``.  Returns the images of the same six subsets.  This is
    the hand-expanded counterpart of the generic operator, kept as a check on
    its product loop, which the Jacobian also differentiates.  Non-finite
    coordinates and points off the simplex (by more than ``EPS_NORM``) are
    refused.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (6,):
        raise ValueError(f"expected 6 free coordinates, got shape {x.shape}")
    if (not np.all(np.isfinite(x)) or np.any(x < -EPS_NORM)
            or float(x.sum()) > 1.0 + EPS_NORM):
        raise ValueError("point lies outside the mass simplex")
    x1, x2, x3, x4, x5, x6 = x
    x7 = 1.0 - float(x.sum())
    return np.array(
        [
            x1 * x1 + 2 * x1 * x4 + 2 * x1 * x5 + 2 * x1 * x7 + 2 * x4 * x5,
            x2 * x2 + 2 * x2 * x4 + 2 * x2 * x6 + 2 * x2 * x7 + 2 * x4 * x6,
            x3 * x3 + 2 * x3 * x5 + 2 * x3 * x6 + 2 * x3 * x7 + 2 * x5 * x6,
            x4 * x4 + 2 * x1 * x2 + 2 * x4 * x7,
            x5 * x5 + 2 * x1 * x3 + 2 * x5 * x7,
            x6 * x6 + 2 * x2 * x3 + 2 * x6 * x7,
        ]
    )


def _dense(values: dict[int, float], full: int) -> np.ndarray:
    """Values by subset as a vector indexed by bitmask (index 0 unused)."""
    vec = np.zeros(full + 1)
    vec[list(values)] = list(values.values())
    return vec


def _self_image(focal: dict[int, float], full: int) -> tuple[np.ndarray, float]:
    """Dempster's self-combination image ``C / (1 - K)`` and the conflict ``K``.

    The image is indexed by bitmask (index 0 unused; ``full`` is the universal
    set).  ``C`` and ``K`` come from one product sum over ``focal``, with no
    renormalisation, so masses off the simplex are permitted.
    """
    raw, k = _conjunctive(focal, focal)
    # On the simplex K(m, m) <= 1 - 1/(2^n - 1), so 1 - k stays away from 0.
    return _dense(raw, full) / (1.0 - k), k


def numeric_jacobian(operator: str, m: MassFunction) -> np.ndarray:
    """Exact Jacobian of the self-combination map at ``m``.

    Free coordinates are the subsets in ascending index order with the
    universal set eliminated, so column ``j`` is the derivative along
    ``d = e_j - e_frame``.  The raw products are a symmetric bilinear map
    ``B``, so that derivative is ``2 B(m, d)``, summed by the operator's own
    product loop.  Yager's conflict goes to the universal set, which has no
    row; Dempster's rule adds the quotient rule for ``C / (1 - K)``; averaging
    is the identity.  Size is ``(2^n - 2) x (2^n - 2)``, so ``n`` is capped at
    ``MAX_JACOBIAN_STATES``.  An unknown operator name is refused.  The
    result is analytic; the name ``numeric_jacobian`` is kept for its callers.
    """
    get_combiner(operator)
    n = m.frame.n
    if n > MAX_JACOBIAN_STATES:
        raise ValueError(
            f"fixed-point analysis supports at most {MAX_JACOBIAN_STATES} states, got n={n}"
        )
    full = m.frame.full_set
    if operator == "average":
        return np.eye(full - 1)
    focal = m.focal
    if operator == "dempster":
        image, k = _self_image(focal, full)
    jac = np.empty((full - 1, full - 1))
    for j in range(1, full):
        direction = {j: 1.0, full: -1.0}
        if operator == "dubois_prade":
            raw, dk = _dubois_prade_products(focal, direction), 0.0
        else:
            raw, dk = _conjunctive(focal, direction)
        column = 2.0 * _dense(raw, full)[1:full]
        if operator == "dempster":
            column = (column + 2.0 * dk * image[1:full]) / (1.0 - k)
        jac[:, j - 1] = column
    return jac


def classify(operator: str, m: MassFunction) -> FixedPointReport:
    """Build the full report: residual, spectral radius (by eigendecomposition), stability class."""
    residual = self_combine_residual(operator, m)
    rho = float(np.max(np.abs(np.linalg.eigvals(numeric_jacobian(operator, m)))))
    is_fixed = residual <= EPS_FIX
    if not is_fixed:
        classification = "not_fixed"
    elif rho < 1.0 - DELTA_STAB:
        classification = "stable"
    elif rho > 1.0 + DELTA_STAB:
        classification = "unstable"
    else:
        classification = "marginal"
    return FixedPointReport(
        operator=operator,
        mass=m,
        residual=residual,
        is_fixed=is_fixed,
        spectral_radius=rho,
        classification=classification,
    )
