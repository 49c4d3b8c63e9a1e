"""Fixed points of the self-combination map and their numerical stability.

A mass function ``m`` is a fixed point of an operator when ``m (+) m = m``.
Stability is judged from the Jacobian of the self-combination image with
respect to the free coordinates (all subsets except the universal set, whose
mass is the dependent coordinate ``1 - sum``), evaluated by central finite
differences: a fixed point is stable when every eigenvalue lies strictly
inside the unit circle.

The image map is polynomial (rational for Dempster's rule) in the subset
coordinates, so the differencing evaluates it coordinate-wise; at simplex
boundary points the perturbed evaluations use that polynomial extension and
the report flags them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mass import (
    MassFunction,
    _conjunctive,
    _dubois_prade_products,
    get_combiner,
)

EPS_FIX = 1e-10
DELTA_STAB = 1e-3
# Central-difference step: the truncation error grows as h^2 and the rounding
# error as eps/h (about 1e-10); the result matches the exact Jacobian
# (tests/oracle.jacobian_exact) within 2e-10 for n <= 6.
STEP = 1e-6
# Largest frame for the (2^n - 2)^2 Jacobian (128 MB at n = 12) and its eigvals.
MAX_JACOBIAN_STATES = 12

# Simplex-membership slack when validating polynomial-map inputs.
_SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class FixedPointReport:
    """Residual, spectral radius, and the resulting classification for one point."""

    operator: str
    mass: MassFunction
    residual: float
    is_fixed: bool
    spectral_radius: float
    classification: str  # stable | unstable | marginal | not_fixed
    boundary: bool  # differencing left the simplex (polynomial extension used)


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
    the hand-expanded counterpart of the generic operator, kept as an anchor
    for the finite-difference machinery.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (6,):
        raise ValueError(f"expected 6 free coordinates, got shape {x.shape}")
    if np.any(x < -_SIMPLEX_TOL) or float(x.sum()) > 1.0 + _SIMPLEX_TOL:
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


def _self_image(operator: str, coords: np.ndarray) -> np.ndarray:
    """Self-combination image over all subsets, as a function of raw coordinates.

    ``coords[a]`` is the mass on subset ``a`` (index 0 unused), so the
    universal set is ``len(coords) - 1``.  The
    operators' product loops are evaluated directly, with no renormalisation,
    so coordinates outside the simplex are permitted; this is the polynomial
    (rational, for Dempster) extension used by the finite-difference Jacobian.
    """
    if operator == "average":
        return coords.copy()
    values = coords.tolist()
    focal = {a: values[a] for a in range(1, len(values)) if values[a] != 0.0}
    if operator == "dubois_prade":
        raw, k = _dubois_prade_products(focal, focal), 0.0
    else:
        raw, k = _conjunctive(focal, focal)
    if operator == "yager":
        full = len(values) - 1
        raw[full] = raw.get(full, 0.0) + k
    image = np.zeros(len(values))
    image[list(raw)] = list(raw.values())
    if operator == "dempster":
        # K(m, m) <= 1 - 1/(2^n - 1) on the simplex and a STEP perturbation
        # moves K by about 4 * STEP, so 1 - k stays well away from 0.
        image /= 1.0 - k
    return image


def _free_coords(m: MassFunction) -> np.ndarray:
    full = m.frame.full_set
    coords = np.zeros(full + 1)
    for subset, value in m.focal.items():
        coords[subset] = value
    return coords[1:full]


def _image_of_free(operator: str, free: np.ndarray) -> np.ndarray:
    coords = np.zeros(free.size + 2)
    coords[1:-1] = free
    coords[-1] = 1.0 - float(free.sum())
    return _self_image(operator, coords)[1:-1]


def perturbations_leave_simplex(m: MassFunction) -> bool:
    """True when some +-STEP coordinate perturbation exits the mass simplex."""
    free = _free_coords(m)
    full_mass = 1.0 - float(free.sum())
    return bool(np.any(free < STEP)) or full_mass < STEP


def numeric_jacobian(operator: str, m: MassFunction) -> np.ndarray:
    """Central-difference Jacobian of the self-combination map at ``m``.

    Free coordinates are the subsets in ascending index order with the
    universal set eliminated; a perturbation of coordinate ``j`` is absorbed
    by the universal-set mass.  Size is ``(2^n - 2) x (2^n - 2)``, so ``n`` is
    capped at ``MAX_JACOBIAN_STATES``.  An unknown operator name is refused.
    """
    get_combiner(operator)
    n = m.frame.n
    if n > MAX_JACOBIAN_STATES:
        raise ValueError(
            f"fixed-point analysis supports at most {MAX_JACOBIAN_STATES} states, got n={n}"
        )
    x0 = _free_coords(m)
    d = x0.size
    jac = np.empty((d, d))
    for j in range(d):
        plus = x0.copy()
        plus[j] += STEP
        minus = x0.copy()
        minus[j] -= STEP
        jac[:, j] = (
            _image_of_free(operator, plus) - _image_of_free(operator, minus)
        ) / (2.0 * STEP)
    return jac


def spectral_radius_eig(jac: np.ndarray) -> float:
    """Largest eigenvalue magnitude via full eigendecomposition."""
    return float(np.max(np.abs(np.linalg.eigvals(jac))))


def classify(operator: str, m: MassFunction) -> FixedPointReport:
    """Build the full report: residual, spectral radius, stability class."""
    residual = self_combine_residual(operator, m)
    rho = spectral_radius_eig(numeric_jacobian(operator, m))
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
        boundary=perturbations_leave_simplex(m),
    )
