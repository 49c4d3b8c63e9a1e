"""Quality values, noisy direct evidence, and pignistic state selection.

Evidence about state ``s_i`` arrives as the two-focal mass function
``{s_i}: q_i + eps, S: 1 - q_i - eps`` where ``eps`` is a zero-mean Gaussian
noise draw and the singleton mass is clamped to [0, 1].
"""

from __future__ import annotations

from math import isnan

import numpy as np

from .mass import FrameOfDiscernment, MassFunction, check_count, pignistic


def default_qualities(n: int) -> np.ndarray:
    """The standard allocation ``q_i = i / (n + 1)``, so ``s_n`` is the best state.

    Entry ``i - 1`` is the quality of state ``s_i``.
    """
    check_count("n", n, 2)
    return np.arange(1, n + 1) / (n + 1)


def evidence_mass(
    frame: FrameOfDiscernment, i: int, q_i: float, epsilon: float = 0.0
) -> MassFunction:
    """Evidence for state ``s_i``: singleton mass ``q_i + epsilon`` clamped to [0, 1].

    A clamped value of 0 degenerates to the vacuous mass function.  Dempster,
    Yager and D&P then leave the agent as it was, up to the rounding of their
    rescale to total 1; averaging moves it halfway to the vacuous mass.  A NaN
    ``q_i + epsilon`` is refused; an infinite one clamps like any other.
    """
    if isnan(q_i + epsilon):
        raise ValueError(f"q_i + epsilon must be a number, got {q_i!r} + {epsilon!r}")
    return _evidence_mass(frame, frame.singleton(i), q_i, epsilon)


def _evidence_mass(
    frame: FrameOfDiscernment, singleton: int, q_i: float, epsilon: float
) -> MassFunction:
    """``evidence_mass`` for the state of bitmask ``singleton``, with no checks.

    The run path calls it with a state from ``select_state`` and a finite value.
    The two comparisons clamp as ``min(max(v, 0.0), 1.0)`` would, -0.0 and
    infinities included, and the result is built in place, as
    ``MassFunction._trusted`` builds: this runs once per evidence update.
    """
    v = q_i + epsilon
    if v <= 0.0:
        focal = {frame.full_set: 1.0}
    elif v >= 1.0:
        focal = {singleton: 1.0}
    else:
        focal = {singleton: v, frame.full_set: 1.0 - v}
    m = object.__new__(MassFunction)
    m.frame = frame
    m.focal = focal
    return m


def select_state(m: MassFunction, rng: np.random.Generator) -> int:
    """Roulette-wheel draw of a state from the pignistic distribution of ``m``.

    Cumulative-sum inversion on a single uniform draw; states with exactly
    zero pignistic probability can never be selected.
    """
    probs = pignistic(m)
    u = rng.random()
    cum = 0.0
    last_positive = 0
    for i, p in enumerate(probs):
        if p > 0.0:
            last_positive = i + 1
            cum += p
            if u < cum:
                return i + 1
    # u landed in the rounding gap above the final cumulative value.
    return last_positive
