"""Brute-force reference implementations used only by the tests.

The combination oracle works on dense vectors indexed by subset bitmask and
loops over all (2^n - 1)^2 subset pairs, with no sparsity shortcuts and no
reuse of the library's combination code, so it can serve as an independent
oracle.  The spectral radius by repeated squaring, the windowed convergence
check and the two-pass normalisation are second routes to what ``classify``,
``run`` and ``renormalize`` compute their own way, and the dense-loop
Jacobian is the reference for the one ``numeric_jacobian`` sums from the
library's product loops.  The evidence step without its shortcut for
certain agents, with every uniform drawn by ``random()``, is the reference
the shortcut is replayed against, and the ``min(max(...))`` clamp is the
reference for the evidence mass's two comparisons.  The bit-position
pignistic loop is the reference for ``pignistic``'s cached member lists and
whole singleton masses, and the generic pair loops are the references for
the product loops' two-focal branch.  The rescales that divide by every
total, 1.0 included, are the references for ``_from_products`` and
``_normalize_floats``, which keep their input when it totals exactly 1.0,
and the column-by-column Jacobian is the reference for the one-pass
assembly of ``numeric_jacobian``.
``run_reference`` runs the public steps on ``MassFunction`` agents: the
reference for the float lists that ``run`` holds under averaging.
"""

from __future__ import annotations

from math import exp, fsum, log
from typing import Sequence

import numpy as np

from dstcons import (
    EPS_CONFLICT,
    EPS_CONV,
    EPS_PRUNE,
    FrameOfDiscernment,
    MassFunction,
    RunResult,
    SimConfig,
    TotalConflictError,
    approx_eq,
    default_qualities,
    evidence_mass,
    get_combiner,
    make_vacuous,
    population_means,
    renormalize,
    select_state,
)
from dstcons.fixedpoint import _dense, _self_image
from dstcons.mass import _conjunctive, _dubois_prade_products
from dstcons.simulation import consensus_step, evidence_step


def dense(m: MassFunction) -> np.ndarray:
    """Masses as a dense vector indexed by subset bitmask (index 0 unused)."""
    v = np.zeros(m.frame.full_set + 1)
    for subset, value in m.focal.items():
        v[subset] = value
    return v


def from_dense(frame: FrameOfDiscernment, v: np.ndarray) -> MassFunction:
    return MassFunction(frame, {a: float(v[a]) for a in range(1, v.size) if v[a] > 0})


def combine_dense(op: str, v1: np.ndarray, v2: np.ndarray, n: int) -> np.ndarray:
    """Combine two dense mass vectors by the textbook definitions."""
    full = (1 << n) - 1
    out = np.zeros(full + 1)
    conflict = 0.0
    for a in range(1, full + 1):
        for b in range(1, full + 1):
            product = v1[a] * v2[b]
            inter = a & b
            if op == "average":
                continue
            if inter:
                out[inter] += product
            elif op == "dubois_prade":
                out[a | b] += product
            else:
                conflict += product
    if op == "average":
        out = (v1 + v2) / 2.0
    elif op == "dempster":
        if conflict >= 1.0 - EPS_CONFLICT:
            raise TotalConflictError("oracle: total conflict")
        out /= 1.0 - conflict
    elif op == "yager":
        out[full] += conflict
    return out


def conflict_dense(v1: np.ndarray, v2: np.ndarray, n: int) -> float:
    full = (1 << n) - 1
    k = 0.0
    for a in range(1, full + 1):
        for b in range(1, full + 1):
            if not a & b:
                k += v1[a] * v2[b]
    return k


def jacobian_exact(op: str, m: MassFunction) -> np.ndarray:
    """Analytic Jacobian of ``m (+) m`` in the free coordinates (all but the frame).

    Column ``j`` is the derivative along ``d = e_j - e_frame``: the raw
    products are bilinear, so it is ``B(x, d) + B(d, x)``, and Dempster's rule
    adds the quotient rule for ``C / (1 - K)``.
    """
    n = m.frame.n
    full = m.frame.full_set
    x = dense(m)
    k = conflict_dense(x, x, n)
    c = combine_dense("yager", x, x, n)
    jac = np.empty((full - 1, full - 1))
    for j in range(1, full):
        d = np.zeros(full + 1)
        d[j], d[full] = 1.0, -1.0
        if op == "average":
            col = d
        elif op == "dempster":
            dk = conflict_dense(x, d, n) + conflict_dense(d, x, n)
            dc = combine_dense("yager", x, d, n) + combine_dense("yager", d, x, n)
            col = dc / (1.0 - k) + c * dk / (1.0 - k) ** 2
        else:
            col = combine_dense(op, x, d, n) + combine_dense(op, d, x, n)
        jac[:, j - 1] = col[1:full]
    return jac


def jacobian_by_columns(op: str, m: MassFunction) -> np.ndarray:
    """``numeric_jacobian`` built column by column: each column a fresh dense
    vector of the product loop's raw entries, doubled, with Dempster's quotient
    rule applied to it, then copied into the matrix."""
    full = m.frame.full_set
    if op == "average":
        return np.eye(full - 1)
    focal = m.focal
    if op == "dempster":
        image, k = _self_image(focal, full)
    jac = np.empty((full - 1, full - 1))
    for j in range(1, full):
        direction = {j: 1.0, full: -1.0}
        if op == "dubois_prade":
            raw, dk = _dubois_prade_products(focal, direction), 0.0
        else:
            raw, dk = _conjunctive(focal, direction)
        column = 2.0 * _dense(raw, full)[1:full]
        if op == "dempster":
            column = (column + 2.0 * dk * image[1:full]) / (1.0 - k)
        jac[:, j - 1] = column
    return jac


def bel_dense(v: np.ndarray, subset: int) -> float:
    return float(sum(v[a] for a in range(1, v.size) if a & subset == a))


def pl_dense(v: np.ndarray, subset: int) -> float:
    return float(sum(v[a] for a in range(1, v.size) if a & subset))


def pignistic_dense(v: np.ndarray, n: int) -> np.ndarray:
    p = np.zeros(n)
    for a in range(1, v.size):
        members = [i for i in range(n) if a >> i & 1]
        for i in members:
            p[i] += v[a] / len(members)
    return p


def pignistic_reference(m: MassFunction) -> list[float]:
    """``pignistic`` by testing every bit position of each focal set."""
    probs = [0.0] * m.frame.n
    for subset, value in m.focal.items():
        share = value / subset.bit_count()
        i = 0
        while subset:
            if subset & 1:
                probs[i] += share
            subset >>= 1
            i += 1
    return probs


def conjunctive_reference(f1, f2) -> tuple[dict[int, float], float]:
    """``mass._conjunctive`` as one pair loop, f1 outer and f2 inner, for any f2."""
    raw: dict[int, float] = {}
    k = 0.0
    for a, va in f1.items():
        for b, vb in f2.items():
            c = a & b
            if c:
                raw[c] = raw.get(c, 0.0) + va * vb
            else:
                k += va * vb
    return raw, k


def dubois_prade_loop_reference(f1, f2) -> dict[int, float]:
    """``mass._dubois_prade_loop`` as one pair loop, f1 outer and f2 inner, for any f2."""
    raw: dict[int, float] = {}
    for a, va in f1.items():
        for b, vb in f2.items():
            c = a & b
            if not c:
                c = a | b
            raw[c] = raw.get(c, 0.0) + va * vb
    return raw


def random_subsets(rng: np.random.Generator, n: int, count: int) -> list[int]:
    """``count`` distinct non-empty subsets of an n-state frame (n <= 62), in
    random order, drawn without listing all 2^n - 1 of them."""
    subsets: dict[int, None] = {}
    while len(subsets) < count:
        subsets[int(rng.integers(1, 1 << n))] = None
    return list(subsets)


def random_mass(
    rng: np.random.Generator, frame: FrameOfDiscernment, max_focal: int | None = None
) -> MassFunction:
    """A random mass function, sparse or dense depending on ``max_focal``."""
    subsets = np.arange(1, frame.full_set + 1)
    if max_focal is not None and max_focal < subsets.size:
        count = int(rng.integers(1, max_focal + 1))
        subsets = rng.choice(subsets, size=count, replace=False)
    weights = rng.random(subsets.size) + 1e-6
    weights /= weights.sum()
    return MassFunction(frame, {int(a): float(w) for a, w in zip(subsets, weights)})


def spectral_radius_power(jac: np.ndarray, max_squarings: int = 64) -> float:
    """Largest eigenvalue magnitude via normalized repeated squaring.

    Tracks ``||J^(2^i)||`` in log space; the Gelfand limit ``||J^m||^(1/m)``
    converges to the spectral radius for any matrix, including defective and
    complex-spectrum cases that defeat single-vector power iteration.
    """
    b = np.asarray(jac, dtype=float)
    norm = float(np.linalg.norm(b))
    if norm == 0.0:
        return 0.0
    b = b / norm
    log_scale = log(norm)
    power = 1
    estimate = exp(log_scale / power)
    for _ in range(max_squarings):
        b = b @ b
        norm = float(np.linalg.norm(b))
        if norm == 0.0:
            return 0.0
        b = b / norm
        log_scale = 2.0 * log_scale + log(norm)
        power *= 2
        previous, estimate = estimate, exp(log_scale / power)
        if abs(estimate - previous) <= 1e-13 * max(1.0, estimate):
            break
    return estimate


def from_products_reference(frame: FrameOfDiscernment, raw: dict[int, float]) -> MassFunction:
    """``mass._from_products`` dividing every entry by the total, 1.0 included."""
    total = fsum(raw.values())
    return MassFunction._trusted(frame, {a: v / total for a, v in raw.items() if v > 0.0})


def normalize_floats_reference(raw: list[float]) -> list[float]:
    """``mass._normalize_floats`` dividing every entry by the total, 1.0 included."""
    total = fsum(raw)
    out = [v / total for v in raw]
    if min(filter(None, out)) >= EPS_PRUNE:
        return out
    kept = [v if v >= EPS_PRUNE else 0.0 for v in out]
    total = fsum(kept)
    return [v / total for v in kept]


def renormalize_reference(m: MassFunction) -> MassFunction:
    """Rescale to total 1, drop masses below ``EPS_PRUNE``, then rescale again.

    The two-pass normalisation the run loop applied after every combination
    before ``renormalize`` became prune-only.
    """
    total = fsum(m.focal.values())
    kept = {a: v / total for a, v in m.focal.items() if v / total >= EPS_PRUNE}
    kept_total = fsum(kept.values())
    return MassFunction(m.frame, {a: v / kept_total for a, v in kept.items()})


def check_convergence(
    history: Sequence[Sequence[MassFunction]], eps: float = EPS_CONV
) -> bool:
    """True iff every agent is unchanged across every consecutive snapshot pair.

    ``history`` holds population snapshots from consecutive iterations; pass
    the last ``window + 1`` snapshots to test "unchanged for ``window``
    iterations".
    """
    if len(history) < 2:
        raise ValueError("need at least two snapshots to check convergence")
    for earlier, later in zip(history, history[1:]):
        for a, b in zip(earlier, later):
            if a is not b and not approx_eq(a, b, eps):
                return False
    return True


def evidence_focal_reference(
    frame: FrameOfDiscernment, singleton: int, q_i: float, epsilon: float
) -> dict[int, float]:
    """The evidence focal items by the ``min(max(...))`` clamp, with ``make_vacuous``
    for a clamped 0: ``evidence._evidence_mass`` before it clamped by two comparisons."""
    v = min(max(q_i + epsilon, 0.0), 1.0)
    if v == 0.0:
        return make_vacuous(frame).focal
    if v == 1.0:
        return {singleton: 1.0}
    return {singleton: v, frame.full_set: 1.0 - v}


def evidence_step_reference(
    agents: list[MassFunction],
    qualities: np.ndarray,
    config: SimConfig,
    rng: np.random.Generator,
) -> int:
    """``evidence_step`` that combines every gated update, certain agents too."""
    combine = get_combiner(config.operator)
    skips = 0
    gates = rng.random(len(agents))
    for idx in np.flatnonzero(gates < config.r):
        m = agents[idx]
        i = select_state(m, rng)
        epsilon = float(rng.standard_normal()) * config.sigma
        ev = evidence_mass(m.frame, i, float(qualities[i - 1]), epsilon)
        try:
            agents[idx] = renormalize(combine(m, ev))
        except TotalConflictError:
            skips += 1
    return skips


def run_reference(config: SimConfig) -> RunResult:
    """``run`` on ``MassFunction`` agents for every operator, through the public
    ``evidence_step`` and ``consensus_step``.

    The same loop, window, stride and samples as ``run``; the convergence check
    compares every agent with its value one iteration before.
    """
    qualities = default_qualities(config.n)
    rng = np.random.default_rng(config.seed)
    agents = [make_vacuous(FrameOfDiscernment(config.n))] * config.k
    skips = 0
    stride = config.trajectory_stride
    samples = [(0, *population_means(agents))] if stride else []
    prev = agents.copy()
    stable = 0
    convergence_iteration = None
    for t in range(1, config.max_iterations + 1):
        skips += evidence_step(agents, qualities, config, rng)
        if config.consensus:
            skips += consensus_step(agents, config, rng)
        unchanged = all(approx_eq(a, b, EPS_CONV) for a, b in zip(agents, prev))
        stable = stable + 1 if unchanged else 0
        prev = agents.copy()
        closed = stable >= config.convergence_window
        if stride and (t % stride == 0 or closed or t == config.max_iterations):
            samples.append((t, *population_means(agents)))
        if closed:
            convergence_iteration = t
            break
    iterations, bels, pl_best = zip(*samples) if samples else ((), (), ())
    return RunResult(
        config=config,
        converged=convergence_iteration is not None,
        convergence_iteration=convergence_iteration,
        steady_state=agents,
        trajectory_iterations=np.array(iterations, dtype=int),
        trajectory_bel=np.array(bels).reshape(-1, config.n),
        trajectory_pl_best=np.array(pl_best),
        dempster_skips=skips,
    )
