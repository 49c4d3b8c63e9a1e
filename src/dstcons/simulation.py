"""The iterated consensus dynamics: noisy evidential updating plus pairwise fusion.

Each iteration, every agent independently receives evidence about a
pignistically-selected state with probability ``r``; afterwards one random
pair of agents replaces both beliefs with their operator combination.  A run
ends when the whole population has been unchanged (within ``EPS_CONV``) for
``convergence_window`` consecutive iterations, or at the iteration cap.

``run`` holds the agents as a list of ``MassFunction``s, except under
averaging.  Under Dempster, Yager and Dubois & Prade it updates them with
``evidence_step`` and ``consensus_step``, and every update that combines
goes through this module's names ``select_state``, ``evidence_mass``,
``get_combiner`` and ``renormalize``, and ``approx_eq`` for convergence.  A
caller that replaces one of these names (``bench/tracing.py``'s spans,
``bench/checks.py``'s combination sampler, a test double) sees every such
update.  An agent certain of one state takes no combination: evidence for
that state could not move it.  It still makes the draws of an update, its
unused uniform as one raw 64-bit word on PCG64 (the generator ``run``
builds), which leaves the stream where ``random()`` would; on any other
generator it calls ``random()``.  Nor does a pair of agents that hold one
and the same focal set at exactly 1.0: their combination is that mass
again, so both keep their objects.

The steps record in ``replaced`` the mass of each agent they replace, the
first record of an iteration winning, and ``run`` checks convergence over
those agents alone: every other agent kept its object.  ``run`` draws each
consensus pair itself, from raw PCG64 words by numpy's own method
(``_word_pairs``), the pair ``_pair`` would draw from the same stream.

Averaging keeps every agent on the singletons and the whole frame S, so its
run holds each agent as the n + 1 floats ``[m({s_1}), ..., m({s_n}), m(S)]``
and builds mass functions only for ``steady_state``, whose focal sets it
lists in ascending subset order.  Its draws and every float it reports are
those of ``evidence_step`` and ``consensus_step`` on mass functions, but it
calls none of the names above.

Runs are strictly sequential and fully determined by the config seed;
distinct runs share no state and can execute in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import fsum, isfinite
from numbers import Real
from operator import add
from typing import Callable, Sequence

import numpy as np

# evidence_step builds evidence without evidence_mass's checks: its state
# comes from select_state.  It is bound under the public name, which
# bench/tracing.py wraps to time evidence and count clamped values.
from .evidence import _evidence_mass as evidence_mass
from .evidence import default_qualities, select_state
from .mass import (
    CERTAINTY_PRESERVING,
    FrameOfDiscernment,
    MassFunction,
    TotalConflictError,
    _normalize_floats,
    approx_eq,
    check_count,
    get_combiner,
    make_vacuous,
    renormalize,
)

# Componentwise tolerance for "unchanged" in convergence detection.
EPS_CONV = 1e-9


@dataclass(frozen=True)
class SimConfig:
    """Parameters of a single simulation run."""

    operator: str
    k: int = 100
    n: int = 3
    r: float = 0.05
    sigma: float = 0.0
    max_iterations: int = 5000
    consensus: bool = True
    seed: int = 0
    trajectory_stride: int = 0
    convergence_window: int = 100

    def __post_init__(self) -> None:
        get_combiner(self.operator)
        if not isinstance(self.consensus, bool):
            raise ValueError(f"consensus must be a bool, got {self.consensus!r}")
        check_count("n", self.n, 2)
        check_count("k", self.k, 2 if self.consensus else 1)
        check_count("max_iterations", self.max_iterations, 1)
        check_count("convergence_window", self.convergence_window, 1)
        check_count("trajectory_stride", self.trajectory_stride, 0)
        check_count("seed", self.seed, 0)
        for name in ("r", "sigma"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"evidence rate must lie in [0, 1], got {self.r}")
        if not (isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"noise sigma must be finite and >= 0, got {self.sigma}")


@dataclass
class RunResult:
    """Outcome of one run: convergence info, steady state, sampled trajectory."""

    config: SimConfig
    converged: bool
    convergence_iteration: int | None
    steady_state: list[MassFunction]
    trajectory_iterations: np.ndarray
    trajectory_bel: np.ndarray
    trajectory_pl_best: np.ndarray
    dempster_skips: int


def evidence_step(
    agents: list[MassFunction],
    qualities: np.ndarray,
    config: SimConfig,
    rng: np.random.Generator,
    replaced: dict[int, MassFunction] | None = None,
) -> int:
    """One round of evidential updating on ``agents``, in place; returns the skips.

    Each agent independently passes an evidence gate with probability ``r``,
    selects a state ``s_i`` from its pignistic distribution, and fuses the
    evidence mass for quality ``qualities[i - 1]`` plus Gaussian noise of
    standard deviation ``sigma`` into its belief.  A totally conflicting
    Dempster update is skipped, leaving the agent unchanged.  An agent
    certain of one state keeps its object when the operator is in
    ``CERTAINTY_PRESERVING``: it selects that state, and the update could not
    move it.  It makes the draws of the other agents (one uniform, one
    normal) and calls nothing.  Its uniform goes unused, so on PCG64 it is
    drawn as one raw word (``bit_generator.random_raw()``), the one word
    ``random()`` takes; any other generator draws it with ``random()``.
    Each agent replaced gets ``replaced.setdefault(index, old mass)``.
    """
    combine = get_combiner(config.operator)
    preserving = config.operator in CERTAINTY_PRESERVING
    random, normal = rng.random, rng.standard_normal
    bits = rng.bit_generator
    unused = bits.random_raw if type(bits) is np.random.PCG64 else random
    record = {}.setdefault if replaced is None else replaced.setdefault
    skips = 0
    gates = random(len(agents))
    quality = qualities.tolist()
    for idx in (gates < config.r).nonzero()[0].tolist():
        m = agents[idx]
        focal = m.focal
        if preserving and len(focal) == 1:
            (subset,) = focal
            if not subset & (subset - 1) and focal[subset] == 1.0:
                # select_state's one uniform, and the noise draw.
                unused()
                normal()
                continue
        i = select_state(m, rng)
        epsilon = normal() * config.sigma
        ev = evidence_mass(m.frame, 1 << (i - 1), quality[i - 1], epsilon)
        try:
            agents[idx] = renormalize(combine(m, ev))
        except TotalConflictError:
            skips += 1
        else:
            record(idx, m)
    return skips


def _pair(k: int, rng: np.random.Generator) -> tuple[int, int]:
    """Two distinct indices below ``k``, uniformly: ``i``, then ``j`` among the rest."""
    if k < 2:
        raise ValueError(f"consensus needs at least 2 agents, got {k}")
    i = int(rng.integers(k))
    j = int(rng.integers(k - 1))
    return i, j + (j >= i)


def _word_pairs(rng: np.random.Generator, k: int) -> Callable[[], tuple[int, int]]:
    """``_pair(k, rng)`` as a function of no arguments, drawn from raw PCG64 words.

    For a bound ``b <= 2**32``, numpy's ``integers(b)`` takes the low 32-bit
    half of a 64-bit word and holds the high half for its next such draw
    (PCG64's ``has_uint32`` and ``uinteger``).  It maps a half ``x`` to
    ``x * b >> 32``, and draws again while ``x * b mod 2**32`` is below
    ``2**32 mod b`` (Lemire, arXiv 1805.10941); ``integers(1)`` draws
    nothing.  The returned function does the same on ``random_raw()`` words
    and holds the high half itself.  Its pairs and the stream are those of
    ``_pair`` while nothing else draws 32-bit values from ``rng``:
    ``random()`` and ``standard_normal()`` take whole words.  Above 2**32
    agents numpy draws 64-bit values, and the function is ``_pair``.
    """
    if k > 1 << 32:
        return partial(_pair, k, rng)
    raw = rng.bit_generator.random_raw
    held = -1  # the high half of the last word, -1 once drawn

    def below(bound: int, threshold: int) -> int:
        nonlocal held
        while True:
            if held < 0:
                word = raw()
                x, held = word & 0xFFFFFFFF, word >> 32
            else:
                x, held = held, -1
            product = x * bound
            if product & 0xFFFFFFFF >= threshold:
                return product >> 32

    first, rest = (1 << 32) % k, (1 << 32) % (k - 1)

    def pair() -> tuple[int, int]:
        i = below(k, first)
        j = below(k - 1, rest) if k > 2 else 0
        return i, j + (j >= i)

    return pair


def consensus_step(
    agents: list[MassFunction],
    config: SimConfig,
    rng: np.random.Generator,
    replaced: dict[int, MassFunction] | None = None,
    pair: tuple[int, int] | None = None,
) -> int:
    """One pairwise fusion on ``agents``, in place; returns the skips (0 or 1).

    Two distinct agents, ``pair`` or else ``_pair(len(agents), rng)``, both
    adopt the combination of their beliefs, so both then hold the same
    ``MassFunction``.  A pair that holds one and the same focal set at
    exactly 1.0 is left alone: every operator returns that mass for it
    (A ∩ A = A, K = 0, and the product 1.0 totals exactly 1.0), so both keep
    their objects, which need not be one.  Under Dempster's rule a fully
    conflicting pair (K = 1) does not form consensus: the pair is left
    unchanged and the skip is counted.  Each agent replaced gets
    ``replaced.setdefault(index, old mass)``.
    """
    i, j = _pair(len(agents), rng) if pair is None else pair
    m1, m2 = agents[i], agents[j]
    focal = m1.focal
    if len(focal) == 1 and focal == m2.focal and 1.0 in focal.values() and m1.frame is m2.frame:
        return 0
    combine = get_combiner(config.operator)
    try:
        agents[i] = agents[j] = renormalize(combine(m1, m2))
    except TotalConflictError:
        return 1
    if replaced is not None:
        replaced.setdefault(i, m1)
        replaced.setdefault(j, m2)
    return 0


def population_means(agents: Sequence[MassFunction]) -> tuple[tuple[float, ...], float]:
    """Population means of Bel({s_j}) for every state, and of Pl({s_n}).

    Bel of a singleton is its own focal entry; Pl(s_n) sums the focal sets
    that contain ``s_n``.
    """
    n = agents[0].frame.n
    k = len(agents)
    best = 1 << (n - 1)
    bels = tuple(fsum(m.focal.get(1 << j, 0.0) for m in agents) / k for j in range(n))
    pl_best = fsum(fsum(v for a, v in m.focal.items() if a & best) for m in agents) / k
    return bels, pl_best


# Averaging's agents as float lists, 0.0 where a set is not focal.  The steps
# make the draws of evidence_step and consensus_step in the same order, and
# every float they compute is a sum of two terms or an fsum, which no order of
# the terms changes, so a run's outputs keep their bits.  A list is never
# mutated: the pair of a consensus step shares one, as a combined pair shares
# a mass.


def _average_evidence_step(
    agents: list[list[float]], quality: list[float], config: SimConfig,
    rng: np.random.Generator, replaced: dict[int, list[float]] | None = None,
) -> int:
    """``evidence_step`` for averaging's float-list agents; never skips."""
    n = len(quality)
    sigma = config.sigma
    random, normal = rng.random, rng.standard_normal
    record = {}.setdefault if replaced is None else replaced.setdefault
    gates = random(len(agents))
    for idx in (gates < config.r).nonzero()[0].tolist():
        a = agents[idx]
        # select_state: the pignistic p_j = m({s_j}) + m(S) / n, inverted as there.
        share = a[n] / n
        u = random()
        cum = 0.0
        for j in range(n):
            p = a[j] + share
            if p > 0.0:
                last = j
                cum += p
                if u < cum:
                    break
        else:
            j = last
        # The evidence {s_j}: v, S: 1 - v, then the pointwise mean.
        v = quality[j] + normal() * sigma
        mean = [0.5 * x for x in a]
        if v <= 0.0:
            mean[n] += 0.5
        elif v >= 1.0:
            mean[j] += 0.5
        else:
            mean[j] += 0.5 * v
            mean[n] += 0.5 * (1.0 - v)
        agents[idx] = _normalize_floats(mean)
        record(idx, a)
    return 0


def _average_consensus_step(
    agents: list[list[float]], config: SimConfig, rng: np.random.Generator,
    replaced: dict[int, list[float]] | None = None, pair: tuple[int, int] | None = None,
) -> int:
    """``consensus_step`` for averaging's float-list agents; never skips."""
    i, j = _pair(len(agents), rng) if pair is None else pair
    a, b = agents[i], agents[j]
    agents[i] = agents[j] = _normalize_floats([0.5 * x + 0.5 * y for x, y in zip(a, b)])
    if replaced is not None:
        replaced.setdefault(i, a)
        replaced.setdefault(j, b)
    return 0


def _average_means(agents: list[list[float]]) -> tuple[tuple[float, ...], float]:
    """``population_means`` of float-list agents.

    Pl({s_n}) of an agent is m({s_n}) + m(S), one rounding, as ``fsum`` of the two.
    """
    k = len(agents)
    *singletons, full = zip(*agents)
    bels = tuple(fsum(column) / k for column in singletons)
    return bels, fsum(map(add, singletons[-1], full)) / k


def _average_close(a: list[float], b: list[float], eps: float) -> bool:
    """``approx_eq`` of two float-list agents."""
    for x, y in zip(a, b):
        if abs(x - y) > eps:
            return False
    return True


def _average_masses(frame: FrameOfDiscernment, agents: list[list[float]]) -> list[MassFunction]:
    """The float-list agents as mass functions, focal sets in ascending order."""
    subsets = [1 << j for j in range(frame.n)] + [frame.full_set]
    return [MassFunction._trusted(frame, {s: v for s, v in zip(subsets, a) if v > 0.0})
            for a in agents]


def run(config: SimConfig) -> RunResult:
    """Execute a full run; deterministic given the config (including seed)."""
    qualities = default_qualities(config.n)
    rng = np.random.default_rng(config.seed)
    frame = FrameOfDiscernment(config.n)
    averaging = config.operator == "average"
    if averaging:
        qualities = qualities.tolist()
        agents = [[0.0] * config.n + [1.0]] * config.k
        evidence, consensus = _average_evidence_step, _average_consensus_step
        means, same = _average_means, _average_close
    else:
        agents = [make_vacuous(frame)] * config.k
        evidence, consensus = evidence_step, consensus_step
        means, same = population_means, approx_eq
    skips = 0
    stride = config.trajectory_stride
    samples: list[tuple[int, tuple[float, ...], float]] = []
    if stride:
        samples.append((0, *means(agents)))

    draw_pair = _word_pairs(rng, config.k) if config.consensus else None
    stable = 0
    convergence_iteration: int | None = None
    for t in range(1, config.max_iterations + 1):
        replaced: dict = {}
        skips += evidence(agents, qualities, config, rng, replaced)
        if config.consensus:
            skips += consensus(agents, config, rng, replaced, draw_pair())

        # An agent no step replaced kept its object and is unchanged.
        unchanged = all(same(agents[i], old, EPS_CONV) for i, old in replaced.items())
        stable = stable + 1 if unchanged else 0

        closed = stable >= config.convergence_window
        if stride and (t % stride == 0 or closed or t == config.max_iterations):
            samples.append((t, *means(agents)))
        if closed:
            convergence_iteration = t
            break

    iterations, bels, pl_best = zip(*samples) if samples else ((), (), ())
    return RunResult(
        config=config,
        converged=convergence_iteration is not None,
        convergence_iteration=convergence_iteration,
        steady_state=_average_masses(frame, agents) if averaging else agents,
        trajectory_iterations=np.array(iterations, dtype=int),
        trajectory_bel=np.array(bels).reshape(-1, config.n),
        trajectory_pl_best=np.array(pl_best),
        dempster_skips=skips,
    )
