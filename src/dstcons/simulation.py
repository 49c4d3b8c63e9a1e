"""The iterated consensus dynamics: noisy evidential updating plus pairwise fusion.

Each iteration, every agent independently receives evidence about a
pignistically-selected state with probability ``r``; afterwards one random
pair of agents replaces both beliefs with their operator combination.  A run
ends when the whole population has been unchanged (within ``EPS_CONV``) for
``convergence_window`` consecutive iterations, or at the iteration cap.

Runs are strictly sequential and fully determined by the config seed;
distinct runs share no state and can execute in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import fsum, isfinite
from numbers import Real
from operator import is_not
from typing import Sequence

import numpy as np

from .evidence import default_qualities, evidence_mass, select_state
from .mass import (
    CERTAINTY_PRESERVING,
    FrameOfDiscernment,
    MassFunction,
    TotalConflictError,
    approx_eq,
    bel,
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
    consensus_enabled: bool = True
    seed: int = 0
    trajectory_stride: int = 0
    convergence_window: int = 100

    def __post_init__(self) -> None:
        get_combiner(self.operator)
        if not isinstance(self.consensus_enabled, bool):
            raise ValueError(f"consensus_enabled must be a bool, got {self.consensus_enabled!r}")
        check_count("n", self.n, 2)
        check_count("k", self.k, 2 if self.consensus_enabled else 1)
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


def _fuse(combine, m1: MassFunction, m2: MassFunction) -> MassFunction | None:
    """``renormalize(combine(m1, m2))``, or None when the pair fully conflicts."""
    try:
        return renormalize(combine(m1, m2))
    except TotalConflictError:
        return None


def evidence_step(
    agents: list[MassFunction],
    qualities: np.ndarray,
    config: SimConfig,
    rng: np.random.Generator,
) -> int:
    """One round of evidential updating on ``agents``, in place; returns the skips.

    Each agent independently passes an evidence gate with probability ``r``,
    selects a state ``s_i`` from its pignistic distribution, and fuses the
    evidence mass for quality ``qualities[i - 1]`` plus Gaussian noise of
    standard deviation ``sigma`` into its belief.  A totally conflicting
    Dempster update is skipped, leaving the agent unchanged.  An agent
    certain of ``s_i`` keeps its object under evidence for ``s_i`` when the
    operator is in ``CERTAINTY_PRESERVING``: the update could not move it.
    """
    combine = get_combiner(config.operator)
    preserving = config.operator in CERTAINTY_PRESERVING
    skips = 0
    gates = rng.random(len(agents))
    quality = qualities.tolist()
    for idx in (gates < config.r).nonzero()[0].tolist():
        m = agents[idx]
        i = select_state(m, rng)
        epsilon = rng.standard_normal() * config.sigma
        if preserving and len(m.focal) == 1 and m.focal.get(1 << (i - 1)) == 1.0:
            continue
        ev = evidence_mass(m.frame, i, quality[i - 1], epsilon)
        updated = _fuse(combine, m, ev)
        if updated is None:
            skips += 1
        else:
            agents[idx] = updated
    return skips


def consensus_step(
    agents: list[MassFunction], config: SimConfig, rng: np.random.Generator
) -> int:
    """One pairwise fusion on ``agents``, in place; returns the skips (0 or 1).

    Two distinct agents are chosen uniformly at random and both adopt the
    combination of their beliefs, so both then hold the same ``MassFunction``.
    Under Dempster's rule a fully conflicting pair (K = 1) does not form
    consensus: the pair is left unchanged and the skip is counted.
    """
    k = len(agents)
    if k < 2:
        raise ValueError(f"consensus needs at least 2 agents, got {k}")
    i = int(rng.integers(k))
    j = int(rng.integers(k - 1))
    if j >= i:
        j += 1
    fused = _fuse(get_combiner(config.operator), agents[i], agents[j])
    if fused is None:
        return 1
    agents[i] = agents[j] = fused
    return 0


def population_mean_bel(agents: Sequence[MassFunction], subset: int) -> float:
    """Population mean of Bel(subset)."""
    return fsum(bel(m, subset) for m in agents) / len(agents)


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


def run(config: SimConfig) -> RunResult:
    """Execute a full run; deterministic given the config (including seed)."""
    qualities = default_qualities(config.n)
    rng = np.random.default_rng(config.seed)
    agents = [make_vacuous(FrameOfDiscernment(config.n))] * config.k
    skips = 0
    stride = config.trajectory_stride
    samples: list[tuple[int, tuple[float, ...], float]] = []
    if stride:
        samples.append((0, *population_means(agents)))

    prev = agents.copy()
    stable = 0
    convergence_iteration: int | None = None
    for t in range(1, config.max_iterations + 1):
        skips += evidence_step(agents, qualities, config, rng)
        if config.consensus_enabled:
            skips += consensus_step(agents, config, rng)

        # An agent that kept its object is unchanged: compare only the replaced
        # ones, in index order.
        unchanged = all(
            approx_eq(agents[i], prev[i], EPS_CONV)
            for i in compress(range(len(agents)), map(is_not, agents, prev))
        )
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

