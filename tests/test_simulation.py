"""Tests for the population dynamics: stepping, convergence, full runs."""

import json
import math
from collections import Counter

import numpy as np
import pytest

import dstcons.evidence as evidence
import dstcons.harness as harness
import dstcons.mass as mass
import dstcons.simulation as simulation
from dstcons import (
    FrameOfDiscernment,
    MassFunction,
    SimConfig,
    SweepSpec,
    TotalConflictError,
    approx_eq,
    bel,
    default_qualities,
    evidence_mass,
    get_combiner,
    make_vacuous,
    pignistic,
    pl,
    renormalize,
    run,
    run_sweep,
)
from dstcons.mass import CERTAINTY_PRESERVING, COMBINERS
from dstcons.simulation import consensus_step, evidence_step
from oracle import (
    check_convergence,
    conjunctive_reference,
    evidence_step_reference,
    pignistic_reference,
    renormalize_reference,
    run_reference,
)

F3 = FrameOfDiscernment(3)

# A small sweep over all four operators at both evidence-rate extremes, for
# paired replays of an engine change that must not move a bit.
REPLAY_SPEC = SweepSpec(
    operators=tuple(sorted(COMBINERS)), n_values=(3, 5), k=20,
    r_values=(0.05, 1.0), sigma_values=(0.0, 0.1), runs_per_cell=1,
    max_iterations=300,
)


def focal_items(result):
    """Each final agent's focal items in insertion order, or in ascending
    order for averaging, whose order says nothing: its run builds the masses
    from float lists at the end."""
    order = sorted if result.config.operator == "average" else list
    return [order(m.focal.items()) for m in result.steady_state]


def replay_outcome():
    """``REPLAY_SPEC``'s records (skips included) and every final agent's
    focal items (``focal_items``)."""
    sweep = run_sweep(REPLAY_SPEC, workers=1, keep_results=True)
    return sweep.records, [focal_items(result) for _, _, result in sweep.results]


class TestConfigValidation:
    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            SimConfig(operator="bogus")

    def test_unhashable_operator_is_refused(self):
        with pytest.raises(ValueError, match=r"unknown operator \['yager'\]"):
            SimConfig(operator=["yager"])

    def test_consensus_needs_two_agents(self):
        with pytest.raises(ValueError):
            SimConfig(operator="yager", k=1)
        SimConfig(operator="yager", k=1, consensus_enabled=False)

    def test_rate_range(self):
        with pytest.raises(ValueError):
            SimConfig(operator="yager", r=1.5)

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            SimConfig(operator="yager", sigma=-0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            SimConfig(operator="yager", sigma=sigma)

    @pytest.mark.parametrize("field", ["r", "sigma"])
    @pytest.mark.parametrize("value", ["0.5", None, True])
    def test_rates_must_be_real(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            SimConfig(operator="yager", **{field: value})

    @pytest.mark.parametrize(
        "field", ["k", "n", "max_iterations", "convergence_window", "seed"]
    )
    @pytest.mark.parametrize("value", [3.5, 4.0, True, "4", np.int64(4)])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(operator="yager", **{field: value})

    @pytest.mark.parametrize("value", ["false", None, 0, 1, np.bool_(False)])
    def test_consensus_flag_must_be_bool(self, value):
        # Read by truthiness, "false" would run with consensus.
        with pytest.raises(ValueError, match="consensus_enabled must be a bool"):
            SimConfig(operator="yager", consensus_enabled=value)


class TestEvidenceStep:
    def test_rate_zero_is_identity(self):
        config = SimConfig(operator="dubois_prade", k=20, n=3, r=0.0)
        agents = [make_vacuous(F3)] * 20
        before = agents.copy()
        skips = evidence_step(agents, default_qualities(3), config, np.random.default_rng(0))
        assert skips == 0
        assert all(a is b for a, b in zip(agents, before))

    @pytest.mark.parametrize("op", ["dempster", "dubois_prade", "yager"])
    def test_vacuous_agent_adopts_evidence(self, op):
        config = SimConfig(
            operator=op, k=1, n=3, r=1.0, sigma=0.0, consensus_enabled=False
        )
        agents = [make_vacuous(F3)]
        qualities = default_qualities(3)
        assert evidence_step(agents, qualities, config, np.random.default_rng(3)) == 0
        (m,) = agents
        singletons = [a for a in m.focal if a.bit_count() == 1]
        assert len(singletons) == 1
        i = F3.members(singletons[0])[0]
        q = qualities[i - 1]
        assert m.focal[singletons[0]] == pytest.approx(q)
        assert m.focal[F3.full_set] == pytest.approx(1 - q)

    def test_vacuous_agent_splits_evidence_under_averaging(self):
        # The universal set is not neutral for averaging: the update lands
        # halfway between ignorance and the evidence.
        config = SimConfig(
            operator="average", k=1, n=3, r=1.0, sigma=0.0, consensus_enabled=False
        )
        agents = [make_vacuous(F3)]
        qualities = default_qualities(3)
        assert evidence_step(agents, qualities, config, np.random.default_rng(3)) == 0
        (m,) = agents
        singletons = [a for a in m.focal if a.bit_count() == 1]
        assert len(singletons) == 1
        q = qualities[F3.members(singletons[0])[0] - 1]
        assert m.focal[singletons[0]] == pytest.approx(q / 2)
        assert m.focal[F3.full_set] == pytest.approx(1 - q / 2)

    def test_categorical_agent_is_fixed_under_dubois_prade(self):
        config = SimConfig(
            operator="dubois_prade", k=1, n=3, r=1.0, sigma=0.0, consensus_enabled=False
        )
        agents = [MassFunction(F3, {4: 1.0})]
        for _ in range(5):
            rng = np.random.default_rng(1)
            assert evidence_step(agents, default_qualities(3), config, rng) == 0
            assert agents[0].focal == {4: 1.0}

    @staticmethod
    def _count_combines(monkeypatch):
        calls = []
        lookup = simulation.get_combiner

        def counting(name):
            combine = lookup(name)

            def counted(m1, m2):
                calls.append(name)
                return combine(m1, m2)

            return counted

        monkeypatch.setattr(simulation, "get_combiner", counting)
        return calls

    @pytest.mark.parametrize("op", sorted(CERTAINTY_PRESERVING))
    def test_certain_agent_keeps_its_object_without_combining(self, op, monkeypatch):
        calls = self._count_combines(monkeypatch)
        config = SimConfig(
            operator=op, k=1, n=3, r=1.0, sigma=0.3, consensus_enabled=False
        )
        agent = MassFunction(F3, {4: 1.0})
        agents = [agent]
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert evidence_step(agents, default_qualities(3), config, rng) == 0
            assert agents[0] is agent
        assert calls == []

    @pytest.mark.parametrize(
        "op, value",
        [("average", 1.0)] + [(op, 1 - 1e-10) for op in sorted(CERTAINTY_PRESERVING)],
    )
    def test_update_that_can_move_the_agent_is_combined(self, op, value, monkeypatch):
        # Averaging moves a certain agent; a mass just short of 1 (buildable
        # only through the API) is not certain.
        calls = self._count_combines(monkeypatch)
        config = SimConfig(
            operator=op, k=1, n=3, r=1.0, sigma=0.0, consensus_enabled=False
        )
        agents = [MassFunction(F3, {4: value})]
        evidence_step(agents, default_qualities(3), config, np.random.default_rng(1))
        assert calls == [op]

    def test_total_conflict_against_evidence_is_skipped(self, monkeypatch):
        # Unreachable through pignistic selection (a state with zero
        # plausibility is never chosen), so force the selection.  The agent
        # is not certain: a certain agent's selection is known, and it calls
        # no select_state.
        monkeypatch.setattr(simulation, "select_state", lambda m, rng: 2)
        config = SimConfig(
            operator="dempster", k=1, n=3, r=1.0, sigma=0.0, consensus_enabled=False
        )
        agents = [MassFunction(F3, {1: 0.5, 5: 0.5})]
        qualities = np.array([0.5, 1.0, 0.5])
        skips = evidence_step(agents, qualities, config, np.random.default_rng(0))
        assert agents[0].focal == {1: 0.5, 5: 0.5}
        assert skips == 1

    @staticmethod
    def _noise_draws(monkeypatch, sigma, updates):
        # Capture the epsilon evidence_step hands to evidence_mass.  r=1 opens
        # every gate, and a fresh vacuous population each round keeps the
        # updates free of total conflict.
        seen = []
        evidence_mass = simulation.evidence_mass

        def capture(frame, i, q_i, epsilon=0.0):
            seen.append(epsilon)
            return evidence_mass(frame, i, q_i, epsilon)

        monkeypatch.setattr(simulation, "evidence_mass", capture)
        config = SimConfig(
            operator="yager", k=100, n=3, r=1.0, sigma=sigma, consensus_enabled=False
        )
        rng = np.random.default_rng(0)
        qualities = default_qualities(3)
        while len(seen) < updates:
            evidence_step([make_vacuous(F3)] * 100, qualities, config, rng)
        return np.array(seen)

    def test_zero_sigma_draws_zero_epsilon(self, monkeypatch):
        draws = self._noise_draws(monkeypatch, 0.0, 500)
        assert np.all(draws == 0.0)

    def test_noise_epsilon_scale(self, monkeypatch):
        draws = self._noise_draws(monkeypatch, 0.3, 20000)
        assert abs(draws.mean()) < 0.01
        assert draws.std() == pytest.approx(0.3, abs=0.01)


class TestConsensusStep:
    def test_vacuous_pair_stays_vacuous(self):
        config = SimConfig(operator="yager", k=2, n=3)
        agents = [make_vacuous(F3), make_vacuous(F3)]
        assert consensus_step(agents, config, np.random.default_rng(0)) == 0
        assert all(m.focal == {7: 1.0} for m in agents)

    def test_dempster_total_conflict_skips_pair(self):
        config = SimConfig(operator="dempster", k=2, n=3)
        agents = [MassFunction(F3, {1: 1.0}), MassFunction(F3, {2: 1.0})]
        skips = consensus_step(agents, config, np.random.default_rng(0))
        assert agents[0].focal == {1: 1.0}
        assert agents[1].focal == {2: 1.0}
        assert skips == 1

    def test_dubois_prade_resolves_conflict_to_union(self):
        config = SimConfig(operator="dubois_prade", k=2, n=3)
        agents = [MassFunction(F3, {1: 1.0}), MassFunction(F3, {2: 1.0})]
        assert consensus_step(agents, config, np.random.default_rng(0)) == 0
        assert agents[0].focal == {3: 1.0}
        assert agents[1] is agents[0]

    def test_pair_members_are_distinct(self):
        config = SimConfig(operator="average", k=2, n=3)
        rng = np.random.default_rng(123)
        agents = [MassFunction(F3, {1: 1.0}), MassFunction(F3, {2: 1.0})]
        consensus_step(agents, config, rng)
        # Averaging two distinct agents always mixes them.
        assert agents[0].focal == {1: 0.5, 2: 0.5}


class TestPopulationSize:
    """The steps draw gates and pair indices for the list they are given."""

    @pytest.mark.parametrize("size", [3, 8])
    def test_evidence_step_updates_every_agent_of_the_list(self, size):
        # config.k = 5 does not size the draws: at r = 1 every agent is updated.
        config = SimConfig(operator="yager", k=5, n=3, r=1.0)
        start = [make_vacuous(F3)] * size
        agents = start.copy()
        evidence_step(agents, default_qualities(3), config, np.random.default_rng(0))
        assert len(agents) == size
        assert all(new is not old for new, old in zip(agents, start))

    def test_consensus_step_needs_two_agents(self):
        config = SimConfig(operator="yager", k=5, n=3)
        agents = [make_vacuous(F3)]
        with pytest.raises(ValueError, match="consensus needs at least 2 agents, got 1"):
            consensus_step(agents, config, np.random.default_rng(0))


class TestCheckConvergence:
    def test_static_window(self):
        snapshot = [MassFunction(F3, {4: 1.0})] * 5
        history = [list(snapshot) for _ in range(101)]
        assert check_convergence(history)

    def test_single_change_breaks_it(self):
        stable = [MassFunction(F3, {4: 1.0})] * 5
        moved = stable.copy()
        moved[2] = MassFunction(F3, {2: 1.0})
        history = [list(stable) for _ in range(50)] + [moved]
        history += [list(stable) for _ in range(50)]
        assert not check_convergence(history)

    def test_requires_two_snapshots(self):
        with pytest.raises(ValueError):
            check_convergence([[make_vacuous(F3)]])


class TestRun:
    @pytest.mark.parametrize(
        "op, k, n", [("dubois_prade", 100, 3), ("average", 2, 2), ("yager", 10, 3)]
    )
    def test_agents_start_vacuous(self, op, k, n):
        # The t=0 sample is complete ignorance: Bel 0 for every state, Pl(best) 1.
        config = SimConfig(
            operator=op, k=k, n=n, r=0.0, max_iterations=3, trajectory_stride=1
        )
        result = run(config)
        assert result.trajectory_iterations[0] == 0
        assert result.trajectory_bel[0].tolist() == [0.0] * n
        assert result.trajectory_pl_best[0] == 1.0
        full = FrameOfDiscernment(n).full_set
        assert [m.focal for m in result.steady_state] == [{full: 1.0}] * k

    def test_static_run_converges_at_window(self):
        config = SimConfig(
            operator="dubois_prade", k=5, n=3, r=0.0, consensus_enabled=False, seed=1
        )
        result = run(config)
        assert result.converged
        assert result.convergence_iteration == 100
        assert all(m.focal == {7: 1.0} for m in result.steady_state)

    def test_determinism(self):
        config = SimConfig(
            operator="dempster", k=30, n=3, r=0.2, sigma=0.1, seed=77,
            max_iterations=400, trajectory_stride=25,
        )
        a, b = run(config), run(config)
        assert a.converged == b.converged
        assert a.convergence_iteration == b.convergence_iteration
        assert a.dempster_skips == b.dempster_skips
        np.testing.assert_array_equal(a.trajectory_iterations, b.trajectory_iterations)
        np.testing.assert_array_equal(a.trajectory_bel, b.trajectory_bel)
        np.testing.assert_array_equal(a.trajectory_pl_best, b.trajectory_pl_best)
        assert all(x.focal == y.focal for x, y in zip(a.steady_state, b.steady_state))

    def test_trajectory_sampling_and_bounds(self):
        config = SimConfig(
            operator="yager", k=20, n=3, r=0.3, sigma=0.1, seed=5,
            max_iterations=300, trajectory_stride=50,
        )
        result = run(config)
        iters = result.trajectory_iterations
        assert iters[0] == 0
        assert np.all(np.diff(iters) > 0)
        final = result.convergence_iteration if result.converged else 300
        assert iters[-1] == final
        assert np.all(result.trajectory_bel >= 0) and np.all(result.trajectory_bel <= 1)
        assert np.all(result.trajectory_pl_best >= 0)
        assert np.all(result.trajectory_pl_best <= 1)

    def test_averaging_does_not_converge(self):
        config = SimConfig(
            operator="average", k=20, n=3, r=0.1, sigma=0.1, seed=3, max_iterations=500
        )
        result = run(config)
        assert not result.converged
        assert result.convergence_iteration is None

    @pytest.mark.parametrize("op", ["dempster", "dubois_prade", "yager"])
    def test_steady_state_is_operator_and_evidence_fixed_point(self, op):
        config = SimConfig(operator=op, k=30, n=3, r=0.1, sigma=0.1, seed=11)
        result = run(config)
        assert result.converged
        combine = get_combiner(op)
        qualities = default_qualities(3)
        for m in result.steady_state:
            assert approx_eq(m, combine(m, m), 1e-6)
            i = int(np.argmax(pignistic(m))) + 1
            ev = evidence_mass(F3, i, qualities[i - 1], 0.0)
            assert approx_eq(m, combine(m, ev), 1e-6)

    @pytest.mark.parametrize("op", ["dempster", "dubois_prade", "yager"])
    def test_steady_state_belief_equals_plausibility(self, op):
        config = SimConfig(operator=op, k=30, n=3, r=0.1, sigma=0.1, seed=19)
        result = run(config)
        assert result.converged
        for j in range(1, 4):
            subset = F3.singleton(j)
            mean_bel = np.mean([bel(m, subset) for m in result.steady_state])
            mean_pl = np.mean([pl(m, subset) for m in result.steady_state])
            assert mean_bel == pytest.approx(mean_pl, abs=1e-6)

    def test_convergence_iteration_bounded(self):
        config = SimConfig(operator="dubois_prade", k=20, n=3, r=0.2, seed=2)
        result = run(config)
        if result.converged:
            assert result.convergence_iteration <= config.max_iterations

    @pytest.mark.parametrize("consensus", [True, False])
    @pytest.mark.parametrize("op", ["dempster", "dubois_prade", "yager", "average"])
    def test_windowed_check_agrees_with_incremental_detection(self, op, consensus):
        # Replay a run and keep explicit snapshots; the public windowed check
        # must fire at exactly the iteration run() reported.  Averaging never
        # settles here, so neither check may fire; Dempster with consensus
        # skips totally conflicting pairs.
        config = SimConfig(
            operator=op, k=10, n=3, r=0.3, sigma=0.3, seed=3,
            max_iterations=600, consensus_enabled=consensus,
        )
        result = run(config)
        assert result.converged == (op != "average")
        assert (result.dempster_skips > 0) == (op == "dempster" and consensus)
        t_conv = result.convergence_iteration

        rng = np.random.default_rng(config.seed)
        agents = [make_vacuous(F3)] * config.k
        qualities = default_qualities(config.n)
        window = config.convergence_window
        snapshots = [agents.copy()]
        detected = None
        for t in range(1, config.max_iterations + 1):
            evidence_step(agents, qualities, config, rng)
            if consensus:
                consensus_step(agents, config, rng)
            snapshots.append(agents.copy())
            if len(snapshots) >= window + 1 and check_convergence(
                snapshots[-(window + 1):]
            ):
                detected = t
                break
        assert detected == t_conv


class TestSingleNormalisation:
    """``run`` normalises once per update; the old second pass moved only ulps.
    Wide D&P products are summed on arrays, to the dict loop's exact bits.
    Averaging's float lists call no ``renormalize``, so its reference is the
    replay of the public steps on mass functions."""

    @pytest.mark.parametrize("op", ["dempster", "dubois_prade", "yager", "average"])
    def test_paired_replay_against_double_normalisation(self, op, monkeypatch):
        configs = [
            SimConfig(operator=op, k=20, n=n, r=r, sigma=0.1, seed=seed,
                      max_iterations=300)
            for seed, (n, r) in enumerate([(3, 0.05), (3, 1.0), (5, 0.05), (5, 1.0)])
        ]
        current = [run(config) for config in configs]
        replay = run_reference if op == "average" else run
        monkeypatch.setattr(simulation, "renormalize", renormalize_reference)
        reference = [replay(config) for config in configs]
        for a, b in zip(current, reference):
            assert a.convergence_iteration == b.convergence_iteration
            assert a.dempster_skips == b.dempster_skips
            for x, y in zip(a.steady_state, b.steady_state):
                assert x.focal.keys() == y.focal.keys()
                assert approx_eq(x, y, 1e-14)

    def test_paired_replay_against_the_dubois_prade_dict_loop(self, monkeypatch):
        # Seed 5 is the n=5 run that reaches the array path; seeds 0 and 5 at
        # n=10 take seconds on the dict loop.
        configs = [
            SimConfig(operator="dubois_prade", k=30, n=n, r=r, sigma=sigma, seed=seed,
                      max_iterations=300, trajectory_stride=10)
            for n, r, sigma, seeds in [(5, 0.5, 0.2, range(6)), (8, 0.05, 0.0, range(1, 5)),
                                       (10, 0.05, 0.0, range(1, 5))]
            for seed in seeds
        ]
        arrays = mass._dubois_prade_arrays
        array_calls = []

        def counted(f1, f2):
            array_calls.append(1)
            return arrays(f1, f2)

        def replay():
            """Each run, and the n of the runs that reached the array path."""
            results, reached = [], set()
            for config in configs:
                array_calls.clear()
                results.append(run(config))
                if array_calls:
                    reached.add(config.n)
            return results, reached

        monkeypatch.setattr(mass, "_dubois_prade_arrays", counted)
        current, reached = replay()
        assert reached == {5, 8, 10}
        monkeypatch.setattr(mass, "_DP_ARRAY_MIN_PAIRS", math.inf)
        reference, reached = replay()
        assert not reached
        for a, b in zip(current, reference):
            assert a.convergence_iteration == b.convergence_iteration
            assert a.dempster_skips == b.dempster_skips
            for field in ("trajectory_iterations", "trajectory_bel", "trajectory_pl_best"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
            assert [list(m.focal.items()) for m in a.steady_state] == [
                list(m.focal.items()) for m in b.steady_state]


class TestAveragingFloatLists:
    """Averaging's run holds each agent as n + 1 floats, bit for bit the run of
    the public steps on mass functions."""

    CONFIGS = [
        SimConfig(operator="average", k=20, n=n, r=r, sigma=sigma,
                  consensus_enabled=consensus, seed=seed, max_iterations=200,
                  convergence_window=40, trajectory_stride=7)
        for n in (2, 3, 10) for r in (0.002, 0.3, 1.0) for sigma in (0.0, 0.3)
        for consensus in (True, False) for seed in (0, 1)
    ]

    @staticmethod
    def _watch(monkeypatch):
        """Record the cases the mass-function path meets: pruning, evidence
        clamped to 0 or 1, and an agent holding one singleton."""
        met = set()
        prune, build = simulation.renormalize, simulation.evidence_mass
        select = simulation.select_state

        def pruning(m):
            out = prune(m)
            if out is not m:
                met.add("pruned")
            return out

        def clamping(frame, singleton, q_i, epsilon):
            if q_i + epsilon <= 0.0:
                met.add("v=0")
            if q_i + epsilon >= 1.0:
                met.add("v=1")
            return build(frame, singleton, q_i, epsilon)

        def selecting(m, rng):
            if len(m.focal) == 1 and min(m.focal).bit_count() == 1:
                met.add("one singleton")
            return select(m, rng)

        monkeypatch.setattr(simulation, "renormalize", pruning)
        monkeypatch.setattr(simulation, "evidence_mass", clamping)
        monkeypatch.setattr(simulation, "select_state", selecting)
        return met

    def test_float_lists_match_the_mass_function_path(self, monkeypatch):
        current = [run(config) for config in self.CONFIGS]
        met = self._watch(monkeypatch)
        reference = [run_reference(config) for config in self.CONFIGS]
        # Holding one singleton needs the frame pruned away, some 40 halvings
        # by certain evidence in a row: the grid never gets there, so the step
        # test below starts agents there.
        assert met == {"pruned", "v=0", "v=1"}
        for a, b in zip(current, reference):
            assert a.convergence_iteration == b.convergence_iteration
            assert a.dempster_skips == b.dempster_skips == 0
            for field in ("trajectory_iterations", "trajectory_bel", "trajectory_pl_best"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
            assert focal_items(a) == focal_items(b)

    @pytest.mark.parametrize("seed", range(4))
    def test_steps_match_from_agents_holding_one_singleton(self, seed, monkeypatch):
        # One draw selects the state of an agent holding one singleton: the
        # pignistic inversion returns that state for every draw.  Evidence
        # for one state prunes the dust on the other.
        full = F3.full_set
        subsets = (1, 2, 4, full)
        masses = [MassFunction(F3, focal) for focal in (
            {1: 1.0}, {4: 1.0}, {2: 0.5, 4: 0.5}, {1: 0.25, 2: 0.25, full: 0.5},
            {full: 1.0}, {1: 1e-13, 2: 1e-13, full: 1 - 2e-13})]
        floats = [[m.focal.get(a, 0.0) for a in subsets] for m in masses]
        config = SimConfig(operator="average", k=len(masses), n=3, r=1.0, sigma=0.3)
        qualities = default_qualities(3)
        met = self._watch(monkeypatch)
        by_mass, by_floats = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(30):
            evidence_step(masses, qualities, config, by_mass)
            consensus_step(masses, config, by_mass)
            simulation._average_evidence_step(floats, qualities.tolist(), config, by_floats)
            simulation._average_consensus_step(floats, config, by_floats)
            assert floats == [[m.focal.get(a, 0.0) for a in subsets] for m in masses]
        assert {"pruned", "one singleton"} <= met


class TestCertainAgentShortcut:
    """Evidence for the state a certain agent holds is skipped, bit for bit."""

    @staticmethod
    def _keeps_certainty(op, frame, i, q, eps):
        certain = MassFunction(frame, {frame.singleton(i): 1.0})
        fused = renormalize(get_combiner(op)(certain, evidence_mass(frame, i, q, eps)))
        return fused.focal == {frame.singleton(i): 1.0}

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_exactly_the_preserving_rules_keep_certainty(self, n):
        rng = np.random.default_rng(n)
        # Seeded masses, then v = 0, v = 1, clamped below and above, subnormal.
        evidence = list(zip(rng.random(20).tolist(), rng.normal(0, 0.1, 20).tolist()))
        evidence += [(0.0, 0.0), (1.0, 0.0), (0.3, -0.5), (0.7, 0.5)]
        evidence += [(5e-324, 0.0), (1e-310, 0.0)]
        frame = FrameOfDiscernment(n)
        for op in COMBINERS:
            holds = all(
                self._keeps_certainty(op, frame, i, q, eps)
                for i in range(1, n + 1)
                for q, eps in evidence
            )
            assert holds == (op in CERTAINTY_PRESERVING), op

    @staticmethod
    def _stream(rng):
        """The bit generator's state as plain values that compare with ==."""
        return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
    @pytest.mark.parametrize("op", sorted(CERTAINTY_PRESERVING))
    def test_mixed_population_leaves_the_reference_stream(self, op, bit_generator):
        # The reference draws a certain agent's uniform with random(); on
        # PCG64 the step draws one raw word, on MT19937 it must call random().
        frame = FrameOfDiscernment(3)
        focal = [{1: 1.0}, {2: 1.0}, {4: 1.0}, {7: 1.0}, {1: 0.5, 7: 0.5},
                 {2: 0.25, 6: 0.25, 7: 0.5}, {4: 1.0}, {3: 0.6, 4: 0.4}]
        config = SimConfig(operator=op, k=len(focal), n=3, r=0.6, sigma=0.3)
        qualities = default_qualities(3)
        fast = [MassFunction(frame, f) for f in focal]
        reference = fast.copy()
        rngs = [np.random.Generator(bit_generator(5)) for _ in range(2)]
        for _ in range(25):
            assert (evidence_step(fast, qualities, config, rngs[0])
                    == evidence_step_reference(reference, qualities, config, rngs[1]))
            assert ([list(m.focal.items()) for m in fast]
                    == [list(m.focal.items()) for m in reference])
            assert self._stream(rngs[0]) == self._stream(rngs[1])
        assert sum(m.focal in ({1: 1.0}, {2: 1.0}, {4: 1.0}) for m in fast) >= 3

    def test_a_raw_word_is_random_on_pcg64_only(self):
        # Why the step binds the raw draw on PCG64 alone: MT19937's random()
        # takes two 32-bit words.
        for bit_generator, same in ((np.random.PCG64, True), (np.random.MT19937, False)):
            by_random, by_raw = (np.random.Generator(bit_generator(3)) for _ in range(2))
            by_random.random()
            by_raw.bit_generator.random_raw()
            assert (self._stream(by_random) == self._stream(by_raw)) is same

    def test_paired_replay_against_evidence_step_without_shortcut(self, monkeypatch):
        current = replay_outcome()
        monkeypatch.setattr(simulation, "evidence_step", evidence_step_reference)
        assert replay_outcome() == current


class TestUncheckedConstruction:
    """Masses built from checked masses skip the constructor's checks, bit for bit.

    Every mass that a run's combiners, ``evidence_mass`` and ``renormalize``
    return is rebuilt by the checked constructor, whatever route built it.
    Averaging runs as ``run_reference``, the public steps on mass functions,
    whose outputs are its float lists' bit for bit (``TestAveragingFloatLists``).
    """

    NAMES = ("combine", "evidence_mass", "renormalize")

    def _check_every_mass(self, monkeypatch):
        """Patch the checks in; returns the per-(operator, name) counters of
        calls, checked masses and total conflicts."""
        operator = [None]
        calls, checked, conflicts = Counter(), Counter(), Counter()

        def checking(name, fn):
            def rebuilt(*args):
                key = (operator[0], name)
                calls[key] += 1
                try:
                    m = fn(*args)
                except TotalConflictError:
                    conflicts[key] += 1
                    raise
                m = MassFunction(m.frame, m.focal)
                checked[key] += 1
                return m
            return rebuilt

        def running(config):
            operator[0] = config.operator
            return (run_reference if config.operator == "average" else run)(config)

        lookup = simulation.get_combiner
        monkeypatch.setattr(harness, "run", running)
        monkeypatch.setattr(simulation, "get_combiner", lambda op: checking("combine", lookup(op)))
        for name in self.NAMES[1:]:
            monkeypatch.setattr(simulation, name, checking(name, getattr(simulation, name)))
        return calls, checked, conflicts

    def test_paired_replay_with_every_mass_checked(self, monkeypatch):
        unchecked = replay_outcome()
        calls, checked, conflicts = self._check_every_mass(monkeypatch)
        assert replay_outcome() == unchecked
        assert checked + conflicts == calls
        assert set(checked) == {(op, name) for op in COMBINERS for name in self.NAMES}

    def test_a_broken_normalisation_is_caught(self, monkeypatch):
        self._check_every_mass(monkeypatch)
        build = mass._from_products
        broken = []

        def once_unnormalised(frame, raw):
            m = build(frame, raw)
            if not broken:
                broken.append(m)
                m.focal = {a: 2.0 * v for a, v in m.focal.items()}
            return m

        monkeypatch.setattr(mass, "_from_products", once_unnormalised)
        with pytest.raises(ValueError, match="masses must total 1"):
            replay_outcome()
        assert len(broken) == 1


class TestWideFrame:
    """The run path builds no per-frame table: a run at n=40 needs no 2^40 entries."""

    @staticmethod
    def outcome(config):
        result = run(config)
        return (result.convergence_iteration, result.dempster_skips,
                [list(m.focal.items()) for m in result.steady_state],
                result.trajectory_bel.tolist(), result.trajectory_pl_best.tolist())

    @pytest.mark.parametrize("op", ["dempster", "yager"])
    def test_n40_run_matches_the_reference_loops(self, op, monkeypatch):
        config = SimConfig(operator=op, k=10, n=40, r=0.3, sigma=0.1, seed=4,
                           max_iterations=50, trajectory_stride=5)
        current = self.outcome(config)
        pairs = []

        def counted(f1, f2):
            pairs.append(len(f1) * len(f2))
            return conjunctive_reference(f1, f2)

        monkeypatch.setattr(mass, "_conjunctive", counted)
        monkeypatch.setattr(evidence, "pignistic", pignistic_reference)
        assert self.outcome(config) == current
        assert max(pairs) > 2  # some operand held more than one focal set
