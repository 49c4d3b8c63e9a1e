"""Tests for quality values, noisy evidence masses, and roulette selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstcons import (
    FrameOfDiscernment,
    MassFunction,
    bel,
    default_qualities,
    evidence_mass,
    make_vacuous,
    pignistic,
    select_state,
)
from dstcons.evidence import _evidence_mass
from oracle import evidence_focal_reference

F3 = FrameOfDiscernment(3)


class TestDefaultQualities:
    def test_n3(self):
        np.testing.assert_allclose(default_qualities(3), [0.25, 0.5, 0.75])

    def test_n5(self):
        np.testing.assert_allclose(
            default_qualities(5), [1 / 6, 1 / 3, 1 / 2, 2 / 3, 5 / 6]
        )

    def test_n10(self):
        np.testing.assert_allclose(
            default_qualities(10), np.arange(1, 11) / 11
        )

    def test_best_state_is_last(self):
        q = default_qualities(7)
        assert np.all(np.diff(q) > 0)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            default_qualities(1)


class TestEvidenceMass:
    def test_noiseless(self):
        m = evidence_mass(F3, 3, 0.75)
        assert m.focal == {4: 0.75, 7: 0.25}

    def test_clamps_to_vacuous(self):
        m = evidence_mass(F3, 1, 0.25, -0.4)
        assert m.focal == {7: 1.0}

    def test_clamps_to_categorical(self):
        m = evidence_mass(F3, 2, 0.5, 0.7)
        assert m.focal == {2: 1.0}

    def test_infinite_noise_clamps(self):
        assert evidence_mass(F3, 2, 0.5, float("inf")).focal == {2: 1.0}
        assert evidence_mass(F3, 2, 0.5, float("-inf")).focal == {7: 1.0}

    @pytest.mark.parametrize(
        "q, epsilon", [(float("nan"), 0.0), (0.5, float("nan")), (float("inf"), float("-inf"))]
    )
    def test_rejects_nan(self, q, epsilon):
        with pytest.raises(ValueError, match=r"q_i \+ epsilon must be a number"):
            evidence_mass(F3, 3, q, epsilon)

    def test_rejects_non_integer_state(self):
        with pytest.raises(ValueError, match="state index must be an integer"):
            evidence_mass(F3, np.int64(3), 0.5)

    # Values of q_i + epsilon at and around the clamp's edges: infinities,
    # -0.0, the smallest subnormal, the largest double below 1.
    EDGES = [float("-inf"), -0.5, -0.0, 0.0, 5e-324, 0.3, 1 - 2**-53, 1.0, 1.5, float("inf")]

    @pytest.mark.parametrize("value", EDGES)
    def test_clamp_matches_min_max_reference(self, value):
        # value + -0.0 is value, bit for bit, -0.0 included.
        expected = [(a, v.hex()) for a, v in
                    evidence_focal_reference(F3, 4, value, -0.0).items()]
        for m in (_evidence_mass(F3, 4, value, -0.0), evidence_mass(F3, 3, value, -0.0)):
            assert [(a, v.hex()) for a, v in m.focal.items()] == expected
            assert m.frame is F3

    def test_belief_equals_quality(self):
        for q in (0.1, 0.25, 0.5, 0.9):
            m = evidence_mass(F3, 2, q)
            assert bel(m, F3.singleton(2)) == q

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3),
        st.floats(0.0, 1.0),
        st.floats(-5.0, 5.0, allow_nan=False),
    )
    def test_always_valid_with_at_most_two_focal_sets(self, i, q, eps):
        m = evidence_mass(F3, i, q, eps)
        assert len(m.focal) <= 2
        singleton_mass = m.focal.get(F3.singleton(i), 0.0)
        assert 0.0 <= singleton_mass <= 1.0
        assert sum(m.focal.values()) == pytest.approx(1.0, abs=1e-12)


class TestSelectState:
    def test_degenerate_distribution(self):
        m = MassFunction(F3, {2: 1.0})
        rng = np.random.default_rng(5)
        assert all(select_state(m, rng) == 2 for _ in range(50))

    def test_deterministic_given_stream(self):
        m = MassFunction(F3, {1: 0.6, 6: 0.4})
        a = [select_state(m, np.random.default_rng(9)) for _ in range(1)]
        b = [select_state(m, np.random.default_rng(9)) for _ in range(1)]
        assert a == b

    def test_zero_probability_state_unselectable(self):
        m = MassFunction(F3, {1: 0.5, 2: 0.5})
        rng = np.random.default_rng(11)
        assert 3 not in {select_state(m, rng) for _ in range(20000)}

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("value", [1.0, 1 - 1e-10])
    def test_single_singleton_matches_reference(self, n, value):
        # An agent holding {s_i} alone selects s_i on every draw, and each call
        # takes exactly one random() from the stream: the generator ends where
        # a fresh one with the same seed ends after one random() per call.
        frame = FrameOfDiscernment(n)
        for i in range(1, n + 1):
            m = MassFunction(frame, {frame.singleton(i): value})
            rng, reference = np.random.default_rng(i), np.random.default_rng(i)
            for _ in range(10):
                assert select_state(m, rng) == i
                reference.random()
            assert rng.bit_generator.state == reference.bit_generator.state

    def test_rounding_gap_returns_last_positive_state(self):
        # Ten shares of 0.1 add up to 0.9999999999999999, so the largest draw
        # below 1 is not below the final cumulative value.
        class LargestDraw:
            def random(self):
                return float(np.nextafter(1.0, 0.0))

        m = make_vacuous(FrameOfDiscernment(10))
        cum = 0.0
        for p in pignistic(m):
            cum += p
        assert cum <= LargestDraw().random()
        assert select_state(m, LargestDraw()) == 10

    @staticmethod
    def _assert_frequencies_match_pignistic(m, seed, draws=100_000):
        rng = np.random.default_rng(seed)
        counts = np.zeros(m.frame.n)
        for _ in range(draws):
            counts[select_state(m, rng) - 1] += 1
        freqs = counts / draws
        probs = np.array(pignistic(m))
        sigma = np.sqrt(np.maximum(probs * (1 - probs), 1e-12) / draws)
        np.testing.assert_array_less(np.abs(freqs - probs), 3 * sigma + 1e-9)

    def test_vacuous_is_uniform(self):
        self._assert_frequencies_match_pignistic(
            MassFunction(F3, {7: 1.0}), seed=1234
        )

    def test_matches_pignistic_split(self):
        m = MassFunction(FrameOfDiscernment(2), {1: 0.5, 3: 0.5})
        self._assert_frequencies_match_pignistic(m, seed=99)
