"""Unit and property tests for mass functions and the combination operators,
and the names the package exports."""

from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dstcons
from dstcons import (
    EPS_NORM,
    FrameOfDiscernment,
    MassFunction,
    TotalConflictError,
    approx_eq,
    bel,
    combine_average,
    combine_dempster,
    combine_dubois_prade,
    combine_yager,
    conflict,
    evidence_mass,
    format_mass,
    get_combiner,
    make_vacuous,
    pignistic,
    pl,
    renormalize,
)
from dstcons import mass
from dstcons.mass import _dubois_prade_arrays, _dubois_prade_loop

from oracle import (
    combine_dense,
    conjunctive_reference,
    dense,
    dubois_prade_loop_reference,
    pignistic_reference,
    random_mass,
    random_subsets,
)

F2 = FrameOfDiscernment(2)
F3 = FrameOfDiscernment(3)

# Subset bitmasks for n=3: {s1}=1 {s2}=2 {s1,s2}=3 {s3}=4 {s1,s3}=5 {s2,s3}=6 S=7
HALF_S1 = MassFunction(F3, {1: 0.5, 7: 0.5})
HALF_S2 = MassFunction(F3, {2: 0.5, 7: 0.5})
QUARTERS = MassFunction(F3, {1: 0.25, 2: 0.25, 3: 0.25, 7: 0.25})
CAT_S1 = MassFunction(F3, {1: 1.0})
CAT_S2 = MassFunction(F3, {2: 1.0})
CAT_S3 = MassFunction(F3, {4: 1.0})


def assert_mass_equals(m: MassFunction, expected: dict, tol: float = 1e-12):
    keys = m.focal.keys() | expected.keys()
    for subset in keys:
        assert m.focal.get(subset, 0.0) == pytest.approx(
            expected.get(subset, 0.0), abs=tol
        ), f"subset {subset}"


class TestFrame:
    def test_rejects_single_state(self):
        with pytest.raises(ValueError):
            FrameOfDiscernment(1)

    def test_subset_helpers(self):
        assert F3.full_set == 7
        assert F3.singleton(3) == 4
        for i in (0, 4):
            with pytest.raises(ValueError, match=f"state index {i} outside 1..3"):
                F3.singleton(i)
        for i in (np.int64(2), True):
            with pytest.raises(ValueError, match="state index must be an integer"):
                F3.singleton(i)
        assert F3.members(5) == (1, 3)
        for subset in (0, 8):
            with pytest.raises(ValueError, match=f"subset index {subset} invalid"):
                F3.check_subset(subset)
        for subset in (np.int64(7), True):
            with pytest.raises(ValueError, match="subset index must be an integer"):
                F3.check_subset(subset)


class TestMassFunctionInvariants:
    def test_rejects_empty_set(self):
        with pytest.raises(ValueError):
            MassFunction(F3, {0: 0.5, 7: 0.5})

    def test_rejects_bool_key(self):
        with pytest.raises(ValueError, match="subset index must be an integer, got True"):
            MassFunction(F3, {True: 1.0})

    def test_rejects_numpy_integer_key(self):
        with pytest.raises(ValueError, match=r"subset index must be an integer, got np.int64\(7\)"):
            MassFunction(F3, {np.int64(7): 1.0})

    def test_rejects_zero_entry(self):
        with pytest.raises(ValueError):
            MassFunction(F3, {1: 0.0, 7: 1.0})

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            MassFunction(F3, {1: 0.5, 7: 0.4})

    def test_rendering(self):
        m = MassFunction(F3, {5: 0.25, 7: 0.75})
        assert format_mass(m) == "{s1,s3}:0.25; {s1,s2,s3}:0.75"
        assert str(m) == format_mass(m)


class TestVacuous:
    def test_n3(self):
        assert make_vacuous(F3).focal == {7: 1.0}

    def test_n2(self):
        assert make_vacuous(F2).focal == {3: 1.0}

    def test_pignistic_of_vacuous_n4(self):
        p = pignistic(make_vacuous(FrameOfDiscernment(4)))
        np.testing.assert_allclose(p, [0.25, 0.25, 0.25, 0.25])


class TestBelPl:
    def test_bel_categorical(self):
        assert bel(CAT_S3, 4) == 1.0

    def test_bel_vacuous_strict_subset(self):
        assert bel(make_vacuous(F3), 3) == 0.0

    def test_bel_enumerated(self):
        assert bel(QUARTERS, 3) == pytest.approx(0.75)

    def test_pl_vacuous(self):
        for subset in range(1, 8):
            assert pl(make_vacuous(F3), subset) == 1.0

    def test_pl_disjoint_categorical(self):
        assert pl(CAT_S3, 1) == 0.0

    def test_pl_enumerated(self):
        assert pl(QUARTERS, 1) == pytest.approx(0.75)

    def test_empty_set_query_rejected(self):
        with pytest.raises(ValueError):
            bel(QUARTERS, 0)
        with pytest.raises(ValueError):
            pl(QUARTERS, 0)


class TestPignistic:
    def test_vacuous_n3(self):
        np.testing.assert_allclose(pignistic(make_vacuous(F3)), [1 / 3] * 3)

    def test_split_example(self):
        m = MassFunction(F2, {1: 0.5, 3: 0.5})
        np.testing.assert_allclose(pignistic(m), [0.75, 0.25])

    def test_categorical(self):
        np.testing.assert_allclose(pignistic(CAT_S2), [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("n", [*range(2, 13), 40])
    def test_matches_bit_position_reference_exactly(self, n):
        rng = np.random.default_rng(n)
        frame = FrameOfDiscernment(n)
        for max_focal in (1, 3, 16, None):
            for _ in range(10):
                if n <= 12:
                    m = random_mass(rng, frame, max_focal)
                else:  # too wide to list every subset
                    count = int(rng.integers(1, (max_focal or 64) + 1))
                    subsets = random_subsets(rng, n, count)
                    m = MassFunction(frame, _with_values(rng, subsets, "mass"))
                # The second call reads every member list from the cache.
                assert pignistic(m) == pignistic_reference(m) == pignistic(m)

    @pytest.mark.parametrize("n", [2, 3, 8, 40])
    def test_singletons_beside_wider_sets_match_the_reference_exactly(self, n):
        # A singleton's mass is added whole, with no member list and no division.
        rng = np.random.default_rng(n)
        frame = FrameOfDiscernment(n)
        singletons = [1 << j for j in range(n)]
        wider = [a for a in random_subsets(rng, n, min(20, frame.full_set)) if a & (a - 1)]
        for _ in range(20):
            subsets = [*rng.permutation(singletons)[:3].tolist(),
                       *rng.permutation(wider)[:3].tolist()]
            rng.shuffle(subsets)
            m = MassFunction(frame, _with_values(rng, subsets, "mass"))
            assert pignistic(m) == pignistic_reference(m)


class TestConflict:
    def test_disjoint_categoricals(self):
        assert conflict(CAT_S1, CAT_S2) == 1.0

    def test_vacuous_never_conflicts(self):
        assert conflict(make_vacuous(F3), QUARTERS) == 0.0

    def test_partial(self):
        assert conflict(HALF_S1, HALF_S2) == pytest.approx(0.25)

    def test_frame_mismatch(self):
        with pytest.raises(ValueError):
            conflict(CAT_S1, make_vacuous(F2))


class TestDempster:
    def test_partial_conflict(self):
        out = combine_dempster(HALF_S1, HALF_S2)
        assert_mass_equals(out, {1: 1 / 3, 2: 1 / 3, 7: 1 / 3})

    def test_vacuous_is_neutral(self):
        out = combine_dempster(QUARTERS, make_vacuous(F3))
        assert_mass_equals(out, QUARTERS.focal)

    def test_total_conflict_raises(self):
        with pytest.raises(TotalConflictError):
            combine_dempster(CAT_S1, CAT_S2)

    def test_total_conflict_threshold_is_eps_conflict(self, monkeypatch):
        # K = 1 - 5e-10 is total conflict within 1e-9, but not within 1e-15.
        dust = MassFunction(F3, {2: 1 - 5e-10, 4: 5e-10})
        with pytest.raises(TotalConflictError):
            combine_dempster(dust, CAT_S3)
        monkeypatch.setattr(mass, "EPS_CONFLICT", 1e-15)
        assert combine_dempster(dust, CAT_S3).focal == {4: 1.0}
        # The sum-to-one check keeps EPS_NORM.
        MassFunction(F3, {4: 1 - 5e-10})
        with pytest.raises(ValueError, match="must total 1"):
            MassFunction(F3, {4: 1 - 2e-9})


class TestDuboisPrade:
    def test_partial_conflict(self):
        out = combine_dubois_prade(HALF_S1, HALF_S2)
        assert_mass_equals(out, {1: 0.25, 2: 0.25, 3: 0.25, 7: 0.25})

    def test_vacuous_is_neutral(self):
        out = combine_dubois_prade(QUARTERS, make_vacuous(F3))
        assert_mass_equals(out, QUARTERS.focal)

    def test_disjoint_pair_takes_union(self):
        out = combine_dubois_prade(CAT_S1, CAT_S2)
        assert_mass_equals(out, {3: 1.0})


DP_VALUES = ("mass", "signed", "tiny")


def _dp_operand(rng, n, count, values):
    """``count`` distinct subsets of an n-state frame in random order, with
    normalised masses, signed off-simplex values, or values whose products
    underflow to subnormals and to (signed) zeros."""
    subsets = rng.permutation(np.arange(1, 1 << n))[:count].tolist()
    return _with_values(rng, subsets, values)


def _with_values(rng, subsets, values):
    count = len(subsets)
    if values == "mass":
        v = rng.random(count) + 1e-6
        v /= v.sum()
    elif values == "signed":
        v = rng.normal(0.0, 1.0, count)
    else:
        v = rng.choice([0.0, 5e-324, 1e-200, -1e-200, 1e-160, -1e-160, 0.3, -0.7], count)
    return dict(zip(subsets, v.tolist()))


class TestDuboisPradeArrayKernel:
    """Wide D&P operands are combined on arrays, to the dict loop's exact items."""

    @staticmethod
    def assert_same_items(f1, f2):
        # Same keys, same insertion order, values equal.
        assert list(_dubois_prade_arrays(f1, f2).items()) == list(
            _dubois_prade_loop(f1, f2).items())

    @pytest.mark.parametrize("values", DP_VALUES)
    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_the_dict_loop_exactly(self, n, values):
        rng = np.random.default_rng([n, DP_VALUES.index(values)])
        # Pair counts from 4 to 360,000, on both sides of the crossover; 2
        # focal sets is an evidence operand; 255 x 255 spans 16 row blocks.
        counts = sorted({min(c, (1 << n) - 1) for c in (2, 7, 20, 30, 255, 600)})
        for c1 in counts:
            for c2 in counts:
                f1 = _dp_operand(rng, n, c1, values)
                f2 = _dp_operand(rng, n, c2, values)
                self.assert_same_items(f1, f2)

    def test_path_chosen_by_pair_count_and_frame_width(self, monkeypatch):
        taken = []
        monkeypatch.setattr(mass, "_dubois_prade_arrays", lambda f1, f2: taken.append(1))
        rng = np.random.default_rng(0)
        f20, f19, f21 = (_dp_operand(rng, 8, c, "mass") for c in (20, 19, 21))
        mass._dubois_prade_products(f19, f21)  # 399 pairs
        assert not taken
        mass._dubois_prade_products(f20, f20)  # 400 pairs
        assert len(taken) == 1
        wide = {1 << 16: 0.5, **_dp_operand(rng, 8, 19, "mass")}
        mass._dubois_prade_products(wide, f20)  # a 17-state subset
        assert len(taken) == 1


class TestTwoFocalProducts:
    """A two-focal second operand takes the product loops' unrolled branch,
    which must give the generic pair loop's items, in order, bit for bit."""

    @staticmethod
    def operands(rng, n, count, shape, values):
        """A ``count``-focal first operand and a two-focal second one: evidence
        ({s_i} and the frame, in either order), focal sets disjoint from every
        focal set of the first, or focal sets overlapping one of them."""
        full = (1 << n) - 1
        if shape == "disjoint":
            low = n // 2  # the first operand lives on states 1..low, the second above
            subsets = random_subsets(rng, low, min(count, (1 << low) - 1))
            second = [b << low for b in random_subsets(rng, n - low, 2)]
        else:
            subsets = random_subsets(rng, n, min(count, full))
            single = 1 << int(rng.integers(n))
            if shape == "evidence":
                second = [single, full]
            elif shape == "evidence_reversed":
                second = [full, single]
            else:
                first = subsets[0] | single
                other = next(b for b in random_subsets(rng, n, 2) if b != first)
                second = [first, other]
        return _with_values(rng, subsets, values), _with_values(rng, second, values)

    @pytest.mark.parametrize("values", DP_VALUES)
    @pytest.mark.parametrize("n", [*range(2, 13), 40])
    def test_matches_the_pair_loops_exactly(self, n, values):
        rng = np.random.default_rng([n, DP_VALUES.index(values), 2])
        shapes = ["evidence", "evidence_reversed", "overlapping"]
        if n >= 3:  # at n=2 one state is left for the second operand's two sets
            shapes.append("disjoint")
        for shape in shapes:
            for count in (1, 2, 3, 20, 100):
                f1, f2 = self.operands(rng, n, count, shape, values)
                raw, k = mass._conjunctive(f1, f2)
                ref_raw, ref_k = conjunctive_reference(f1, f2)
                assert list(raw.items()) == list(ref_raw.items())
                assert k == ref_k
                assert list(_dubois_prade_loop(f1, f2).items()) == list(
                    dubois_prade_loop_reference(f1, f2).items())


class TestYager:
    def test_partial_conflict(self):
        out = combine_yager(HALF_S1, HALF_S2)
        assert_mass_equals(out, {1: 0.25, 2: 0.25, 7: 0.5})

    def test_vacuous_is_neutral(self):
        out = combine_yager(QUARTERS, make_vacuous(F3))
        assert_mass_equals(out, QUARTERS.focal)

    def test_full_conflict_goes_to_universal_set(self):
        out = combine_yager(CAT_S1, CAT_S2)
        assert_mass_equals(out, {7: 1.0})


class TestAverage:
    def test_idempotent(self):
        out = combine_average(QUARTERS, QUARTERS)
        assert_mass_equals(out, QUARTERS.focal)

    def test_disjoint_categoricals(self):
        out = combine_average(CAT_S1, CAT_S2)
        assert_mass_equals(out, {1: 0.5, 2: 0.5})

    def test_pointwise_mean(self):
        out = combine_average(HALF_S1, HALF_S2)
        assert_mass_equals(out, {1: 0.25, 2: 0.25, 7: 0.5})

    def test_vacuous_not_neutral(self):
        out = combine_average(QUARTERS, make_vacuous(F3))
        assert not approx_eq(out, QUARTERS, 1e-3)


class TestRenormalize:
    def test_identity_on_normalized(self):
        out = renormalize(HALF_S1)
        assert_mass_equals(out, HALF_S1.focal)

    def test_returns_input_without_dust(self):
        assert renormalize(QUARTERS) is QUARTERS
        assert renormalize(HALF_S1) is HALF_S1

    def test_prunes_dust_then_rescales(self):
        m = MassFunction(F3, {1: 1 - 1e-15, 2: 1e-15})
        assert renormalize(m).focal == {1: 1.0}


class TestApproxEq:
    def test_reflexive_at_zero_tolerance(self):
        assert approx_eq(QUARTERS, QUARTERS, 0.0)

    def test_distinguishes(self):
        assert not approx_eq(make_vacuous(F3), CAT_S1, 1e-9)

    def test_tolerates_dust(self):
        shifted = MassFunction(F3, {1: 0.5 + 1e-12, 7: 0.5 - 1e-12})
        assert approx_eq(shifted, HALF_S1, 1e-9)


class TestFrameCheck:
    """The binary functions compare frames by value; a shared frame object is
    the run's case and skips the comparison."""

    OPERATIONS = [get_combiner(op) for op in ("dempster", "dubois_prade", "yager", "average")]
    OPERATIONS += [lambda m1, m2: approx_eq(m1, m2, 1e-9), conflict]

    @pytest.mark.parametrize("operation", OPERATIONS)
    def test_unequal_frame_is_refused(self, operation):
        for m1, m2 in ((HALF_S1, make_vacuous(F2)), (make_vacuous(F2), HALF_S1)):
            with pytest.raises(ValueError, match="frame mismatch: n=[23] vs n=[23]"):
                operation(m1, m2)

    @pytest.mark.parametrize("operation", OPERATIONS)
    def test_equal_frame_held_as_another_object_is_accepted(self, operation):
        other = MassFunction(FrameOfDiscernment(3), QUARTERS.focal)
        assert other.frame is not QUARTERS.frame
        assert operation(HALF_S1, other) == operation(HALF_S1, QUARTERS)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

ALL_COMBINERS = ["dempster", "dubois_prade", "yager", "average"]


@st.composite
def mass_pairs(draw):
    """Two mass functions over a shared frame with n in 2..4."""
    n = draw(st.integers(2, 4))
    frame = FrameOfDiscernment(n)

    def one():
        full = frame.full_set
        count = draw(st.integers(1, full))
        subsets = draw(st.permutations(range(1, full + 1)))[:count]
        weights = [draw(st.floats(1e-3, 1.0)) for _ in range(count)]
        total = sum(weights)
        return MassFunction(frame, {a: w / total for a, w in zip(subsets, weights)})

    return one(), one()


def _combine_or_skip(op, m1, m2):
    try:
        return get_combiner(op)(m1, m2)
    except TotalConflictError:
        return None


@settings(max_examples=150, deadline=None)
@given(mass_pairs())
def test_operators_match_bruteforce_oracle(pair):
    m1, m2 = pair
    n = m1.frame.n
    v1, v2 = dense(m1), dense(m2)
    for op in ALL_COMBINERS:
        out = _combine_or_skip(op, m1, m2)
        if out is None:
            continue
        expected = combine_dense(op, v1, v2, n)
        np.testing.assert_allclose(dense(out), expected, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(mass_pairs())
def test_operators_commute(pair):
    m1, m2 = pair
    for op in ALL_COMBINERS:
        a = _combine_or_skip(op, m1, m2)
        b = _combine_or_skip(op, m2, m1)
        if a is None or b is None:
            assert a is b is None
            continue
        assert approx_eq(a, b, EPS_NORM)


@settings(max_examples=150, deadline=None)
@given(mass_pairs())
def test_outputs_satisfy_mass_invariants(pair):
    m1, m2 = pair
    for op in ALL_COMBINERS:
        out = _combine_or_skip(op, m1, m2)
        if out is None:
            continue
        total = sum(out.focal.values())
        assert abs(total - 1.0) <= EPS_NORM
        assert all(v > 0 for v in out.focal.values())
        assert 0 not in out.focal


@settings(max_examples=100, deadline=None)
@given(mass_pairs())
def test_vacuous_neutral_for_nonaveraging(pair):
    m, _ = pair
    vac = make_vacuous(m.frame)
    for op in ("dempster", "dubois_prade", "yager"):
        assert approx_eq(get_combiner(op)(m, vac), m, 1e-12)


@settings(max_examples=150, deadline=None)
@given(mass_pairs())
def test_plausibility_belief_duality(pair):
    m, _ = pair
    full = m.frame.full_set
    for subset in range(1, full):  # proper non-empty subsets
        complement = full & ~subset
        assert pl(m, subset) == pytest.approx(1.0 - bel(m, complement), abs=EPS_NORM)
        assert bel(m, subset) <= pl(m, subset) + EPS_NORM


@settings(max_examples=150, deadline=None)
@given(mass_pairs())
def test_yager_universal_set_mass_equivalence(pair):
    # The universal-set mass can be written two ways: m1(S)m2(S) + K, or
    # 1 minus the intersection products over proper subsets.
    m1, m2 = pair
    full = m1.frame.full_set
    k = conflict(m1, m2)
    direct = m1.focal.get(full, 0.0) * m2.focal.get(full, 0.0) + k
    intersection_products = 0.0
    for a, va in m1.focal.items():
        for b, vb in m2.focal.items():
            c = a & b
            if c and c != full:
                intersection_products += va * vb
    assert direct == pytest.approx(1.0 - intersection_products, abs=EPS_NORM)
    out = combine_yager(m1, m2)
    assert out.focal.get(full, 0.0) == pytest.approx(direct, abs=EPS_NORM)


@settings(max_examples=150, deadline=None)
@given(mass_pairs())
def test_pignistic_totals_one(pair):
    m, _ = pair
    assert sum(pignistic(m)) == pytest.approx(1.0, abs=EPS_NORM)


@st.composite
def checked_operands(draw):
    """Two valid mass functions on one frame with n in 2..8.

    Sparse random pairs; pairs of simple support functions on two different
    singletons whose conflict K = (1 - d)^2 sits within a hair of Dempster's
    total-conflict limit; and pairs where one operand holds a subnormal mass.
    """
    n = draw(st.integers(2, 8))
    frame = FrameOfDiscernment(n)
    full = frame.full_set
    kind = draw(st.sampled_from(["random", "near_total_conflict", "subnormal"]))
    if kind == "near_total_conflict":
        d = 10.0 ** draw(st.floats(-12.0, -6.0))
        return (
            MassFunction(frame, {frame.singleton(1): 1.0 - d, full: d}),
            MassFunction(frame, {frame.singleton(n): 1.0 - d, full: d}),
        )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m1, m2 = random_mass(rng, frame, 8), random_mass(rng, frame, 8)
    if kind == "subnormal":
        tiny = draw(st.sampled_from([5e-324, 1e-310, 2.2e-308]))
        certain = draw(st.integers(1, full - 1))
        m1 = MassFunction(frame, {certain: 1.0, full: tiny})
    return m1, m2


@settings(max_examples=300, deadline=None)
@given(checked_operands())
def test_unchecked_results_pass_the_public_checks(pair):
    # Combiner and pruning results skip MassFunction's checks: rebuilding
    # each through the public constructor must succeed and change nothing.
    m1, m2 = pair
    outputs = [renormalize(m1), renormalize(m2)]
    for op in ALL_COMBINERS:
        out = _combine_or_skip(op, m1, m2)
        if out is not None:
            outputs += [out, renormalize(out)]
    for m in outputs:
        assert MassFunction(m.frame, m.focal) == m


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.floats(0.0, 1.0),
    st.floats(allow_nan=False),
)
def test_evidence_masses_pass_the_public_checks(state, q, epsilon):
    n, i = state
    m = evidence_mass(FrameOfDiscernment(n), i, q, epsilon)
    assert MassFunction(m.frame, m.focal) == m


# The names the benchmark imports from the package root.
BENCH_ROOT_NAMES = {
    "COMBINERS", "FrameOfDiscernment", "MassFunction", "SweepSpec", "TotalConflictError",
    "classify", "derive_seed", "emit_csv", "evidence_mass", "get_combiner",
    "numeric_jacobian", "renormalize", "run_sweep", "select_state",
}
# Every public name of the package root apart from its submodules: changing
# the user API means changing this list.
PUBLIC_NAMES = BENCH_ROOT_NAMES | {
    "CellSummary", "EPS_CONFLICT", "EPS_CONV", "EPS_NORM", "EPS_PRUNE", "FixedPointReport",
    "RunRecord", "RunResult", "SimConfig", "SweepResult", "approx_eq", "bel",
    "combine_average", "combine_dempster", "combine_dubois_prade", "combine_yager",
    "conflict", "default_qualities", "dp_polynomial_map", "format_mass", "make_vacuous",
    "pignistic", "pl", "population_means", "preset_spec", "reproduce", "run",
    "self_combine_residual",
}


def test_package_exports_exactly_the_user_api():
    exported = {
        name for name, value in vars(dstcons).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert exported == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 42
