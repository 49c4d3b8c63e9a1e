"""Tests for self-combination residuals, the n=3 polynomial map, and stability."""

import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest

from dstcons import (
    COMBINERS,
    FrameOfDiscernment,
    MassFunction,
    TotalConflictError,
    classify,
    combine_dubois_prade,
    conflict,
    dp_polynomial_map,
    get_combiner,
    make_vacuous,
    numeric_jacobian,
    self_combine_residual,
)
from dstcons.fixedpoint import MAX_JACOBIAN_STATES, _dense, _self_image
from dstcons.mass import _conjunctive, _dubois_prade_products
from oracle import combine_dense, jacobian_exact, random_mass, spectral_radius_power

F3 = FrameOfDiscernment(3)

# Every operator x CLI candidate (singletons, then vacuous) at these frame
# sizes, with floats at repr precision and a hash of the Jacobian's bytes, so
# a last-bit change anywhere in the fixed-point analysis shows.
GOLDEN_FIXEDPOINTS = Path(__file__).parent / "golden" / "fixedpoints.csv"
GOLDEN_FIXEDPOINT_STATES = (2, 3, 5, 8)
GOLDEN_FIXEDPOINT_COLUMNS = (
    "n", "operator", "subset", "residual", "spectral_radius", "classification",
    "jacobian_sha256",
)

# dp_polynomial_map coordinate order: {s1},{s2},{s3},{s1,s2},{s1,s3},{s2,s3};
# the matching subset bitmasks.
DP_SUBSETS = (1, 2, 4, 3, 5, 6)


def _random_simplex_mass(rng, frame):
    w = rng.dirichlet(np.ones(frame.full_set))
    return MassFunction(
        frame, {a: float(w[a - 1]) for a in range(1, frame.full_set + 1) if w[a - 1] > 0}
    )


def fixed_point_golden_rows():
    rows = []
    for n in GOLDEN_FIXEDPOINT_STATES:
        frame = FrameOfDiscernment(n)
        for op in sorted(COMBINERS):
            for m in cli_candidates(frame):
                report = classify(op, m)
                jac = numeric_jacobian(op, m)
                rows.append([
                    str(n), op, frame.subset_label(next(iter(m.focal))),
                    repr(report.residual), repr(report.spectral_radius),
                    report.classification,
                    hashlib.sha256(jac.tobytes()).hexdigest(),
                ])
    return rows


def write_fixed_point_golden(path=GOLDEN_FIXEDPOINTS):
    """Regenerate the golden file (only for a declared change to the analysis)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(GOLDEN_FIXEDPOINT_COLUMNS)
        writer.writerows(fixed_point_golden_rows())


def cli_candidates(frame):
    """The points ``fixedpoints`` reports on: the singletons, then the vacuous mass."""
    return [
        MassFunction(frame, {frame.singleton(i): 1.0}) for i in range(1, frame.n + 1)
    ] + [make_vacuous(frame)]


def _mass_from_dp_coords(x):
    focal = {subset: float(v) for subset, v in zip(DP_SUBSETS, x) if v > 0}
    rest = 1.0 - float(np.sum(x))
    if rest > 0:
        focal[7] = rest
    return MassFunction(F3, focal)


class TestResiduals:
    @pytest.mark.parametrize("op", ["dempster", "dubois_prade", "yager"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_categoricals_are_fixed_points(self, op, n):
        frame = FrameOfDiscernment(n)
        for i in range(1, n + 1):
            m = MassFunction(frame, {frame.singleton(i): 1.0})
            assert self_combine_residual(op, m) < 1e-10

    def test_averaging_is_idempotent(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = _random_simplex_mass(rng, F3)
            assert self_combine_residual("average", m) < 1e-12

    def test_vacuous_is_dubois_prade_fixed_point(self):
        assert self_combine_residual("dubois_prade", make_vacuous(F3)) == 0.0


class TestPolynomialMap:
    def test_categorical_maps_to_itself(self):
        x = np.array([1.0, 0, 0, 0, 0, 0])
        np.testing.assert_allclose(dp_polynomial_map(x), x)

    def test_vacuous_maps_to_zero_free_coordinates(self):
        np.testing.assert_allclose(dp_polynomial_map(np.zeros(6)), np.zeros(6))

    def test_matches_generic_combination_on_random_points(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            w = rng.dirichlet(np.ones(7))
            x = w[:6]
            m = _mass_from_dp_coords(x)
            image = dp_polynomial_map(x)
            combined = combine_dubois_prade(m, m)
            generic = np.array([combined.focal.get(a, 0.0) for a in DP_SUBSETS])
            np.testing.assert_allclose(image, generic, atol=1e-12)

    def test_rejects_points_off_the_simplex(self):
        with pytest.raises(ValueError):
            dp_polynomial_map(np.array([-0.2, 0.3, 0.3, 0.2, 0.2, 0.2]))
        with pytest.raises(ValueError):
            dp_polynomial_map(np.full(6, 0.3))
        with pytest.raises(ValueError, match="outside the mass simplex"):
            dp_polynomial_map(np.full(6, np.nan))
        with pytest.raises(ValueError):
            dp_polynomial_map(np.zeros(5))


def _off_simplex_image(op, focal, full):
    """The self-combination map that ``numeric_jacobian`` differentiates, by bitmask."""
    if op == "dempster":
        return _self_image(focal, full)[0]
    if op == "dubois_prade":
        return _dense(_dubois_prade_products(focal, focal), full)
    raw, k = _conjunctive(focal, focal)
    raw[full] = raw.get(full, 0.0) + k
    return _dense(raw, full)


class TestImageExtension:
    @pytest.mark.parametrize("op", ["dempster"])
    def test_matches_generic_self_combination_inside_simplex(self, op):
        rng = np.random.default_rng(3)
        combine = get_combiner(op)
        for _ in range(50):
            m = _random_simplex_mass(rng, F3)
            image, k = _self_image(m.focal, F3.full_set)
            assert k == conflict(m, m)
            expected = combine(m, m)
            for a in range(1, 8):
                assert image[a] == pytest.approx(expected.focal.get(a, 0.0), abs=1e-12)

    @pytest.mark.parametrize("op", ["dempster", "dubois_prade", "yager"])
    def test_matches_dense_oracle_off_simplex(self, op):
        # The oracle shares no code with the library, and the draws have
        # negative entries and totals away from 1, so this pins the polynomial
        # extension itself, bit for bit.
        rng = np.random.default_rng(2718)
        checked = skipped = 0
        for n in (2, 3, 4):
            for _ in range(200):
                coords = rng.uniform(-0.6, 1.0, size=1 << n)
                coords[rng.random(coords.size) < 0.25] = 0.0
                coords[0] = 0.0
                assert np.any(coords < 0.0) or abs(coords.sum() - 1.0) > 1e-9
                try:
                    expected = combine_dense(op, coords, coords, n)
                except TotalConflictError:
                    skipped += 1
                    continue
                focal = {a: float(v) for a, v in enumerate(coords) if v != 0.0}
                np.testing.assert_array_equal(
                    _off_simplex_image(op, focal, coords.size - 1), expected
                )
                checked += 1
        assert checked >= 3 * skipped


class TestJacobian:
    def test_dubois_prade_categorical_is_contractive(self):
        m = MassFunction(F3, {1: 1.0})
        jac = numeric_jacobian("dubois_prade", m)
        assert jac.shape == (6, 6)
        eigenvalues = np.linalg.eigvals(jac)
        assert np.all(np.abs(eigenvalues) < 1.0)

    def test_averaging_jacobian_is_identity(self):
        rng = np.random.default_rng(12)
        m = _random_simplex_mass(rng, F3)
        jac = numeric_jacobian("average", m)
        np.testing.assert_allclose(jac, np.eye(6), atol=1e-9)
        assert classify("average", m).spectral_radius == pytest.approx(1.0, abs=1e-9)

    def test_dubois_prade_vacuous_is_expanding(self):
        assert classify("dubois_prade", make_vacuous(F3)).spectral_radius >= 1.0

    @pytest.mark.parametrize("op", ["dempster", "dubois_prade", "yager", "average"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_exact_jacobian(self, op, n):
        # Every CLI candidate plus three interior points, where Dempster's
        # conflict is nonzero and its quotient rule contributes.
        frame = FrameOfDiscernment(n)
        rng = np.random.default_rng(n)
        points = [*cli_candidates(frame), *(random_mass(rng, frame) for _ in range(3))]
        for m in points:
            np.testing.assert_allclose(
                numeric_jacobian(op, m), jacobian_exact(op, m), rtol=0.0, atol=1e-12
            )

    @pytest.mark.parametrize("n", range(2, 9))
    def test_candidate_radii_are_exact(self, n):
        # Certainty is superstable under the three rules, the vacuous mass
        # doubles a perturbation, and averaging is the identity.
        frame = FrameOfDiscernment(n)
        vacuous = make_vacuous(frame)
        for op in sorted(COMBINERS):
            for m in cli_candidates(frame):
                if op == "average":
                    expected = 1.0
                else:
                    expected = 2.0 if m == vacuous else 0.0
                assert classify(op, m).spectral_radius == expected, (op, m)

    @pytest.mark.parametrize("op", ["bogus", "Dempster", None])
    def test_rejects_unknown_operator(self, op):
        with pytest.raises(ValueError, match="unknown operator"):
            numeric_jacobian(op, make_vacuous(F3))

    def test_rejects_frames_above_the_limit(self):
        # Raised before the (2^n - 2)^2 matrix is allocated.
        frame = FrameOfDiscernment(MAX_JACOBIAN_STATES + 1)
        with pytest.raises(ValueError, match=f"at most {MAX_JACOBIAN_STATES} states"):
            numeric_jacobian("average", make_vacuous(frame))


class TestSpectralRadiusTwoWays:
    def test_agreement_everywhere(self):
        rng = np.random.default_rng(31)
        points = [
            MassFunction(F3, {1: 1.0}),
            MassFunction(F3, {4: 1.0}),
            make_vacuous(F3),
            *(_random_simplex_mass(rng, F3) for _ in range(5)),
        ]
        for op in ("dempster", "dubois_prade", "yager", "average"):
            for m in points:
                assert classify(op, m).spectral_radius == pytest.approx(
                    spectral_radius_power(numeric_jacobian(op, m)), abs=1e-6
                )

    def test_rotation_matrix_complex_pair(self):
        theta = 0.7
        rot = 0.9 * np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        assert spectral_radius_power(rot) == pytest.approx(0.9, abs=1e-9)

    def test_nilpotent_matrix(self):
        nil = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert spectral_radius_power(nil) == 0.0


class TestClassify:
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_dubois_prade_categoricals_stable(self, i):
        m = MassFunction(F3, {F3.singleton(i): 1.0})
        report = classify("dubois_prade", m)
        assert report.is_fixed
        assert report.classification == "stable"

    def test_dubois_prade_vacuous_unstable(self):
        report = classify("dubois_prade", make_vacuous(F3))
        assert report.is_fixed
        assert report.classification == "unstable"
        assert report.spectral_radius == pytest.approx(2.0, abs=1e-6)

    def test_random_interior_point_is_not_fixed(self):
        rng = np.random.default_rng(100)
        for _ in range(10):
            m = _random_simplex_mass(rng, F3)
            report = classify("dubois_prade", m)
            assert report.residual > 1e-10
            assert report.classification == "not_fixed"

    def test_averaging_everywhere_marginal(self):
        rng = np.random.default_rng(8)
        report = classify("average", _random_simplex_mass(rng, F3))
        assert report.is_fixed
        assert report.classification == "marginal"

    def test_dempster_categorical_reported_fixed(self):
        report = classify("dempster", MassFunction(F3, {2: 1.0}))
        assert report.is_fixed
        assert report.classification in ("stable", "unstable", "marginal")


class TestGoldenFixedPoints:
    def test_reports_and_jacobians_match_golden(self):
        with GOLDEN_FIXEDPOINTS.open(newline="") as fh:
            golden = list(csv.reader(fh))
        assert golden[0] == list(GOLDEN_FIXEDPOINT_COLUMNS)
        assert fixed_point_golden_rows() == golden[1:]
