import math
from itertools import product

import numpy as np
import pytest

from qslack.ansatz import ConvexCombinationState, layered_unitary_circuit, qcbm_circuit
from qslack.estimate import (
    Estimator,
    Prepared,
    ShotModel,
    as_prepared,
    hoeffding_shots,
    prepare,
)
from qslack.pauli import Expansion, term_stack
from tests.conftest import ket, random_density

EXACT = Estimator(ShotModel())


def cc_pair(rng, n=2):
    state = ConvexCombinationState(qcbm_circuit(n, 2), layered_unitary_circuit(n, 2))
    a = prepare(state, rng.uniform(0, 2 * np.pi, state.n_params))
    b = prepare(state, rng.uniform(0, 2 * np.pi, state.n_params))
    return a, b


class TestExactMode:
    def test_pauli_z_on_zero(self):
        rho = np.outer(ket("0"), ket("0").conj())
        e = EXACT.pauli_expect(rho, Expansion.from_text(1, {"Z": 1.0}))
        assert e.value == 1.0 and e.std_err == 0.0

    def test_identity_string(self, rng):
        e = EXACT.pauli_expect(random_density(4, rng), Expansion.from_text(2, {"II": 1.0}))
        assert np.isclose(e.value, 1.0)

    def test_pure_state_self_overlap(self):
        rho = np.outer(ket("00"), ket("00").conj())
        assert np.isclose(EXACT.overlap(rho, rho).value, 1.0)

    def test_orthogonal_states(self):
        r0 = np.outer(ket("0"), ket("0").conj())
        r1 = np.outer(ket("1"), ket("1").conj())
        assert np.isclose(EXACT.overlap(r0, r1).value, 0.0)

    def test_maximally_mixed_overlap(self):
        half = np.eye(2) / 2
        assert np.isclose(EXACT.overlap(half, half).value, 0.5)

    def test_collision_cases(self):
        point = np.array([1.0, 0.0, 0.0, 0.0])
        uniform = np.full(4, 0.25)
        assert np.isclose(EXACT.collision(point, point).value, 1.0)
        assert np.isclose(EXACT.collision(uniform, uniform).value, 0.25)
        assert np.isclose(EXACT.collision(np.array([1.0, 0]), np.array([0, 1.0])).value, 0.0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            EXACT.overlap(np.eye(2) / 2, np.eye(4) / 4)
        with pytest.raises(ValueError):
            EXACT.collision(np.array([1.0]), np.array([0.5, 0.5]))


class TestLoschmidt:
    def test_identical_point_mass(self):
        state = ConvexCombinationState(qcbm_circuit(1, 1), layered_unitary_circuit(1, 1))
        a = prepare(state, np.zeros(state.n_params))
        assert np.isclose(EXACT.loschmidt(a, a).value, 1.0)

    def test_matches_swap_on_random_pairs(self, rng):
        for _ in range(200):
            a, b = cc_pair(rng)
            swap = EXACT.overlap(a, b).value
            echo = EXACT.loschmidt(a, b).value
            assert abs(swap - echo) < 1e-10

    def test_sample_access_variant(self, rng):
        # second argument given only as a dense state: q(x) = <x|U^dag sigma U|x>
        a, _ = cc_pair(rng)
        sigma = random_density(4, rng)
        echo = EXACT.loschmidt(a, sigma).value
        q = np.real(np.diag(a.basis.conj().T @ sigma @ a.basis))
        assert abs(echo - float(a.dist @ q)) < 1e-12
        assert abs(echo - np.trace(a.rho @ sigma).real) < 1e-10

    def test_needs_cc_first_argument(self, rng):
        with pytest.raises(ValueError):
            EXACT.loschmidt(random_density(4, rng), random_density(4, rng))


class TestShotMode:
    def test_binomial_concentration(self, rng):
        # |estimate - m| <= 5 sqrt((1 - m^2)/N) in >= 99% of trials
        rho = random_density(2, rng)
        z = Expansion.from_text(1, {"Z": 1.0})
        m = EXACT.pauli_expect(rho, z).value
        n = 10_000
        est = Estimator(ShotModel("shots", n=n), rng)
        band = 5 * math.sqrt((1 - m**2) / n)
        hits = sum(
            abs(est.pauli_expect(rho, z).value - m) <= band
            for _ in range(1000)
        )
        assert hits >= 990

    def test_unbiased_and_variance_calibrated(self, rng):
        rho = random_density(2, rng)
        sigma = random_density(2, rng)
        m = EXACT.overlap(rho, sigma).value
        n = 10_000
        est = Estimator(ShotModel("shots", n=n), rng)
        draws = np.array([est.overlap(rho, sigma).value for _ in range(10_000)])
        se_pool = math.sqrt((1 - m**2) / n) / math.sqrt(len(draws))
        assert abs(draws.mean() - m) <= 3 * se_pool
        assert abs(draws.std() - math.sqrt((1 - m**2) / n)) <= 0.1 * math.sqrt((1 - m**2) / n)

    def test_binomial_concentration_at_huge_counts(self, rng):
        est = Estimator(ShotModel("shots", n=10**12), rng)
        vals = [est.overlap(np.eye(2) / 2, np.eye(2) / 2).value for _ in range(50)]
        spread = np.std(vals)
        assert spread < 5e-6
        assert abs(np.mean(vals) - 0.5) < 5e-6

    def test_huge_counts_draw_one_binomial(self, rng):
        rho = random_density(2, rng)
        z = Expansion.from_text(1, {"Z": 1.0})
        n = 10**15
        got = Estimator(ShotModel("shots", n=n), np.random.default_rng(8)).pauli_expect(rho, z).value
        p = (1.0 + EXACT.pauli_expect(rho, z).value) / 2.0
        assert got == 2.0 * np.random.default_rng(8).binomial(n, p) / n - 1.0

    def test_estimates_stay_in_band(self, rng):
        est = Estimator(ShotModel("shots", n=400), rng)
        for _ in range(200):
            rho = random_density(2, rng)
            e = est.overlap(rho, rho)
            eps = 5 * math.sqrt(1.0 / 400)
            assert -eps <= e.value <= 1 + eps

    def test_determinism_same_seed(self):
        rho = np.eye(2) / 2
        a = Estimator(ShotModel("shots", n=100), 5).overlap(rho, rho).value
        b = Estimator(ShotModel("shots", n=100), 5).overlap(rho, rho).value
        assert a == b

    def test_purity_uses_collision_for_cc(self, rng):
        a, _ = cc_pair(rng)
        exact = Estimator().purity(a).value
        assert abs(exact - np.sum(a.dist**2)) < 1e-12


def pure(t: float) -> np.ndarray:
    """The pure state cos(t)|0> + sin(t)|1>."""
    v = np.array([math.cos(t), math.sin(t)])
    return np.outer(v, v)


# At 10**12 shots, 200 estimates of a mean within 1e-12 of the top of its
# range, from inputs that are almost pure, all lie in that range: the
# overlap is 1 - 1e-12, the collision (1 - 1e-13)**2 + 1e-26.
NEAR_PURE = {
    "overlap": ("overlap", (pure(0.0), pure(math.asin(1e-6))), (-1.0, 1.0)),
    "collision": ("collision", (np.array([1 - 1e-13, 1e-13]),) * 2, (0.0, 1.0)),
}


@pytest.mark.parametrize("name", sorted(NEAR_PURE))
def test_huge_counts_stay_in_range(name, rng):
    method, args, (lo, hi) = NEAR_PURE[name]
    draw = getattr(Estimator(ShotModel("shots", n=10**12), rng), method)
    vals = [draw(*args).value for _ in range(200)]
    assert lo <= min(vals) and max(vals) <= hi


MODES = {"exact": ShotModel(), "binomial": ShotModel("shots", n=1000),
         "binomial_2e6": ShotModel("shots", n=2 * 10**6)}


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("walsh", [False, True], ids=["pauli", "walsh"])
@pytest.mark.parametrize("zeros", ["nonzero", "zeros", "all_zero", "empty"])
def test_expansion_estimate_is_the_sum_of_term_estimates(mode, walsh, zeros, rng):
    """One expansion estimate equals, bit for bit, the sum of one estimate
    per non-zero term in label order, and leaves the generator where the
    per-term calls leave it: 0, with no draw, without a non-zero term."""
    n = 3 if walsh else 2
    one = lambda l: Expansion(n, (l,), np.ones(1), walsh)
    labels = tuple(product(range(2 if walsh else 4), repeat=n))
    coeffs = rng.uniform(-1.0, 1.0, len(labels))
    if zeros != "nonzero":
        coeffs[::3 if zeros == "zeros" else 1] = 0.0
    if zeros == "empty":
        labels, coeffs = (), coeffs[:0]
    if walsh:
        p = np.abs(rng.standard_normal(2**n))
        state = Prepared(dist=p / p.sum())
        mean = lambda l: float(term_stack((l,), walsh)[0] @ state.dist)
    else:
        state = as_prepared(random_density(2**n, rng))
        mean = lambda l: float(np.einsum("ij,ji->", term_stack((l,))[0], state.rho).real)
    ests = [Estimator(MODES[mode], np.random.default_rng(3)) for _ in range(3)]
    expect = [e.walsh_expect if walsh else e.pauli_expect for e in ests]
    got = expect[0](state, Expansion(n, labels, coeffs, walsh))
    per_term = sum(c * expect[1](state, one(l)).value for l, c in zip(labels, coeffs) if c != 0)
    per_mean = sum(c * ests[2]._pm_one(mean(l)).value for l, c in zip(labels, coeffs) if c != 0)
    assert got.value == per_term == per_mean
    assert (got.std_err == 0.0) == (mode == "exact" or not coeffs.any())
    assert len({e.rng.random() for e in ests}) == 1


class TestHoeffding:
    def test_reference_point(self):
        assert hoeffding_shots(0.1, 0.05) == 185

    def test_unit_case(self):
        assert hoeffding_shots(1.0, 2.0 / math.e**2) == 1

    def test_quadratic_scaling(self):
        assert hoeffding_shots(0.05, 0.05) == pytest.approx(4 * hoeffding_shots(0.1, 0.05), rel=0.01)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            hoeffding_shots(0.0, 0.1)
        with pytest.raises(ValueError):
            hoeffding_shots(0.1, 1.5)


class TestPrepared:
    def test_prepare_purification(self, rng):
        from qslack.ansatz import PurificationState
        t = PurificationState(layered_unitary_circuit(2, 2), 1, 1)
        pr = prepare(t, rng.uniform(0, 2 * np.pi, t.n_params))
        assert pr.rho.shape == (2, 2) and not pr.is_cc

    def test_prepare_cc_and_consistency(self, rng):
        a, _ = cc_pair(rng)
        assert a.is_cc
        rebuilt = (a.basis * a.dist) @ a.basis.conj().T
        assert np.allclose(rebuilt, a.rho)

    @pytest.mark.parametrize("kind", ["purification", "convex_combination", "born"])
    def test_prepare_rows_match_row_by_row_calls(self, kind, rng):
        from qslack.problems import make_opt_template
        t = make_opt_template(kind, 2, 2, 2)
        rows = rng.uniform(0, 2 * np.pi, (4, t.n_params))
        batch = prepare(t, rows)
        assert len(batch.dense) == len(rows)
        for k, row in enumerate(rows):
            got, want = batch[k], prepare(t, row)
            for field in ("rho", "dist", "basis"):
                a, b = getattr(got, field), getattr(want, field)
                assert (a is None and b is None) or np.array_equal(a, b), field

    def test_walsh_expect_matches_dot(self, rng):
        p = np.abs(rng.standard_normal(4))
        p /= p.sum()
        w = Expansion.from_text(2, {"10": 1.0}, walsh=True)
        assert np.isclose(Estimator().walsh_expect(Prepared(dist=p), w).value, w.dense() @ p)
