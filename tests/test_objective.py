import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from itertools import product

from qslack import PROBLEM_TAGS, build_problem, linalg, objective as obj
from qslack.ansatz import ConvexCombinationState, layered_unitary_circuit, qcbm_circuit
from qslack.estimate import Estimator, Prepared, ShotModel, as_prepared, prepare
from qslack.pauli import Expansion, term_stack
from qslack.oracle import exact_negativity, exact_root_fidelity, exact_trace_distance, exact_tvd
from qslack.problems import DEFAULTS
from tests.conftest import bell_state, ket, random_density, random_hermitian

EST = Estimator()


def pauli_coeffs_of(m: np.ndarray, n: int) -> np.ndarray:
    """Coefficient vector of a matrix in the lexicographic Pauli-string basis."""
    return np.array([
        np.trace(string @ m) / 2**n
        for string in term_stack(tuple(sorted(product(range(4), repeat=n))))
    ])


def random_dist(size, rng):
    p = np.abs(rng.standard_normal(size))
    return p / p.sum()


class TestTraceDistanceDual:
    def test_identical_states_unit_objective(self, rng):
        rho = random_density(4, rng)
        omega = random_density(4, rng)
        tb = obj.td_dual_objective(rho, rho, omega, omega, 1.0, 1.0, 10.0, EST)
        # lambda omega - rho + sigma - mu tau vanishes identically
        assert abs(tb.value - 1.0) < 1e-12
        assert abs(tb.penalty) < 1e-12

    def test_zero_scalars_leave_cross_terms(self, rng):
        rho, sigma = random_density(4, rng), random_density(4, rng)
        omega, tau = random_density(4, rng), random_density(4, rng)
        tb = obj.td_dual_objective(rho, sigma, omega, tau, 0.0, 0.0, 3.0, EST)
        assert abs(tb.value - 3.0 * linalg.hs_norm_sq(sigma - rho)) < 1e-10

    def test_expansion_matches_dense(self, rng):
        for n in (1, 2):
            d = 2**n
            for _ in range(25):
                args = [random_density(d, rng) for _ in range(4)]
                lam, mu = rng.uniform(0, 2, 2)
                tb = obj.td_dual_objective(*args, lam, mu, 10.0, EST)
                dv, dp = obj.td_dual_dense(*args, lam, mu, 10.0)
                assert abs(tb.value - dv) < 1e-9
                assert abs(tb.penalty - dp) < 1e-9

    def test_optimum_is_trace_distance(self, rng):
        # decompose rho - sigma into positive and negative parts
        rho, sigma = random_density(4, rng), random_density(4, rng)
        w, v = np.linalg.eigh(rho - sigma)
        pos = (v * np.maximum(w, 0)) @ v.conj().T
        neg = (v * np.maximum(-w, 0)) @ v.conj().T
        lam, mu = np.trace(pos).real, np.trace(neg).real
        tb = obj.td_dual_objective(rho, sigma, pos / lam, neg / mu, lam, mu, 100.0, EST)
        td = exact_trace_distance(rho, sigma)
        assert abs(tb.penalty) < 1e-10
        assert abs(tb.value - td) < 1e-6


class TestTraceDistancePrimal:
    def test_zero_scalars_identity_norm(self, rng):
        rho, sigma = random_density(4, rng), random_density(4, rng)
        tau, omega = random_density(4, rng), random_density(4, rng)
        tb = obj.td_primal_objective(rho, sigma, tau, omega, 0.0, 0.0, 2.0, EST)
        assert abs(tb.value + 2.0 * 4) < 1e-10

    def test_exact_cover_kills_penalty(self, rng):
        rho, sigma = random_density(2, rng), random_density(2, rng)
        half = np.eye(2) / 2
        tb = obj.td_primal_objective(rho, sigma, half, half, 1.0, 1.0, 10.0, EST)
        assert abs(tb.penalty) < 1e-12

    def test_expansion_matches_dense(self, rng):
        for n in (1, 2):
            d = 2**n
            for _ in range(25):
                args = [random_density(d, rng) for _ in range(4)]
                lam, mu = rng.uniform(0, 2, 2)
                tb = obj.td_primal_objective(*args, lam, mu, 10.0, EST)
                dv, dp = obj.td_primal_dense(*args, lam, mu, 10.0)
                assert abs(tb.value - dv) < 1e-9

    def test_optimum_is_trace_distance(self, rng):
        rho, sigma = random_density(4, rng), random_density(4, rng)
        w, v = np.linalg.eigh(rho - sigma)
        proj = (v * (w > 0)) @ v.conj().T
        lam = np.trace(proj).real
        rest = np.eye(4) - proj
        mu = np.trace(rest).real
        tb = obj.td_primal_objective(rho, sigma, proj / lam, rest / mu, lam, mu, 100.0, EST)
        assert abs(tb.penalty) < 1e-10
        assert abs(tb.value - exact_trace_distance(rho, sigma)) < 1e-6


class TestFidelityPrimal:
    def test_pure_equal_states_feasible_point(self):
        rho = np.outer(ket("0"), ket("0").conj())
        omega = 0.5 * np.block([[rho, rho], [rho, rho]])
        alpha = pauli_coeffs_of(rho, 1)
        tb = obj.fidelity_primal_objective(rho, rho, omega, alpha, 2.0, 45.0, EST)
        assert abs(tb.penalty) < 1e-12
        assert abs(tb.value - 1.0) < 1e-9

    def test_zero_alpha_zero_lambda(self, rng):
        rho, sigma = random_density(2, rng), random_density(2, rng)
        omega = random_density(4, rng)
        alpha = np.zeros(4, dtype=complex)
        tb = obj.fidelity_primal_objective(rho, sigma, omega, alpha, 0.0, 7.0, EST)
        expected = -7.0 * (np.trace(rho @ rho).real + np.trace(sigma @ sigma).real)
        assert abs(tb.value - expected) < 1e-10

    def test_expansion_matches_dense(self, rng):
        for n in (1, 2):
            d = 2**n
            for _ in range(25):
                rho, sigma = random_density(d, rng), random_density(d, rng)
                omega = random_density(2 * d, rng)
                alpha = rng.standard_normal(4**n) + 1j * rng.standard_normal(4**n)
                lam = rng.uniform(0, 2)
                tb = obj.fidelity_primal_objective(rho, sigma, omega, alpha, lam, 45.0, EST)
                dv, dp = obj.fidelity_primal_dense(rho, sigma, omega, alpha, lam, 45.0)
                assert abs(tb.value - dv) < 1e-9
                assert abs(tb.penalty - dp) < 1e-9


class TestFidelityDual:
    def test_zero_scalars_constant(self, rng):
        n = 1
        rho, sigma = random_density(2, rng), random_density(2, rng)
        omega, tau = random_density(2, rng), random_density(2, rng)
        xi = random_density(4, rng)
        tb = obj.fidelity_dual_objective(rho, sigma, omega, tau, xi, 0.0, 0.0, 0.0, 5.0, EST)
        assert abs(tb.value - 5.0 * 2.0 ** (n + 1)) < 1e-10

    def test_expansion_matches_dense(self, rng):
        for n in (1, 2):
            d = 2**n
            for _ in range(25):
                rho, sigma = random_density(d, rng), random_density(d, rng)
                omega, tau = random_density(d, rng), random_density(d, rng)
                xi = random_density(2 * d, rng)
                lam, mu, nu = rng.uniform(0, 2, 3)
                tb = obj.fidelity_dual_objective(rho, sigma, omega, tau, xi, lam, mu, nu, 5.0, EST)
                dv, dp = obj.fidelity_dual_dense(rho, sigma, omega, tau, xi, lam, mu, nu, 5.0)
                assert abs(tb.value - dv) < 1e-9

    def test_maximally_mixed_feasible_guess(self):
        # Y = Z = I is dual feasible and meets the oracle value sqrt(F) = 1
        n = 1
        eye = np.eye(2) / 2
        block = np.block([[np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)]])
        xi = block / np.trace(block).real
        nu = np.trace(block).real
        tb = obj.fidelity_dual_objective(eye, eye, eye, eye, xi, 2.0, 2.0, nu, 5.0, EST)
        assert abs(tb.penalty) < 1e-10
        assert abs(tb.value - exact_root_fidelity(eye, eye)) < 1e-9


class TestNegativityPrimal:
    def test_uniform_slabs_penalty_value(self, rng):
        n = 2
        rho = random_density(4, rng)
        quarter = np.eye(4) / 4
        alpha = np.zeros(16)
        tb = obj.negativity_primal_objective(rho, quarter, quarter, alpha, 1.0, 1.0, 5.0, 1, 1, EST)
        expected_pen = 2.0 ** (n + 1) + 2 * 2.0 ** (-n) - 4
        assert abs(tb.penalty - expected_pen) < 1e-10

    def test_identity_alpha_gives_unit_overlap(self, rng):
        rho = random_density(4, rng)
        alpha = np.zeros(16)
        alpha[0] = 1.0
        tb = obj.negativity_primal_objective(rho, np.eye(4) / 4, np.eye(4) / 4, alpha, 0.0, 0.0, 5.0, 1, 1, EST)
        g1 = tb.value + 5.0 * tb.penalty
        assert abs(g1 - 1.0) < 1e-10

    def test_expansion_matches_dense(self, rng):
        for _ in range(25):
            rho, sigma, tau = (random_density(4, rng) for _ in range(3))
            alpha = rng.standard_normal(16) * 0.3
            lam, mu = rng.uniform(0, 2, 2)
            tb = obj.negativity_primal_objective(rho, sigma, tau, alpha, lam, mu, 5.0, 1, 1, EST)
            dv, dp = obj.negativity_primal_dense(rho, sigma, tau, alpha, lam, mu, 5.0, 1, 1)
            assert abs(tb.value - dv) < 1e-9
            assert abs(tb.penalty - dp) < 1e-9

    def test_bell_feasible_point_reaches_negativity(self):
        # H = sign matrix of the partial transpose attains E_N for Bell input:
        # the objective applies the transpose to H through the coefficient signs
        bell = bell_state()
        pt = linalg.partial_transpose_b(bell, 2, 2)
        w, v = np.linalg.eigh(pt)
        h = (v * np.sign(w)) @ v.conj().T
        alpha = np.real(pauli_coeffs_of(h, 2))
        sigma = (np.eye(4) - h) / np.trace(np.eye(4) - h).real
        tau = (np.eye(4) + h) / np.trace(np.eye(4) + h).real
        lam = np.trace(np.eye(4) - h).real
        mu = np.trace(np.eye(4) + h).real
        tb = obj.negativity_primal_objective(bell, sigma, tau, alpha, lam, mu, 100.0, 1, 1, EST)
        assert abs(tb.penalty) < 1e-9
        assert abs(tb.value - 2.0) < 1e-6


class TestNegativityDual:
    def test_zero_everything_leaves_purity(self, rng):
        rho = random_density(4, rng)
        sigma, tau = random_density(4, rng), random_density(4, rng)
        z = np.zeros(16)
        tb = obj.negativity_dual_objective(rho, sigma, tau, z, z, 0.0, 0.0, 3.0, 1, 1, EST)
        assert abs(tb.value - 3.0 * np.trace(rho @ rho).real) < 1e-10

    def test_expansion_matches_dense(self, rng):
        for _ in range(25):
            rho, sigma, tau = (random_density(4, rng) for _ in range(3))
            alpha = rng.standard_normal(16) * 0.3
            beta = rng.standard_normal(16) * 0.3
            lam, mu = rng.uniform(0, 2, 2)
            tb = obj.negativity_dual_objective(rho, sigma, tau, alpha, beta, lam, mu, 7.0, 1, 1, EST)
            dv, dp = obj.negativity_dual_dense(rho, sigma, tau, alpha, beta, lam, mu, 7.0, 1, 1)
            assert abs(tb.value - dv) < 1e-9

    def test_bell_positive_negative_parts(self):
        bell = bell_state()
        pt = linalg.partial_transpose_b(bell, 2, 2)
        w, v = np.linalg.eigh(pt)
        k_mat = (v * np.maximum(w, 0)) @ v.conj().T
        l_mat = (v * np.maximum(-w, 0)) @ v.conj().T
        alpha = np.real(pauli_coeffs_of(k_mat, 2))
        beta = np.real(pauli_coeffs_of(l_mat, 2))
        lam, mu = np.trace(k_mat).real, np.trace(l_mat).real
        tb = obj.negativity_dual_objective(bell, k_mat / lam, l_mat / mu, alpha, beta,
                                           lam, mu, 100.0, 1, 1, EST)
        assert abs(tb.penalty) < 1e-9
        assert abs(tb.value - exact_negativity(bell, 2, 2)) < 1e-6
        assert abs(tb.value - 2.0) < 1e-6


def paper_h(n=2):
    return Expansion.from_text(n, {"ZZ": 1.0, "XI": 1.0, "IX": 1.0})


class TestChamPrimal:
    def test_no_constraints_is_plain_energy(self, rng):
        rho = random_density(4, rng)
        h = paper_h()
        tb = obj.cham_primal_objective(rho, h, [], np.zeros(0), np.zeros(0), 100.0, EST)
        assert abs(tb.value - np.trace(h.dense() @ rho).real) < 1e-10
        assert tb.penalty == 0.0

    def test_exact_slack_kills_penalty(self, rng):
        h = Expansion.from_text(1, {"Z": 1.0})
        a1 = Expansion.from_text(1, {"X": 1.0})
        rho = random_density(2, rng)
        x_val = np.trace(a1.dense() @ rho).real
        z = np.array([0.3])
        b = np.array([x_val - 0.3])
        tb = obj.cham_primal_objective(rho, h, [a1], b, z, 50.0, EST)
        assert abs(tb.penalty) < 1e-12

    def test_expansion_matches_dense(self, rng):
        h = paper_h()
        a_list = [Expansion.from_text(2, {"YI": 1.0}), Expansion.from_text(2, {"IZ": 1.0})]
        b = np.array([0.2, 0.1])
        a_dense = [a.dense() for a in a_list]
        for _ in range(25):
            rho = random_density(4, rng)
            z = rng.uniform(0, 1, 2)
            tb = obj.cham_primal_objective(rho, h, a_list, b, z, 100.0, EST)
            dv, dp = obj.cham_primal_dense(rho, h.dense(), a_dense, b, z, 100.0)
            assert abs(tb.value - dv) < 1e-9


class TestChamDual:
    def test_mu_only_matches_identity_shift(self, rng):
        h = paper_h()
        omega = random_density(4, rng)
        mu = -0.7
        tb = obj.cham_dual_objective(omega, h, [], np.zeros(0), np.zeros(0), mu, 0.0, 100.0, EST)
        pen_direct = linalg.hs_norm_sq(h.dense() - mu * np.eye(4))
        assert abs(tb.penalty - pen_direct) < 1e-9

    def test_exact_fit_reaches_minimum_energy(self):
        h = paper_h()
        hd = h.dense()
        w = np.linalg.eigvalsh(hd)
        mu = w[0]
        gap = hd - mu * np.eye(4)
        nu = np.trace(gap).real
        omega = gap / nu
        tb = obj.cham_dual_objective(omega, h, [], np.zeros(0), np.zeros(0), mu, nu, 100.0, EST)
        assert abs(tb.penalty) < 1e-9
        assert abs(tb.value - w[0]) < 1e-9

    def test_expansion_matches_dense(self, rng):
        h = paper_h()
        a_list = [Expansion.from_text(2, {"YI": 1.0}), Expansion.from_text(2, {"IZ": 1.0})]
        b = np.array([0.2, 0.1])
        a_dense = [a.dense() for a in a_list]
        for _ in range(25):
            omega = random_density(4, rng)
            y = rng.uniform(0, 1, 2)
            mu = rng.uniform(-1, 1)
            nu = rng.uniform(0, 1)
            tb = obj.cham_dual_objective(omega, h, a_list, b, y, mu, nu, 100.0, EST)
            dv, dp = obj.cham_dual_dense(omega, h.dense(), a_dense, b, y, mu, nu, 100.0)
            assert abs(tb.value - dv) < 1e-9
            assert abs(tb.penalty - dp) < 1e-9


class TestTvd:
    def test_dual_identical_inputs(self, rng):
        p = random_dist(4, rng)
        r = random_dist(4, rng)
        tb = obj.td_dual_objective(p, p, r, r, 1.0, 1.0, 10.0, EST)
        assert abs(tb.value - 1.0) < 1e-12

    def test_dual_zero_scalars(self, rng):
        p, q, r, s = (random_dist(4, rng) for _ in range(4))
        tb = obj.td_dual_objective(p, q, r, s, 0.0, 0.0, 10.0, EST)
        assert abs(tb.value - 10.0 * np.sum((q - p) ** 2)) < 1e-12

    def test_dual_expansion_matches_dense(self, rng):
        for n in (1, 2):
            for _ in range(25):
                p, q, r, s = (random_dist(2**n, rng) for _ in range(4))
                lam, mu = rng.uniform(0, 2, 2)
                tb = obj.td_dual_objective(p, q, r, s, lam, mu, 10.0, EST)
                dv, dp = obj.tvd_dual_dense(p, q, r, s, lam, mu, 10.0)
                assert abs(tb.value - dv) < 1e-9

    def test_primal_expansion_matches_dense(self, rng):
        for n in (1, 2):
            for _ in range(25):
                p, q, r, s = (random_dist(2**n, rng) for _ in range(4))
                lam, mu = rng.uniform(0, 2, 2)
                tb = obj.td_primal_objective(p, q, r, s, lam, mu, 10.0, EST)
                dv, dp = obj.tvd_primal_dense(p, q, r, s, lam, mu, 10.0)
                assert abs(tb.value - dv) < 1e-9

    def test_both_sides_reach_tvd_at_optimum(self, rng):
        p, q = random_dist(4, rng), random_dist(4, rng)
        diff = p - q
        pos = np.maximum(diff, 0)
        neg = np.maximum(-diff, 0)
        lam, mu = pos.sum(), neg.sum()
        tb = obj.td_dual_objective(p, q, pos / lam, neg / mu, lam, mu, 100.0, EST)
        tvd = exact_tvd(p, q)
        assert abs(tb.value - tvd) < 1e-9
        ind = (diff > 0).astype(float)
        lam_p = ind.sum()
        rest = 1.0 - ind
        mu_p = rest.sum()
        tb2 = obj.td_primal_objective(p, q, ind / lam_p, rest / mu_p, lam_p, mu_p, 100.0, EST)
        assert abs(tb2.value - tvd) < 1e-9


class TestClassicalCham:
    def test_no_constraints_uniform(self, rng):
        h = Expansion.from_text(2, {"11": 1.0, "00": 0.3}, walsh=True)
        p = np.full(4, 0.25)
        tb = obj.cham_primal_objective(p, h, [], np.zeros(0), np.zeros(0), 10.0, EST)
        assert abs(tb.value - np.mean(h.dense())) < 1e-12

    def test_primal_expansion_matches_dense(self, rng):
        h = Expansion.from_text(2, {"11": 1.0}, walsh=True)
        a_list = [Expansion.from_text(2, {"10": 0.5}, walsh=True), Expansion.from_text(2, {"01": 0.7}, walsh=True)]
        b = np.array([0.1, 0.3])
        a_dense = [a.dense() for a in a_list]
        for _ in range(25):
            p = random_dist(4, rng)
            z = rng.uniform(0, 1, 2)
            tb = obj.cham_primal_objective(p, h, a_list, b, z, 10.0, EST)
            dv, dp = obj.classical_cham_primal_dense(p, h.dense(), a_dense, b, z, 10.0)
            assert abs(tb.value - dv) < 1e-10

    def test_dual_expansion_matches_dense(self, rng):
        h = Expansion.from_text(2, {"11": 1.0}, walsh=True)
        a_list = [Expansion.from_text(2, {"10": 0.5}, walsh=True), Expansion.from_text(2, {"01": 0.7}, walsh=True)]
        b = np.array([0.1, 0.3])
        a_dense = [a.dense() for a in a_list]
        for _ in range(25):
            w = random_dist(4, rng)
            y = rng.uniform(0, 1, 2)
            mu = rng.uniform(-1, 1)
            nu = rng.uniform(0, 1)
            tb = obj.cham_dual_objective(w, h, a_list, b, y, mu, nu, 10.0, EST)
            dv, dp = obj.classical_cham_dual_dense(w, h.dense(), a_dense, b, y, mu, nu, 10.0)
            assert abs(tb.value - dv) < 1e-10


def random_lcs_instance(n, rng, n_terms=2):
    d = 2**n
    return obj.LcsInstance(
        n_in=n, n_out=n,
        a_terms=[(rng.uniform(-1, 1), random_density(d, rng)) for _ in range(n_terms)],
        b_terms=[(rng.uniform(-1, 1), random_density(d, rng)) for _ in range(n_terms)],
        phi_terms=[(rng.uniform(-1, 1), random_density(d, rng), random_density(d, rng))
                   for _ in range(n_terms)],
    )


def random_pauli_instance(n, rng, n_terms=3):
    labels = sorted(product(range(4), repeat=n))
    pick = lambda: {tuple(labels[i]): rng.uniform(-1, 1) for i in rng.choice(len(labels), n_terms, replace=False)}
    phi = {}
    for _ in range(n_terms):
        lx = tuple(labels[rng.integers(len(labels))])
        ly = tuple(labels[rng.integers(len(labels))])
        phi[(lx, ly)] = rng.uniform(-1, 1)
    return obj.PauliMapInstance(
        a_obs=Expansion.from_terms(n, pick()),
        b_obs=Expansion.from_terms(n, pick()),
        phi_map=phi,
    )


class TestGenericBuilders:
    def test_trivial_zero_instance(self, rng):
        n = 1
        inst = obj.LcsInstance(n_in=n, n_out=n, a_terms=[], b_terms=[],
                               phi_terms=[(1.0, np.eye(2) / 2, np.eye(2) / 2)])
        rho, sigma = random_density(2, rng), random_density(2, rng)
        tb = obj.generic_primal_objective(inst, rho, sigma, 0.0, 0.0, 5.0, EST)
        assert abs(tb.value) < 1e-12

    def test_constructed_feasible_point(self, rng):
        # B := lambda Phi(rho) + mu sigma makes the penalty vanish
        n = 1
        rho, sigma = random_density(2, rng), random_density(2, rng)
        phi_terms = [(0.7, random_density(2, rng), random_density(2, rng))]
        lam, mu = 1.3, 0.4
        inst_partial = obj.LcsInstance(n, n, [(1.0, random_density(2, rng))], [], phi_terms)
        b_mat = lam * inst_partial.phi(rho) + mu * sigma
        coeff = np.trace(b_mat).real
        inst = obj.LcsInstance(n, n, inst_partial.a_terms,
                               [(coeff, linalg.hermitianize(b_mat) / coeff)], phi_terms)
        tb = obj.generic_primal_objective(inst, rho, sigma, lam, mu, 50.0, EST)
        assert abs(tb.penalty) < 1e-10
        expected = lam * np.trace(inst.a_dense() @ rho).real
        assert abs(tb.value - expected) < 1e-9

    def test_dual_zero_case(self, rng):
        n = 1
        inst = obj.LcsInstance(n, n, [], [(1.0, random_density(2, rng))],
                               [(0.5, random_density(2, rng), random_density(2, rng))])
        tau, omega = random_density(2, rng), random_density(2, rng)
        tb = obj.generic_dual_objective(inst, tau, omega, 0.0, 0.0, 5.0, EST)
        assert abs(tb.value) < 1e-12

    def test_adjoint_identity(self, rng):
        for make in (random_lcs_instance, random_pauli_instance):
            for _ in range(10):
                inst = make(1, rng)
                x = random_hermitian(2, rng)
                y = random_hermitian(2, rng)
                lhs = np.vdot(y, inst.phi(x))
                rhs = np.vdot(inst.phi_dag(y), x)
                assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("kind", ["lcs", "pauli"])
    def test_expansion_matches_dense(self, kind, rng):
        make = random_lcs_instance if kind == "lcs" else random_pauli_instance
        for n in (1, 2):
            d = 2**n
            for _ in range(15):
                inst = make(n, rng)
                rho, sigma = random_density(d, rng), random_density(d, rng)
                lam, mu = rng.uniform(0, 2, 2)
                tb = obj.generic_primal_objective(inst, rho, sigma, lam, mu, 5.0, EST)
                dv, dp = obj.generic_primal_dense(inst, rho, sigma, lam, mu, 5.0)
                assert abs(tb.value - dv) < 1e-9
                tau, omega = random_density(d, rng), random_density(d, rng)
                kap, nu = rng.uniform(0, 2, 2)
                tb = obj.generic_dual_objective(inst, tau, omega, kap, nu, 5.0, EST)
                dv, dp = obj.generic_dual_dense(inst, tau, omega, kap, nu, 5.0)
                assert abs(tb.value - dv) < 1e-9

    @pytest.mark.parametrize("n", [1, 2])
    def test_lcs_and_pauli_map_forms_agree(self, n, rng):
        # one instance written both ways: Pauli observables and a string map, and
        # linear combinations whose matrices are those strings
        labels = sorted(product(range(4), repeat=n))
        string = lambda l: term_stack((l,))[0]
        for _ in range(10):
            a = {labels[i]: rng.uniform(-1, 1) for i in rng.choice(len(labels), 2, replace=False)}
            b = {labels[i]: rng.uniform(-1, 1) for i in rng.choice(len(labels), 2, replace=False)}
            lx, lx2 = (labels[i] for i in rng.choice(len(labels), 2, replace=False))
            ly, ly2 = (labels[i] for i in rng.choice(len(labels), 2, replace=False))
            # the input string lx feeds two outputs
            phi_map = {(lx, ly): rng.uniform(-1, 1), (lx, ly2): rng.uniform(-1, 1), (lx2, ly): rng.uniform(-1, 1)}
            pmi = obj.PauliMapInstance(Expansion.from_terms(n, a), Expansion.from_terms(n, b), phi_map)
            lcs = obj.LcsInstance(n, n, [(c, string(l)) for l, c in a.items()],
                                  [(c, string(l)) for l, c in b.items()],
                                  [(f, string(l_in), string(l_out)) for (l_in, l_out), f in phi_map.items()])
            args = (random_density(2**n, rng), random_density(2**n, rng), *rng.uniform(0, 2, 2), 5.0)
            for dense, terms in ((obj.generic_primal_dense, obj.generic_primal_objective),
                                 (obj.generic_dual_dense, obj.generic_dual_objective)):
                assert abs(dense(lcs, *args)[0] - dense(pmi, *args)[0]) < 1e-9
                assert abs(terms(lcs, *args, EST).value - terms(pmi, *args, EST).value) < 1e-9


class TestPenaltyStructure:
    def test_objective_affine_in_c(self, rng):
        rho, sigma, omega, tau = (random_density(4, rng) for _ in range(4))
        vals = {}
        for c in (1.0, 2.0, 5.0):
            tb = obj.td_dual_objective(rho, sigma, omega, tau, 0.9, 0.8, c, EST)
            vals[c] = (tb.value, tb.penalty)
        pen = vals[1.0][1]
        for c in (2.0, 5.0):
            assert abs(vals[c][0] - (vals[1.0][0] + (c - 1.0) * pen)) < 1e-9
            assert abs(vals[c][1] - pen) < 1e-12

    def test_sandwich_at_oracle_optimum(self, rng):
        # primal objective <= oracle <= dual objective at feasible optima
        rho, sigma = random_density(4, rng), random_density(4, rng)
        td = exact_trace_distance(rho, sigma)
        w, v = np.linalg.eigh(rho - sigma)
        proj = (v * (w > 0)) @ v.conj().T
        lam_p = np.trace(proj).real
        rest = np.eye(4) - proj
        mu_p = np.trace(rest).real
        primal = obj.td_primal_objective(rho, sigma, proj / lam_p, rest / mu_p,
                                         lam_p, mu_p, 100.0, EST).value
        pos = (v * np.maximum(w, 0)) @ v.conj().T
        neg = (v * np.maximum(-w, 0)) @ v.conj().T
        lam_d, mu_d = np.trace(pos).real, np.trace(neg).real
        dual = obj.td_dual_objective(rho, sigma, pos / lam_d, neg / mu_d,
                                     lam_d, mu_d, 100.0, EST).value
        assert primal <= td + 1e-6
        assert dual >= td - 1e-6
        assert abs(primal - td) < 1e-6 and abs(dual - td) < 1e-6


def random_expansion(n, rng, walsh=False, k=5):
    labels = sorted(product(range(2 if walsh else 4), repeat=n))
    pick = sorted(rng.choice(len(labels), k, replace=False))
    exp = Expansion(n, tuple(labels[i] for i in pick), rng.uniform(-1, 1, k), walsh)
    dense = sum(c * b for b, c in zip(term_stack(exp.labels, walsh), exp.coeffs))
    return exp, dense


# The projectors P_0 = |0><0| and P_1 = |1><1| of a block's leading qubit.
PROJ = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))


def operand_spaces(rng):
    """(dimension, [(operand, dense form)]) for every kind of operand."""
    n = 2
    d = 2**n
    cc = ConvexCombinationState(qcbm_circuit(n, 2), layered_unitary_circuit(n, 2))
    cc_state = prepare(cc, rng.uniform(0, 2 * np.pi, cc.n_params))
    states = [as_prepared(random_density(d, rng)) for _ in range(2)]
    quantum = [(s, s.rho) for s in states] + [
        (cc_state, cc_state.rho),
        (obj.IDENTITY, np.eye(d)),
        random_expansion(n, rng),
        random_expansion(n, rng),
    ]
    dists = [as_prepared(random_dist(d, rng)) for _ in range(2)]
    classical = [(p, p.dist) for p in dists] + [
        (obj.IDENTITY, np.ones(d)),
        random_expansion(n, rng, walsh=True, k=3),
        random_expansion(n, rng, walsh=True, k=3),
    ]
    blocks = [obj.Block(k, s) for k, s in ((0, states[0]), (1, states[1]), (1, cc_state))]
    big = as_prepared(random_density(2 * d, rng))
    alpha = rng.standard_normal(4**n) + 1j * rng.standard_normal(4**n)
    alpha[3] = 0.0
    x_mat = obj.coeffs_to_matrix(alpha, n)
    off = np.kron([[0, 1], [0, 0]], x_mat.conj().T) + np.kron([[0, 0], [1, 0]], x_mat)
    x_rev = obj.coeffs_to_matrix(alpha[::-1], n)
    off_rev = np.kron([[0, 1], [0, 0]], x_rev.conj().T) + np.kron([[0, 0], [1, 0]], x_rev)
    block_space = [(b, np.kron(PROJ[b.k], b.state.rho)) for b in blocks] + [
        (obj.OffDiagonal(alpha), off),
        (obj.OffDiagonal(alpha[::-1].copy()), off_rev),
        (big, big.rho),
        (obj.IDENTITY, np.eye(2 * d)),
        random_expansion(n + 1, rng, k=12),
    ]
    return [(d, quantum), (d, classical), (2 * d, block_space)]


class TestSqNorm:
    def test_every_pair_of_kinds_matches_the_literal_sum(self, rng):
        for _ in range(5):
            for d, operands in operand_spaces(rng):
                for i, (xi, mi) in enumerate(operands):
                    for j, (xj, mj) in enumerate(operands):
                        ci, cj = rng.uniform(-2, 2, 2)
                        terms = [(ci, xi)] if i == j else [(ci, xi), (cj, xj)]
                        want = linalg.hs_norm_sq(ci * mi if i == j else ci * mi + cj * mj)
                        got = obj.sq_norm(terms, d, EST)
                        assert abs(got - want) <= 1e-12 * max(1.0, want), (i, j)

    def test_structural_pairs_sample_nothing(self, rng):
        class NoSampling(Estimator):
            def _pm_one(self, *args):
                raise AssertionError("sampled a term fixed by structure")

            _bernoulli = _pm_sum = _pm_one

        rho, sigma = (as_prepared(random_density(2, rng)) for _ in range(2))
        h = Expansion(1, ((0,), (3,)), np.array([0.5, -0.25]))
        off = Expansion(2, ((1, 0), (2, 3)), np.array([0.3, 0.7]))
        obj.sq_norm([(1.0, obj.IDENTITY), (2.0, h), (-1.0, Expansion(1, ((3,),), np.ones(1)))], 2, NoSampling())
        obj.sq_norm([(1.0, off), (2.0, obj.IDENTITY)], 4, NoSampling())
        assert obj._inner(obj.Block(0, rho), obj.Block(1, sigma), 4, NoSampling()) == 0.0
        assert obj._inner(obj.Block(1, rho), off, 4, NoSampling()) == 0.0
        assert obj._inner(obj.IDENTITY, rho, 2, NoSampling()) == 1.0

    def test_zero_coefficients_are_not_estimated(self, rng):
        rho = as_prepared(random_density(4, rng))
        with_zero = Expansion(2, ((0, 1), (3, 3), (2, 0)), np.array([0.5, 0.0, -1.0]))
        without = Expansion(2, ((0, 1), (2, 0)), np.array([0.5, -1.0]))
        ests = [Estimator(ShotModel("shots", n=1000), np.random.default_rng(5)) for _ in range(2)]
        got = [obj.sq_norm([(1.0, exp), (0.5, rho)], 4, est) for exp, est in zip((with_zero, without), ests)]
        assert got[0] == got[1]
        assert ests[0].rng.random() == ests[1].rng.random()

    def test_block_state_overlap_reads_the_diagonal_block(self, rng):
        for n in (1, 2, 3):
            d = 2**n
            for k in (0, 1):
                for mode in (ShotModel(), ShotModel("shots", n=1000)):
                    rho, big = as_prepared(random_density(d, rng)), as_prepared(random_density(2 * d, rng))
                    ests = [Estimator(mode, np.random.default_rng(9)) for _ in range(2)]
                    got = obj._inner(obj.Block(k, rho), big, 2 * d, ests[0])
                    assert got == ests[1].overlap(np.kron(PROJ[k], rho.rho), big).value
                    assert ests[0].rng.random() == ests[1].rng.random()


# Two successive shot-mode evaluations of each term form at fixed parameters,
# sharing one Estimator.  They pin the order and the number of the Estimator
# calls, and with them the noise stream that a shot-mode run shares with its
# SPSA draws.
SHOT_STREAM = {
    "trace_distance_primal": (-29.208851751132073, -28.95629112325786),
    "trace_distance_dual": (7.155923942156722, 8.875314232536256),
    "fidelity_primal": (-65.7431248071489, -68.6257740126935),
    "fidelity_dual": (116.40289473546146, 118.67960963581463),
    "negativity_primal": (-94.58031596236486, -96.82020383729339),
    "negativity_dual": (16.2626902203083, 16.152198998729368),
    "cham_primal": (1.8424908206868538, 1.7744198254608594),
    "cham_dual": (-421.9559302460117, -415.1959490087973),
    "tvd_primal": (-30.201911368802485, -30.20372386184891),
    "tvd_dual": (8.266118586783994, 8.573872151403929),
    "classical_cham_primal": (5.069656114908381, 5.2230729093985735),
    "classical_cham_dual": (-50.970121687204724, -51.13382951600146),
}


@pytest.mark.parametrize("tag", sorted(SHOT_STREAM))
def test_shot_mode_noise_stream_is_pinned(tag):
    o = build_problem(tag, layers=2, born_layers=2, c=10.0).objective
    params = np.random.default_rng(7).uniform(0.1, 1.0, o.n_params)
    est = Estimator(ShotModel("shots", n=1000), np.random.default_rng(0))
    got = [o.evaluate(params, est).value for _ in range(2)]
    for value, want in zip(got, SHOT_STREAM[tag]):
        assert abs(value - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("tag", PROBLEM_TAGS)
def test_built_problem_pickles(tag):
    problem = build_problem(tag)
    clone = pickle.loads(pickle.dumps(problem))
    assert clone.oracle == problem.oracle
    params = np.random.default_rng(11).uniform(0.1, 1.0, problem.objective.n_params)
    for est in (None, Estimator()):
        assert clone.objective.evaluate(params, est) == problem.objective.evaluate(params, est)


def breakdowns(batch):
    """The (values, penalties) arrays of a batch evaluation, one breakdown per row."""
    return [obj.TermBreakdown(v, p) for v, p in zip(*batch)]


@pytest.mark.parametrize("tag, ansatz_type", sorted(DEFAULTS))
def test_rows_evaluate_like_one_call_per_row(tag, ansatz_type):
    o = build_problem(tag, ansatz_type=ansatz_type).objective
    rows = np.random.default_rng(3).uniform(0.1, 1.0, (3, o.n_params))
    assert breakdowns(o.evaluate(rows)) == [o.evaluate(row) for row in rows]
    # term mode: the rows draw the noise stream of sequential calls
    shots = ShotModel("shots", n=1000)
    batch = o.evaluate(rows, Estimator(shots, np.random.default_rng(5)))
    est = Estimator(shots, np.random.default_rng(5))
    assert breakdowns(batch) == [o.evaluate(row, est) for row in rows]


# The cham tags with an instance of no constraints: the slack block z (primal)
# and the multiplier block y (dual) are empty, and the dual keeps mu and nu.
@pytest.mark.parametrize("tag, h, fixed", [
    ("cham_primal", {"ZZ": 1.0, "XI": 0.5}, 0),
    ("cham_dual", {"ZZ": 1.0, "XI": 0.5}, 2),
    ("classical_cham_primal", {"11": 1.0, "10": -0.5}, 0),
    ("classical_cham_dual", {"11": 1.0, "10": -0.5}, 2),
])
def test_cham_without_constraints(tag, h, fixed):
    o = build_problem(tag, instance={"h": h, "constraints": []}).objective
    assert o.n_params == sum(t.n_params for t in o.state_templates) + fixed
    params = np.random.default_rng(9).uniform(0.1, 1.0, o.n_params)
    assert o.scalars(params)["z" if tag.endswith("primal") else "y"].size == 0
    dense = o.evaluate(params).value
    assert abs(o.evaluate(params, Estimator()).value - dense) <= 1e-9 * max(1.0, abs(dense))


def test_scalar_blocks_are_passed_in_their_form():
    blocks = [obj.ParamBlock("a", 1, "scalar", "number", scale=2.0),
              obj.ParamBlock("v", 2, "scalar", "vector"),
              obj.ParamBlock("w", 4, "scalar", "complex", scale=0.5)]
    seen = {}

    def dense(**args):
        seen.update(args)
        return np.zeros(1), np.zeros(1)

    o = obj.PenaltyObjective("max", [], blocks, dense, None)
    assert o.n_params == 7 and [b.name for b in o.blocks] == ["a", "v", "w"]
    # a vector is evaluated as the one-row stack
    assert o.evaluate(np.arange(1.0, 8.0)) == (0.0, 0.0)
    assert np.array_equal(seen["a"], [2.0])
    assert np.array_equal(seen["v"], [[2.0, 3.0]])
    assert np.array_equal(seen["w"], [[2.0 + 3.0j, 2.5 + 3.5j]])


@pytest.mark.parametrize("size, passed_as", [(2, "number"), (3, "complex"), (1, "matrix")])
def test_scalar_block_form_checked(size, passed_as):
    with pytest.raises(ValueError):
        obj.ParamBlock("x", size, "scalar", passed_as)


def _stacking_cases():
    """Each dense form with its fixed arguments (drawn once) and a draw of the
    arguments that ``PenaltyObjective`` passes row by row: the states of its
    templates and its scalar blocks.  Two qubits; the negativity forms split
    them 1|1."""
    dens = lambda rng, dim=4: random_density(dim, rng)
    num = lambda rng: rng.uniform(0.0, 2.0)
    vec = lambda size: lambda rng: rng.standard_normal(size) * 0.4
    cvec = lambda size: lambda rng: (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * 0.4
    dist = lambda rng: random_dist(4, rng)
    h = Expansion.from_text(2, {"ZZ": 1.0, "XI": 0.7})
    a_list = [Expansion.from_text(2, {"YI": 1.0}), Expansion.from_text(2, {"IZ": 0.5, "XX": 0.2})]
    hw = Expansion.from_text(2, {"11": 1.0, "00": 0.4}, walsh=True)
    aw = [Expansion.from_text(2, {"10": 0.5}, walsh=True), Expansion.from_text(2, {"01": 0.7}, walsh=True)]
    cham = {"h_dense": h.dense(), "a_dense": [a.dense() for a in a_list], "b": np.array([0.15, -0.1])}
    ccham = {"h_dense": hw.dense(), "a_dense": [a.dense() for a in aw], "b": np.array([0.1, 0.3])}
    rng = np.random.default_rng(41)
    lcs = obj.LcsInstance(2, 2, [(0.7, dens(rng)), (-0.4, dens(rng))], [(0.9, dens(rng))],
                          [(0.6, dens(rng), dens(rng)), (-0.3, dens(rng), dens(rng))])
    pmi = obj.PauliMapInstance(h, Expansion.from_text(2, {"ZI": 1.0, "IY": -0.3}),
                               {((3, 3), (3, 0)): 1.0, ((1, 0), (0, 2)): 0.5})
    fixed_states = {"rho": dens(rng), "sigma": dens(rng)}
    return {
        "td_dual": (obj.td_dual_dense, fixed_states,
                    {"omega": dens, "tau": dens, "lam": num, "mu": num}),
        "td_primal": (obj.td_primal_dense, fixed_states,
                      {"tau": dens, "omega": dens, "lam": num, "mu": num}),
        "tvd_dual": (obj.tvd_dual_dense, {"p": random_dist(4, rng), "q": random_dist(4, rng)},
                     {"r": dist, "s": dist, "lam": num, "mu": num}),
        "tvd_primal": (obj.tvd_primal_dense, {"p": random_dist(4, rng), "q": random_dist(4, rng)},
                       {"r": dist, "s": dist, "lam": num, "mu": num}),
        "fidelity_primal": (obj.fidelity_primal_dense, fixed_states,
                            {"omega": lambda g: dens(g, 8), "alpha": cvec(16), "lam": num}),
        "fidelity_dual": (obj.fidelity_dual_dense, fixed_states,
                          {"omega": dens, "tau": dens, "xi": lambda g: dens(g, 8), "lam": num, "mu": num,
                           "nu": num}),
        "negativity_primal": (obj.negativity_primal_dense, {"rho_ab": dens(rng), "n_a": 1, "n_b": 1},
                              {"sigma_ab": dens, "tau_ab": dens, "alpha": vec(16), "lam": num, "mu": num}),
        "negativity_dual": (obj.negativity_dual_dense, {"rho_ab": dens(rng), "n_a": 1, "n_b": 1},
                            {"sigma_ab": dens, "tau_ab": dens, "alpha": vec(16), "beta": vec(16),
                             "lam": num, "mu": num}),
        "cham_primal": (obj.cham_primal_dense, cham, {"rho": dens, "z": lambda g: g.uniform(0.0, 1.0, 2)}),
        "cham_dual": (obj.cham_dual_dense, cham,
                      {"omega": dens, "y": lambda g: g.uniform(0.0, 1.0, 2), "mu": lambda g: g.uniform(-1.0, 1.0),
                       "nu": num}),
        "classical_cham_primal": (obj.classical_cham_primal_dense, ccham,
                                  {"p": dist, "z": lambda g: g.uniform(0.0, 1.0, 2)}),
        "classical_cham_dual": (obj.classical_cham_dual_dense, ccham,
                                {"w": dist, "y": lambda g: g.uniform(0.0, 1.0, 2),
                                 "mu": lambda g: g.uniform(-1.0, 1.0), "nu": num}),
        "generic_primal_lcs": (obj.generic_primal_dense, {"inst": lcs}, {"rho": dens, "sigma": dens, "lam": num,
                                                                         "mu": num}),
        "generic_dual_lcs": (obj.generic_dual_dense, {"inst": lcs}, {"tau": dens, "omega": dens, "kappa": num,
                                                                     "nu": num}),
        "generic_primal_pauli": (obj.generic_primal_dense, {"inst": pmi}, {"rho": dens, "sigma": dens, "lam": num,
                                                                           "mu": num}),
        "generic_dual_pauli": (obj.generic_dual_dense, {"inst": pmi}, {"tau": dens, "omega": dens, "kappa": num,
                                                                       "nu": num}),
    }


@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("name", sorted(_stacking_cases()))
def test_dense_form_rows_equal_unstacked_calls(name, m):
    # a stack of m rows gives, row by row, the bits of the call on that row alone
    dense, fixed, draws = _stacking_cases()[name]
    rng = np.random.default_rng(17)
    rows = [{key: draw(rng) for key, draw in draws.items()} for _ in range(m)]
    stacked = {key: np.stack([row[key] for row in rows]) for key in draws}
    values, penalties = dense(**fixed, **stacked, c=7.5)
    assert np.shape(values) == np.shape(penalties) == (m,)
    for k, row in enumerate(rows):
        value, penalty = dense(**fixed, **row, c=7.5)
        assert values[k] == value and penalties[k] == penalty


@pytest.mark.parametrize("m", [1, 5])
def test_stacked_contractions_match_single_vector_calls(m):
    # the contractions of the dense forms give, row by row, the bits of the
    # numpy call on one vector that each replaces
    from qslack.pauli import dense_string_basis
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        d = 2**n
        a, b = (rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d)) for _ in range(2))
        x, y = rng.standard_normal((2, m, 4**n))
        coeffs = x + 1j * y
        traces, norms = obj._tr(a, b), linalg.hs_norm_sq(a)
        dots, fixed_dots = obj._dot(x, y), obj._dot(x[0], y)
        mats, real_mats = obj.coeffs_to_matrix(coeffs, n), obj.coeffs_to_matrix(x, n)
        for k in range(m):
            assert traces[k] == np.einsum("ij,ji->", a[k], b[k])
            assert norms[k] == np.vdot(a[k], a[k]).real
            assert dots[k] == np.dot(x[k], y[k]) and fixed_dots[k] == np.dot(x[0], y[k])
            assert np.array_equal(mats[k], np.tensordot(coeffs[k], dense_string_basis(n), axes=1))
            assert np.array_equal(real_mats[k], np.tensordot(x[k], dense_string_basis(n), axes=1))


def test_vector_evaluation_is_pinned():
    """``evaluate`` on one parameter vector gives, bit for bit, the values
    recorded in ``data/vector_path.json``: the dense form, the exact
    Estimator and a seeded shot-mode Estimator, at seeded parameters with
    the sign-constrained scalars clamped, for every ``DEFAULTS`` pair."""
    with open(Path(__file__).parent / "data" / "vector_path.json") as fh:
        pinned = json.load(fh)
    assert sorted(pinned) == sorted(f"{tag}/{ansatz_type}" for tag, ansatz_type in DEFAULTS)
    for key, calls in pinned.items():
        tag, ansatz_type = key.split("/")
        o = build_problem(tag, ansatz_type=ansatz_type).objective
        x = o.clamp(np.random.default_rng(11).uniform(-0.5, 1.5, o.n_params))
        got = {"dense": o.evaluate(x), "exact": o.evaluate(x, Estimator()),
               "shots": o.evaluate(x, Estimator(ShotModel("shots", n=1000), np.random.default_rng(4)))}
        for name, tb in got.items():
            assert (tb.value, tb.penalty) == tuple(float(v) for v in calls[name]), (key, name)
