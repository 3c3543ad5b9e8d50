import json
import pathlib

import numpy as np
import pytest

from qslack import linalg
from qslack import oracle as orc
from qslack.pauli import PauliObservable, WalshObservable
from tests.conftest import bell_state, ket, random_density

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "golden.json").read_text())["values"]


def paper_cham():
    h = PauliObservable.from_text(2, {"ZZ": 1.0, "XI": 1.0, "IX": 1.0})
    a = [PauliObservable.from_text(2, {"YI": 1.0}), PauliObservable.from_text(2, {"IZ": 1.0})]
    return h, a, np.array([0.2, 0.1])


def paper_classical_cham():
    h = WalshObservable.from_text(2, {"11": 1.0})
    a = [WalshObservable.from_text(2, {"10": 0.5}), WalshObservable.from_text(2, {"01": 0.7})]
    return h, a, np.array([0.1, 0.3])


class TestTraceDistance:
    def test_equal_states(self, rng):
        rho = random_density(4, rng)
        assert orc.exact_trace_distance(rho, rho) < 1e-12

    def test_orthogonal_pure(self):
        r0 = np.outer(ket("0"), ket("0").conj())
        r1 = np.outer(ket("1"), ket("1").conj())
        assert np.isclose(orc.exact_trace_distance(r0, r1), 1.0)

    def test_zero_vs_plus(self):
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        got = orc.exact_trace_distance(np.outer(ket("0"), ket("0").conj()),
                                       np.outer(plus, plus.conj()))
        g = GOLDEN["trace_distance_zero_vs_plus"]
        assert abs(got - g["value"]) < g["tolerance"]

    def test_range(self, rng):
        for _ in range(50):
            td = orc.exact_trace_distance(random_density(4, rng), random_density(4, rng))
            assert -1e-12 <= td <= 1 + 1e-12


class TestRootFidelity:
    def test_equal_states(self, rng):
        rho = random_density(4, rng)
        assert np.isclose(orc.exact_root_fidelity(rho, rho), 1.0, atol=1e-9)

    def test_pure_states_overlap(self, rng):
        for _ in range(10):
            a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            got = orc.exact_root_fidelity(np.outer(a, a.conj()), np.outer(b, b.conj()))
            assert np.isclose(got, abs(np.vdot(a, b)), atol=1e-7)

    def test_mixed_vs_pure_diagonal(self):
        got = orc.exact_root_fidelity(np.eye(2) / 2, np.outer(ket("0"), ket("0").conj()))
        assert np.isclose(got, 1 / np.sqrt(2))

    def test_fuchs_van_de_graaf(self, rng):
        # 1 - sqrt(F) <= TD <= sqrt(1 - F), oracle self-consistency
        for _ in range(1000):
            rho, sigma = random_density(2, rng), random_density(2, rng)
            rf = orc.exact_root_fidelity(rho, sigma)
            td = orc.exact_trace_distance(rho, sigma)
            assert 1 - rf <= td + 1e-8
            assert td <= np.sqrt(max(0.0, 1 - rf**2)) + 1e-8


class TestNegativity:
    def test_product_state(self, rng):
        rho = np.kron(random_density(2, rng), random_density(2, rng))
        assert np.isclose(orc.exact_negativity(rho, 2, 2), 1.0, atol=1e-10)

    def test_bell(self):
        g = GOLDEN["bell_negativity"]
        assert abs(orc.exact_negativity(bell_state(), 2, 2) - g["value"]) < g["tolerance"]

    def test_separable_mixture(self):
        rho = 0.5 * (np.outer(ket("00"), ket("00").conj()) + np.outer(ket("11"), ket("11").conj()))
        assert np.isclose(orc.exact_negativity(rho, 2, 2), 1.0)

    def test_unit_value_when_pt_is_psd(self, rng):
        for _ in range(50):
            rho = 0.0
            for _ in range(3):
                rho = rho + np.kron(random_density(2, rng), random_density(2, rng)) / 3
            pt = linalg.partial_transpose_b(rho, 2, 2)
            if np.linalg.eigvalsh(pt).min() >= -1e-12:
                assert orc.exact_negativity(rho, 2, 2) >= 1.0 - 1e-9


class TestSdpCham:
    def test_no_constraints_is_min_eigenvalue(self):
        h, _, _ = paper_cham()
        res = orc.sdp_cham_value(h, [], [])
        g = GOLDEN["cham_unconstrained"]
        assert abs(res.value - g["value"]) < g["tolerance"]

    def test_reference_instance(self):
        h, a, b = paper_cham()
        res = orc.sdp_cham_value(h, a, b)
        g = GOLDEN["cham_reference_instance"]
        assert abs(res.value - g["value"]) < g["tolerance"]

    def test_weak_duality_upper_bounds(self, rng):
        # any constraint-satisfying state upper-bounds the optimum
        h, a, b = paper_cham()
        res = orc.sdp_cham_value(h, a, b)
        hd = h.dense()
        ad = [x.dense() for x in a]
        checked = 0
        for _ in range(10_000):
            rho = random_density(4, rng)
            if all(np.trace(ai @ rho).real >= bi for ai, bi in zip(ad, b)):
                checked += 1
                assert res.value <= np.trace(hd @ rho).real + 1e-9
        assert checked > 100

    def test_too_many_constraints(self):
        h, a, b = paper_cham()
        with pytest.raises(ValueError):
            orc.sdp_cham_value(h, a * 2, np.concatenate([b, b]))


class TestLpClassicalCham:
    def test_no_constraints_min_entry(self):
        h, _, _ = paper_classical_cham()
        res = orc.lp_classical_cham_value(h, [], [])
        assert np.isclose(res.value, h.dense().min())

    def test_reference_instance_golden(self):
        h, a, b = paper_classical_cham()
        res = orc.lp_classical_cham_value(h, a, b)
        g = GOLDEN["classical_cham_reference_instance"]
        assert abs(res.value - g["value"]) < g["tolerance"]
        assert res.residual < 1e-6

    def test_inactive_constraints_keep_min_entry(self):
        h = WalshObservable.from_text(2, {"11": 1.0, "01": 0.2})
        a = [WalshObservable.from_text(2, {"10": 1.0})]
        res = orc.lp_classical_cham_value(h, a, np.array([-5.0]))
        vec = h.dense()
        j = int(np.argmin(vec))
        assert np.isclose(res.value, vec[j])
        assert a[0].dense()[j] >= -5.0

    def test_vertex_oracle_agrees_with_search(self, rng):
        for _ in range(10):
            h = WalshObservable(2, {(0, 1): rng.uniform(-1, 1), (1, 1): rng.uniform(-1, 1)})
            a = [WalshObservable(2, {(1, 0): rng.uniform(0.2, 1)})]
            b = np.array([rng.uniform(-0.3, 0.3)])
            res = orc.lp_classical_cham_value(h, a, b)
            assert res.residual < 1e-5


class TestTvd:
    def test_equal(self):
        p = np.array([0.25, 0.75])
        assert orc.exact_tvd(p, p) == 0.0

    def test_disjoint_point_masses(self):
        assert np.isclose(orc.exact_tvd(np.array([1.0, 0]), np.array([0, 1.0])), 1.0)

    def test_direct_sum(self):
        assert np.isclose(orc.exact_tvd(np.array([0.7, 0.3]), np.array([0.5, 0.5])), 0.2)
