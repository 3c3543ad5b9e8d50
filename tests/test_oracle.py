import json
import pathlib

import numpy as np
import pytest

from qslack import linalg, problems
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


# The scalar nested ternary search that the stacked one replaced, one point
# per call of g: the reference that every oracle value must equal bit for bit.
def _ref_ternary(g, lo, hi, tol):
    while hi - lo > tol:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if g(m1) <= g(m2):
            lo = m1
        else:
            hi = m2
    x = (lo + hi) / 2.0
    return x, g(x)


def _ref_box(g, dim, y_max, tol):
    if dim == 1:
        x, v = _ref_ternary(lambda y: g(np.array([y])), 0.0, y_max, tol)
        return np.array([x]), v
    x0, _ = _ref_ternary(lambda y0: _ref_box(lambda r: g(np.concatenate(([y0], r))), dim - 1, y_max, tol)[1],
                         0.0, y_max, tol)
    rest, v = _ref_box(lambda r: g(np.concatenate(([x0], r))), dim - 1, y_max, tol)
    return np.concatenate(([x0], rest)), v


def reference_search(g, dim, y_max=10.0):
    """(y*, value): the first coarse-grid point in C order that beats the
    origin and every earlier point, unless the ternary search beats it."""
    coarse, tol = (41, 1e-7) if dim <= 2 else (11, 1e-4)
    best_y, best_v = np.zeros(dim), g(np.zeros(dim))
    mesh = np.meshgrid(*[np.linspace(0.0, y_max, coarse)] * dim, indexing="ij")
    for y in np.stack([m.ravel() for m in mesh], axis=1):
        v = g(y)
        if v > best_v:
            best_v, best_y = v, y.copy()
    y_t, v_t = _ref_box(g, dim, y_max, tol)
    return (y_t, v_t) if v_t > best_v else (best_y, best_v)


def reference_sdp(h, a_list, b):
    hd, ad = h.dense(), [a.dense() for a in a_list]
    return reference_search(lambda y: float(np.dot(b, y) + np.linalg.eigvalsh(
        hd - sum(yi * a for yi, a in zip(y, ad)))[0]), len(a_list))


def reference_lp(h, a_list, b):
    hv, av = h.dense(), [a.dense() for a in a_list]
    return reference_search(lambda y: float(np.dot(b, y) + np.min(hv - sum(yi * a for yi, a in zip(y, av)))),
                            len(a_list))


@pytest.fixture
def searched(monkeypatch):
    """The (y*, value) pairs that the oracles' searches return, in call order."""
    found = []
    search = orc._grid_then_refine

    def recording(*args, **kwargs):
        found.append(search(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(orc, "_grid_then_refine", recording)
    return found


# (ell, seed) of the random instances of each oracle.  At ell = 3 the
# reference search takes 3-6 s, so that case has one seed.
SEARCH_CASES = [(1, s) for s in range(15)] + [(2, s) for s in range(14)] + [(3, 0)]

PAULI_LABELS = ["IX", "IY", "IZ", "XI", "YI", "ZI", "XX", "YY", "ZZ", "XZ", "ZX", "XY"]


def random_cham(seed, ell):
    """Two-qubit instance with random coefficients whose constraints a
    random state meets with a margin, so the multipliers stay bounded."""
    rng = np.random.default_rng([seed, ell])
    observable = lambda k: PauliObservable.from_text(
        2, {t: rng.uniform(-1, 1) for t in rng.choice(PAULI_LABELS, k, replace=False)})
    h, a_list = observable(3), [observable(2) for _ in range(ell)]
    rho = random_density(4, rng)
    b = np.array([np.trace(a.dense() @ rho).real for a in a_list]) - rng.uniform(0.05, 0.3, ell)
    return h, a_list, b


def random_classical_cham(seed, ell):
    rng = np.random.default_rng([seed, ell, 1])
    observable = lambda: WalshObservable.from_text(2, {t: rng.uniform(-1, 1) for t in ("01", "10", "11")})
    h, a_list = observable(), [observable() for _ in range(ell)]
    p = rng.dirichlet(np.ones(4))
    b = np.array([a.dense() @ p for a in a_list]) - rng.uniform(0.05, 0.3, ell)
    return h, a_list, b


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
        assert res.residual == 0.0

    def test_reference_instance_matches_the_scalar_search(self, searched):
        h, a, b = paper_cham()
        res = orc.sdp_cham_value(h, a, b)
        y_ref, v_ref = reference_sdp(h, a, b)
        assert res.value == v_ref
        assert np.array_equal(searched[0][0], y_ref)

    @pytest.mark.parametrize("ell, seed", SEARCH_CASES)
    def test_stacked_search_matches_the_scalar_search(self, ell, seed, searched):
        h, a, b = random_cham(seed, ell)
        y_ref, v_ref = reference_sdp(h, a, b)
        tol = 1e-7 if ell <= 2 else 1e-4
        if np.any(10.0 - y_ref <= tol):
            with pytest.raises(ValueError, match="edge of its box"):
                orc.sdp_cham_value(h, a, b)
        else:
            assert orc.sdp_cham_value(h, a, b).value == v_ref
        assert np.array_equal(searched[0][0], y_ref)
        assert searched[0][1] == v_ref

    @pytest.mark.parametrize("b", [0.9, 0.999])
    def test_multiplier_at_the_box_edge_raises(self, b):
        # min <X> subject to <Z> >= b on one qubit is -sqrt(1 - b^2), with
        # multiplier y* = b / sqrt(1 - b^2): 2.06 at b = 0.9, 22.3 at 0.999.
        h = PauliObservable.from_text(1, {"X": 1.0})
        a = [PauliObservable.from_text(1, {"Z": 1.0})]
        if b / np.sqrt(1 - b**2) < 10.0:
            res = orc.sdp_cham_value(h, a, [b])
            assert abs(res.value + np.sqrt(1 - b**2)) < 1e-9
            assert res.residual == 0.0
        else:
            with pytest.raises(ValueError, match=r"edge of its box \[0, 10.0\]"):
                orc.sdp_cham_value(h, a, [b])

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

    def test_reference_instance_matches_the_scalar_search(self, searched):
        h, a, b = paper_classical_cham()
        res = orc.lp_classical_cham_value(h, a, b)
        y_ref, v_ref = reference_lp(h, a, b)
        assert res.residual == abs(v_ref - res.value)
        assert np.array_equal(searched[0][0], y_ref)

    @pytest.mark.parametrize("ell, seed", SEARCH_CASES)
    def test_stacked_search_matches_the_scalar_search(self, ell, seed, searched):
        h, a, b = random_classical_cham(seed, ell)
        res = orc.lp_classical_cham_value(h, a, b)
        y_ref, v_ref = reference_lp(h, a, b)
        assert res.value == orc.lp_vertex_value(h.dense(), np.array([x.dense() for x in a]), b)
        assert res.residual == abs(v_ref - res.value)
        assert np.array_equal(searched[0][0], y_ref)
        assert searched[0][1] == v_ref

    def test_vertex_oracle_agrees_with_search(self, rng):
        for _ in range(10):
            h = WalshObservable(2, {(0, 1): rng.uniform(-1, 1), (1, 1): rng.uniform(-1, 1)})
            a = [WalshObservable(2, {(1, 0): rng.uniform(0.2, 1)})]
            b = np.array([rng.uniform(-0.3, 0.3)])
            res = orc.lp_classical_cham_value(h, a, b)
            assert res.residual < 1e-5


class TestChamOracleCache:
    @pytest.fixture
    def searches(self, monkeypatch):
        """The names of the oracle searches run, in call order, from an empty cache."""
        calls = []
        for name in ("sdp_cham_value", "lp_classical_cham_value"):
            search = getattr(orc, name)
            monkeypatch.setattr(orc, name, lambda *a, name=name, search=search: calls.append(name) or search(*a))
        problems._cham_oracle.cache_clear()
        yield calls
        problems._cham_oracle.cache_clear()

    def test_the_pairs_of_an_instance_share_one_search(self, searches):
        pairs = [pair for pair in problems.DEFAULTS if "cham" in pair[0]]
        oracles = {pair: problems.build_problem(pair[0], ansatz_type=pair[1]).oracle for pair in pairs}
        assert len(pairs) == 6
        assert sorted(searches) == ["lp_classical_cham_value", "sdp_cham_value"]
        assert len({o for (tag, _), o in oracles.items() if tag.startswith("cham")}) == 1
        assert len({o for (tag, _), o in oracles.items() if tag.startswith("classical")}) == 1

    def test_the_default_instance_written_out_is_the_same_instance(self, searches):
        default = problems.default_cham_instance()
        reordered = {"constraints": default["constraints"], "h": default["h"]}
        assert problems.build_problem("cham_dual").oracle == problems.build_problem("cham_dual", instance=reordered).oracle
        assert searches == ["sdp_cham_value"]

    def test_a_changed_bound_searches_again(self, searches):
        changed = problems.default_cham_instance()
        changed["constraints"][0]["b"] = 0.25
        first = problems.build_problem("cham_primal").oracle
        assert problems.build_problem("cham_primal", instance=changed).oracle != first
        assert searches == ["sdp_cham_value"] * 2

    def test_a_different_qubit_count_is_a_different_key(self, searches):
        text = json.dumps({"h": {"ZZ": 1.0}})
        assert problems._cham_oracle(False, 2, text).value == -1.0
        # Served from the n = 2 entry, this would return -1.0; parsed again
        # for three qubits, the two-letter string is an error.
        with pytest.raises(ValueError, match="wrong length"):
            problems._cham_oracle(False, 3, text)
        assert problems._cham_oracle.cache_info().misses == 2


class TestTvd:
    def test_equal(self):
        p = np.array([0.25, 0.75])
        assert orc.exact_tvd(p, p) == 0.0

    def test_disjoint_point_masses(self):
        assert np.isclose(orc.exact_tvd(np.array([1.0, 0]), np.array([0, 1.0])), 1.0)

    def test_direct_sum(self):
        assert np.isclose(orc.exact_tvd(np.array([0.7, 0.3]), np.array([0.5, 0.5])), 0.2)
