"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria at a glance:
  1. exact-mode term expansions equal dense evaluations (1e-9, 200 draws each)
  2. golden oracle values
  3. desk-scale convergence: every problem/side with both ansaetze,
     median-of-5 final error <= 5e-2 under the shipped defaults
  4. sandwich property with finite-penalty caveat logging
  5. shot-mode estimator statistics
  6. analytic gradients vs central differences; SPSA mean gradient
  7. CSlack convergence, median-of-10 error <= 2e-2
  8. byte-identical reruns
"""

import math
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from qslack import build_problem, linalg
from qslack import objective as obj
from qslack import oracle as orc
from qslack.config import config_from_dict
from qslack.estimate import Estimator, ShotModel, hoeffding_shots, prepare
from qslack.optimizer import parameter_shift_gradient_vector, rademacher, spsa_gradient
from qslack.pauli import Expansion
from qslack.runner import run_experiment
from qslack.ansatz import ConvexCombinationState, layered_unitary_circuit, qcbm_circuit

EST = Estimator()
QUANTUM_COMBOS = [
    (tag, at)
    for tag in ("trace_distance_primal", "trace_distance_dual", "fidelity_primal",
                "fidelity_dual", "negativity_primal", "negativity_dual",
                "cham_primal", "cham_dual")
    for at in ("purification", "convex_combination")
]
N_SEEDS = 5


def _rand_density(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _rand_dist(size, rng):
    p = np.abs(rng.standard_normal(size))
    return p / p.sum()


def _campaign(problem_ansatz_pairs, n_seeds, out_dir):
    """(tag, ansatz type, seed) -> (final objective, final error, aborted):
    one ``run_experiment`` campaign of ``n_seeds`` runs per pair, run k
    reporting as seed k."""
    results = {}
    for tag, at in problem_ansatz_pairs:
        cfg = config_from_dict({"problem": tag, "ansatz": {"type": at}, "n_runs": n_seeds, "workers": 2,
                                "output_dir": str(out_dir / f"{tag}_{at}")})
        for seed, rec in enumerate(run_experiment(cfg).records):
            results[(tag, at, seed)] = rec.final_objective, rec.final_error, rec.aborted
    return results


@pytest.fixture(scope="module")
def quantum_campaign(tmp_path_factory):
    t0 = time.monotonic()
    results = _campaign(QUANTUM_COMBOS, N_SEEDS, tmp_path_factory.mktemp("quantum"))
    return results, time.monotonic() - t0


@pytest.fixture(scope="module")
def cslack_campaign(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("cslack")
    t0 = time.monotonic()
    results = _campaign(
        [("tvd_dual", "born"), ("classical_cham_primal", "born"), ("classical_cham_dual", "born")],
        10, out_dir,
    )
    elapsed = time.monotonic() - t0
    results.update(_campaign([("tvd_primal", "born")], N_SEEDS, out_dir))
    return results, elapsed


# ----------------------------------------------------------------------
# Criterion 1: expansion-dense equivalence, 200 draws per builder and size
# ----------------------------------------------------------------------

def _builder_cases(rng, n):
    d = 2**n
    lam, mu, nu, kap = rng.uniform(0, 2, 4)
    c = rng.uniform(1, 50)
    states = [_rand_density(d, rng) for _ in range(4)]
    big = [_rand_density(2 * d, rng) for _ in range(2)]
    dists = [_rand_dist(d, rng) for _ in range(4)]
    alpha_c = rng.standard_normal(4**n) * 0.4 + 1j * rng.standard_normal(4**n) * 0.4
    alpha = rng.standard_normal(4**n) * 0.4
    beta = rng.standard_normal(4**n) * 0.4
    h = Expansion.from_text(n, {"Z" * n: 1.0, "X" + "I" * (n - 1): 0.7})
    a_list = [Expansion.from_text(n, {"Y" + "I" * (n - 1): 1.0})]
    b = np.array([0.15])
    z = rng.uniform(0, 1, 1)
    y = rng.uniform(0, 1, 1)
    mu_f = rng.uniform(-1, 1)
    hw = Expansion.from_text(n, {"1" * n: 1.0, "0" * n: 0.4}, walsh=True)
    aw = [Expansion.from_text(n, {"1" + "0" * (n - 1): 0.5}, walsh=True)]
    lcs = obj.LcsInstance(
        n, n,
        [(rng.uniform(-1, 1), _rand_density(d, rng)) for _ in range(2)],
        [(rng.uniform(-1, 1), _rand_density(d, rng)) for _ in range(2)],
        [(rng.uniform(-1, 1), _rand_density(d, rng), _rand_density(d, rng)) for _ in range(2)],
    )
    labels = sorted(product(range(4), repeat=n))
    phi_map = {}
    for _ in range(3):
        phi_map[(labels[rng.integers(len(labels))], labels[rng.integers(len(labels))])] = rng.uniform(-1, 1)
    pmi = obj.PauliMapInstance(
        Expansion.from_terms(n, {labels[rng.integers(len(labels))]: rng.uniform(-1, 1)}),
        Expansion.from_terms(n, {labels[rng.integers(len(labels))]: rng.uniform(-1, 1)}),
        phi_map,
    )

    cases = [
        ("td_primal",
         obj.td_primal_objective(*states, lam, mu, c, EST).value,
         obj.td_primal_dense(*states, lam, mu, c)[0]),
        ("td_dual",
         obj.td_dual_objective(*states, lam, mu, c, EST).value,
         obj.td_dual_dense(*states, lam, mu, c)[0]),
        ("fidelity_primal",
         obj.fidelity_primal_objective(states[0], states[1], big[0], alpha_c, lam, c, EST).value,
         obj.fidelity_primal_dense(states[0], states[1], big[0], alpha_c, lam, c)[0]),
        ("fidelity_dual",
         obj.fidelity_dual_objective(states[0], states[1], states[2], states[3], big[1],
                                     lam, mu, nu, c, EST).value,
         obj.fidelity_dual_dense(states[0], states[1], states[2], states[3], big[1],
                                 lam, mu, nu, c)[0]),
        ("cham_primal",
         obj.cham_primal_objective(states[0], h, a_list, b, z, c, EST).value,
         obj.cham_primal_dense(states[0], h.dense(), [a.dense() for a in a_list], b, z, c)[0]),
        ("cham_dual",
         obj.cham_dual_objective(states[0], h, a_list, b, y, mu_f, nu, c, EST).value,
         obj.cham_dual_dense(states[0], h.dense(), [a.dense() for a in a_list], b, y, mu_f, nu, c)[0]),
        ("generic_primal_lcs",
         obj.generic_primal_objective(lcs, states[0], states[1], lam, mu, c, EST).value,
         obj.generic_primal_dense(lcs, states[0], states[1], lam, mu, c)[0]),
        ("generic_dual_lcs",
         obj.generic_dual_objective(lcs, states[2], states[3], kap, nu, c, EST).value,
         obj.generic_dual_dense(lcs, states[2], states[3], kap, nu, c)[0]),
        ("generic_primal_pauli",
         obj.generic_primal_objective(pmi, states[0], states[1], lam, mu, c, EST).value,
         obj.generic_primal_dense(pmi, states[0], states[1], lam, mu, c)[0]),
        ("generic_dual_pauli",
         obj.generic_dual_objective(pmi, states[2], states[3], kap, nu, c, EST).value,
         obj.generic_dual_dense(pmi, states[2], states[3], kap, nu, c)[0]),
        ("tvd_primal",
         obj.td_primal_objective(*dists, lam, mu, c, EST).value,
         obj.tvd_primal_dense(*dists, lam, mu, c)[0]),
        ("tvd_dual",
         obj.td_dual_objective(*dists, lam, mu, c, EST).value,
         obj.tvd_dual_dense(*dists, lam, mu, c)[0]),
        ("classical_cham_primal",
         obj.cham_primal_objective(dists[0], hw, aw, b, z, c, EST).value,
         obj.classical_cham_primal_dense(dists[0], hw.dense(), [a.dense() for a in aw], b, z, c)[0]),
        ("classical_cham_dual",
         obj.cham_dual_objective(dists[0], hw, aw, b, y, mu_f, nu, c, EST).value,
         obj.classical_cham_dual_dense(dists[0], hw.dense(), [a.dense() for a in aw], b, y, mu_f, nu, c)[0]),
    ]
    if n >= 2:
        cases += [
            ("negativity_primal",
             obj.negativity_primal_objective(states[0], states[1], states[2], alpha,
                                             lam, mu, c, 1, n - 1, EST).value,
             obj.negativity_primal_dense(states[0], states[1], states[2], alpha,
                                         lam, mu, c, 1, n - 1)[0]),
            ("negativity_dual",
             obj.negativity_dual_objective(states[0], states[1], states[2], alpha, beta,
                                           lam, mu, c, 1, n - 1, EST).value,
             obj.negativity_dual_dense(states[0], states[1], states[2], alpha, beta,
                                       lam, mu, c, 1, n - 1)[0]),
        ]
    return cases


def test_criterion_1_expansion_dense_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    worst = {}
    for n in (1, 2):
        for _ in range(200):
            for name, term_val, dense_val in _builder_cases(rng, n):
                diff = abs(term_val - dense_val)
                worst[name] = max(worst.get(name, 0.0), diff)
    elapsed = time.monotonic() - t0
    for name, diff in sorted(worst.items()):
        assert diff < 1e-9, f"{name}: term vs dense diff {diff:.2e}"
    assert len(worst) >= 10
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\ncriterion 1: PASS - {len(worst)} builders, max diff "
          f"{max(worst.values()):.2e}, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# Criterion 2: golden oracle values
# ----------------------------------------------------------------------

def test_criterion_2_oracle_golden_values():
    t0 = time.monotonic()
    ket0 = np.zeros(2, dtype=complex)
    ket0[0] = 1
    plus = np.full(2, 1 / np.sqrt(2), dtype=complex)
    td = orc.exact_trace_distance(np.outer(ket0, ket0.conj()), np.outer(plus, plus.conj()))
    assert abs(td - 0.70710678) < 1e-8 and abs(td - 1 / np.sqrt(2)) < 1e-9

    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    neg = orc.exact_negativity(np.outer(bell, bell.conj()), 2, 2)
    assert abs(neg - 2.0) < 1e-9

    h = Expansion.from_text(2, {"ZZ": 1.0, "XI": 1.0, "IX": 1.0})
    a = [Expansion.from_text(2, {"YI": 1.0}), Expansion.from_text(2, {"IZ": 1.0})]
    res = orc.sdp_cham_value(h, a, [0.2, 0.1])
    assert abs(res.value - (-2.2097)) < 1e-3

    res0 = orc.sdp_cham_value(h, [], [])
    assert abs(res0.value - (-math.sqrt(5))) < 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"\ncriterion 2: PASS - td={td:.8f}, neg={neg:.6f}, cham={res.value:.5f}, "
          f"unconstrained={res0.value:.6f}, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# Criterion 3: desk-scale convergence with both ansaetze
# ----------------------------------------------------------------------

def test_criterion_3_desk_scale_convergence(quantum_campaign):
    results, elapsed = quantum_campaign
    failures = []
    lines = []
    for tag, at in QUANTUM_COMBOS:
        errs = []
        for seed in range(N_SEEDS):
            final, err, aborted = results[(tag, at, seed)]
            assert not aborted, f"{tag}/{at} seed {seed} aborted"
            errs.append(err)
        med = float(np.median(errs))
        ok = med <= 5e-2
        lines.append(f"  {tag:24s} {at:20s} median err {med:.4f} {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append((tag, at, med))
    print("\ncriterion 3 (budget {:.0f}s):".format(elapsed))
    for line in lines:
        print(line)
    assert elapsed < 600.0, f"criterion 3 campaign took {elapsed:.0f}s"
    assert not failures, f"combos above tolerance: {failures}"
    print("criterion 3: PASS")


# ----------------------------------------------------------------------
# Criterion 4: sandwich property with finite-penalty caveat logging
# ----------------------------------------------------------------------

def test_criterion_4_sandwich(quantum_campaign, cslack_campaign):
    quantum, _ = quantum_campaign
    classical, _ = cslack_campaign
    pairs = {
        "trace_distance": ("trace_distance_primal", "trace_distance_dual", "purification", quantum),
        "negativity": ("negativity_primal", "negativity_dual", "purification", quantum),
        "cham": ("cham_primal", "cham_dual", "purification", quantum),
        "tvd": ("tvd_primal", "tvd_dual", "born", classical),
    }
    tol = 2e-2
    violations = 0
    total = 0
    print("\ncriterion 4:")
    for name, (ptag, dtag, at, source) in pairs.items():
        oracle = build_problem(ptag,
                               ansatz_type=at).oracle.value
        for seed in range(N_SEEDS):
            p_final = source[(ptag, at, seed)][0]
            d_final = source[(dtag, at, seed)][0]
            total += 1
            ok = (p_final <= oracle + tol) and (d_final >= oracle - tol)
            if not ok:
                violations += 1
                print(f"  finite-penalty caveat: {name} seed {seed}: primal {p_final:.4f}, "
                      f"dual {d_final:.4f}, oracle {oracle:.4f}")
    rate = violations / total
    print(f"criterion 4: {'PASS' if rate <= 0.10 else 'FAIL'} - "
          f"{violations}/{total} sandwich violations")
    assert total == 20
    assert rate <= 0.10


# ----------------------------------------------------------------------
# Criterion 5: estimator statistics
# ----------------------------------------------------------------------

def test_criterion_5_estimator_statistics():
    t0 = time.monotonic()
    rng = np.random.default_rng(55)
    n_shots = 10_000
    n_emul = 10_000

    rho = _rand_density(4, rng)
    sigma = _rand_density(4, rng)
    cc_t = ConvexCombinationState(qcbm_circuit(2, 2), layered_unitary_circuit(2, 2))
    cc_a = prepare(cc_t, rng.uniform(0, 2 * np.pi, cc_t.n_params))
    cc_b = prepare(cc_t, rng.uniform(0, 2 * np.pi, cc_t.n_params))
    p_vec = _rand_dist(4, rng)
    q_vec = _rand_dist(4, rng)
    zx = Expansion.from_text(2, {"ZX": 1.0})

    est = Estimator(ShotModel("shots", n=n_shots), rng)
    checks = {
        "pauli": (lambda e: e.pauli_expect(rho, zx).value, EST.pauli_expect(rho, zx).value, "pm1"),
        "swap": (lambda e: e.overlap(rho, sigma).value,
                 EST.overlap(rho, sigma).value, "pm1"),
        "loschmidt": (lambda e: e.loschmidt(cc_a, cc_b).value,
                      EST.loschmidt(cc_a, cc_b).value, "bernoulli"),
        "collision": (lambda e: e.collision(p_vec, q_vec).value,
                      EST.collision(p_vec, q_vec).value, "bernoulli"),
    }
    for name, (draw, exact, kind) in checks.items():
        draws = np.array([draw(est) for _ in range(n_emul)])
        pooled_se = draws.std() / math.sqrt(n_emul)
        assert abs(draws.mean() - exact) <= 3 * pooled_se, f"{name} biased"
        if kind == "pm1":
            target_sd = math.sqrt((1 - exact**2) / n_shots)
            assert abs(draws.std() - target_sd) <= 0.1 * target_sd, f"{name} variance off"

    assert hoeffding_shots(0.1, 0.05) == 185
    elapsed = time.monotonic() - t0
    assert elapsed < 20.0, f"criterion 5 took {elapsed:.1f}s"
    print(f"\ncriterion 5: PASS - 4 estimators unbiased and calibrated, "
          f"hoeffding(0.1,0.05)=185, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# Criterion 6: gradient checks
# ----------------------------------------------------------------------

def test_criterion_6_gradient_checks():
    t0 = time.monotonic()
    rng = np.random.default_rng(66)
    cham_inst = {"h": {"Z": 1.0, "X": 0.5}, "constraints": [{"coeffs": {"X": 1.0}, "b": 0.1}]}
    specs = [
        ("trace_distance_primal", 1, None),
        ("trace_distance_dual", 1, None),
        ("fidelity_primal", 1, None),
        ("fidelity_dual", 1, None),
        # negativity needs the bipartition, so its smallest case is n=2
        ("negativity_primal", 2, None),
        ("negativity_dual", 2, None),
        ("cham_primal", 1, cham_inst),
        ("cham_dual", 1, cham_inst),
    ]
    h = 1e-5
    worst = 0.0
    for tag, n, inst in specs:
        p = build_problem(tag, n_system=n, ansatz_type="purification", layers=2, c=5.0,
                          instance=inst)
        params = p.objective.initial_params(rng)
        for b in p.objective.blocks:
            if b.kind != "angle":
                s = p.objective.block_slice(b.name)
                params[s] = rng.uniform(0.1, 0.9, b.size)
        analytic = parameter_shift_gradient_vector(p.objective, params)
        for k in range(p.objective.n_params):
            up, dn = params.copy(), params.copy()
            up[k] += h
            dn[k] -= h
            fd = (p.objective.evaluate(up).value - p.objective.evaluate(dn).value) / (2 * h)
            diff = abs(analytic[k] - fd)
            worst = max(worst, diff)
            assert diff < 1e-6, f"{tag} param {k}: shift {analytic[k]:.2e} vs fd {fd:.2e}"

    theta = np.array([0.05, -0.08, 0.1])
    f = lambda t: float(np.sum(t**2))
    deltas = [rademacher(rng, len(theta)) for _ in range(10_000)]
    mean_grad = np.mean([spsa_gradient(f(theta + 0.1 * d), f(theta - 0.1 * d), d, 0.1) for d in deltas], axis=0)
    assert np.all(np.abs(mean_grad - 2 * theta) < 1e-2)

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s"
    print(f"\ncriterion 6: PASS - max shift-vs-fd diff {worst:.2e}, "
          f"SPSA mean within 1e-2, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# Criterion 7: CSlack convergence
# ----------------------------------------------------------------------

def test_criterion_7_cslack_convergence(cslack_campaign):
    results, elapsed = cslack_campaign
    print("\ncriterion 7 (budget {:.0f}s):".format(elapsed))
    failures = []
    for tag in ("tvd_dual", "classical_cham_primal", "classical_cham_dual"):
        errs = [results[(tag, "born", seed)][1] for seed in range(10)]
        med = float(np.median(errs))
        ok = med <= 2e-2
        print(f"  {tag:24s} median err {med:.4f} {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append((tag, med))
    assert elapsed < 180.0, f"criterion 7 campaign took {elapsed:.0f}s"
    assert not failures, f"CSlack problems above tolerance: {failures}"
    print("criterion 7: PASS")


# ----------------------------------------------------------------------
# Criterion 8: determinism
# ----------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    base = {
        "problem": "tvd_dual",
        "optimizer": {"max_iters": 120},
        "n_runs": 2,
        "seed": 13,
    }
    ra = run_experiment(config_from_dict({**base, "output_dir": str(tmp_path / "a")}))
    rb = run_experiment(config_from_dict({**base, "output_dir": str(tmp_path / "b")}))
    for pa, pb in zip(ra.run_csvs, rb.run_csvs):
        assert Path(pa).read_bytes() == Path(pb).read_bytes()
    assert Path(ra.summary_csv).read_bytes() == Path(rb.summary_csv).read_bytes()
    print("\ncriterion 8: PASS - byte-identical CSV outputs across invocations")
