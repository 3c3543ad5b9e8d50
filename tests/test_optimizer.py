import numpy as np
import pytest

from qslack import build_problem, optimizer
from qslack.problems import DEFAULTS
from qslack.estimate import ShotModel
from qslack.optimizer import (
    CHECK_EVERY,
    ROW,
    LrSchedule,
    RunRecord,
    SpsaConfig,
    aggregate_runs,
    lr_step,
    normalize_gradient,
    parameter_shift_gradient_vector,
    rademacher,
    run_optimization,
    spsa_gradient,
)


def _rows_equal(a, b):
    """Two traces hold the same rows, a NaN equal to a NaN."""
    return a.dtype == b.dtype == ROW and all(np.array_equal(a[f], b[f], equal_nan=True) for f in ROW.names)


def _spsa(f, theta, c, rng):
    delta = rademacher(rng, len(theta))
    return spsa_gradient(f(theta + c * delta), f(theta - c * delta), delta, c)


class TestSpsaGradient:
    def test_constant_function(self, rng):
        g = _spsa(lambda t: 3.5, np.zeros(4), 0.1, rng)
        assert np.allclose(g, 0.0)

    def test_quadratic_mean(self, rng):
        # cross terms average out; theta is kept small so 10^4 samples
        # resolve the mean within the 1e-2 band
        theta = np.array([0.05, -0.08, 0.1])
        f = lambda t: float(np.sum(t**2))
        est = np.mean([_spsa(f, theta, 0.1, rng) for _ in range(10_000)], axis=0)
        assert np.all(np.abs(est - 2 * theta) < 1e-2)

    def test_linear_mean(self, rng):
        a = np.array([1.0, -2.0, 0.5, 0.25])
        f = lambda t: float(a @ t)
        theta = rng.standard_normal(4)
        est = np.mean([_spsa(f, theta, 0.1, rng) for _ in range(20_000)], axis=0)
        assert np.all(np.abs(est - a) < 5e-2)


class TestNormalize:
    def test_three_four(self):
        assert np.allclose(normalize_gradient(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_zero(self):
        assert np.allclose(normalize_gradient(np.zeros(3)), 0.0)

    def test_unit_norm_random(self, rng):
        for _ in range(100):
            g = normalize_gradient(rng.standard_normal(7))
            assert np.isclose(np.linalg.norm(g), 1.0)

    def test_stack_rows_match_single_vector_calls(self, rng):
        # every row bit for bit its own call, and that call g / |g| with the
        # norm np.linalg.norm takes of one vector; rows of norm below 1e-15
        # give zeros
        for n in (1, 2, 17, 74, 129):
            g = rng.standard_normal((6, n)) * rng.uniform(1e-3, 1e3, (6, 1))
            g[2] = 0.0
            g[4] = 1e-17
            stacked = normalize_gradient(g)
            for row, got in zip(g, stacked):
                assert got.tobytes() == normalize_gradient(row).tobytes()
                norm = float(np.linalg.norm(row))
                want = np.zeros(n) if norm < 1e-15 else row / norm
                assert got.tobytes() == want.tobytes()


def test_block_draw_matches_one_draw_per_iteration():
    # exact mode draws CHECK_EVERY directions in one call: the same stream,
    # and the same generator state after it, as one rademacher call each
    for n in (1, 17, 22, 129):
        for block in (1, 37, CHECK_EVERY):
            a, b = np.random.default_rng([5, n]), np.random.default_rng([5, n])
            drawn = rademacher(a, (block, n))
            assert np.array_equal(drawn, [rademacher(b, n) for _ in range(block)])
            assert a.random() == b.random()


class TestLrStep:
    SCHED = LrSchedule(kind="regression_window", window=5, min_lr=0.01)

    def test_short_history_no_change(self):
        assert lr_step(self.SCHED, [1.0, 2.0], "max", 0.5, 100) == 0.5

    def test_maximizing_decreasing_history_halves(self):
        hist = [5.0, 4.0, 3.0, 2.0, 1.0]
        assert lr_step(self.SCHED, hist, "max", 0.5, 100) == 0.25

    def test_minimizing_increasing_history_halves(self):
        hist = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert lr_step(self.SCHED, hist, "min", 0.5, 100) == 0.25

    def test_flat_history_counts_as_favorable(self):
        hist = [2.0] * 5
        assert lr_step(self.SCHED, hist, "max", 0.5, 100) == 0.5
        assert lr_step(self.SCHED, hist, "min", 0.5, 100) == 0.5

    def test_floor(self):
        hist = [5.0, 4.0, 3.0, 2.0, 1.0]
        assert lr_step(self.SCHED, hist, "max", 0.012, 100) == 0.01
        assert lr_step(self.SCHED, hist, "max", 0.01, 100) == 0.01
        # a halving never raises a rate that is already below the floor
        assert lr_step(self.SCHED, hist, "max", 0.001, 100) == 0.001
        assert lr_step(LrSchedule(kind="halve_every", period=100, min_lr=0.01), [], "max", 0.001, 100) == 0.001

    def test_bidirectional_growth(self):
        sched = LrSchedule(kind="regression_window_bidir", window=5, min_lr=0.01)
        hist = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert lr_step(sched, hist, "max", 0.1, 100) == 0.1 * optimizer.GROWTH

    def test_halve_every(self):
        sched = LrSchedule(kind="halve_every", period=1000, min_lr=1e-6)
        assert lr_step(sched, [], "min", 0.4, 500) == 0.4
        assert lr_step(sched, [], "min", 0.4, 1000) == 0.2

    def test_fixed(self):
        assert lr_step(LrSchedule(kind="fixed"), [1, 2, 3], "min", 0.3, 100) == 0.3

    @pytest.mark.parametrize("period", [250, 0, -100])
    def test_invalid_period(self, period):
        with pytest.raises(ValueError, match="positive multiple"):
            LrSchedule(kind="halve_every", period=period)


@pytest.fixture(scope="module")
def vqe_problem():
    # ground-state reduction: no constraints, single-qubit Z Hamiltonian
    return build_problem("cham_primal", n_system=1, ansatz_type="purification",
                         layers=2, c=100.0, instance={"h": {"Z": 1.0}, "constraints": []})


class TestRunOptimization:
    def test_zero_iterations_only_initial_evaluation(self, vqe_problem):
        spsa = SpsaConfig(max_iters=0)
        [rec] = run_optimization(vqe_problem.objective, spsa, LrSchedule(), [3],
                               oracle=vqe_problem.oracle.value)
        assert rec.rows.dtype == ROW and rec.rows.shape == (0,)
        assert np.isfinite(rec.final_objective)

    def test_vqe_reduction_converges(self, vqe_problem):
        spsa = SpsaConfig(learning_rate=0.1, perturbation=0.02, normalize=True, max_iters=2000)
        sched = LrSchedule(kind="regression_window", window=300, min_lr=1e-4)
        [rec] = run_optimization(vqe_problem.objective, spsa, sched, [5],
                               oracle=vqe_problem.oracle.value)
        assert abs(vqe_problem.oracle.value - (-1.0)) < 1e-9
        assert rec.final_error < 1e-3

    def test_determinism(self, vqe_problem):
        spsa = SpsaConfig(max_iters=50)
        [a] = run_optimization(vqe_problem.objective, spsa, LrSchedule(), [11], oracle=None)
        [b] = run_optimization(vqe_problem.objective, spsa, LrSchedule(), [11], oracle=None)
        assert len(a.rows) == 50 and _rows_equal(a.rows, b.rows)
        assert np.array_equal(a.final_params, b.final_params)

    @staticmethod
    def _record_points(problem, spsa):
        """Train ``problem`` and return every iteration's record point."""
        evaluate, points = problem.objective.evaluate, []

        def evaluate_recording(params, est=None):
            points.append(np.atleast_2d(params)[0].copy())  # row 0 is the record point
            return evaluate(params, est)

        problem.objective.evaluate = evaluate_recording
        run_optimization(problem.objective, spsa, LrSchedule(), [2], oracle=None)
        assert len(points) == spsa.max_iters + 1
        return [problem.objective.scalars(row) for row in points]

    def test_nonneg_scalars_clamped(self):
        spsa = SpsaConfig(learning_rate=0.3, perturbation=0.1, normalize=True, max_iters=400)
        p = build_problem("trace_distance_dual", n_system=1, ansatz_type="purification",
                          layers=2, c=10.0)
        for scalars in self._record_points(p, spsa):
            assert scalars["lam"][0] >= 0.0
            assert scalars["mu"][0] >= 0.0
        # this instance drives the slack into its bound, so the clamp acts
        q = build_problem("cham_primal", n_system=1, ansatz_type="purification", layers=2, c=10.0,
                          instance={"h": {"Z": 1.0, "X": 0.5}, "constraints": [{"coeffs": {"X": 1.0}, "b": 0.1}]})
        assert min(scalars["z"][0] for scalars in self._record_points(q, spsa)) == 0.0

    def test_lr_changes_only_at_check_boundaries(self, vqe_problem):
        spsa = SpsaConfig(learning_rate=0.5, perturbation=0.1, max_iters=350)
        sched = LrSchedule(kind="regression_window", window=100, min_lr=1e-4)
        [rec] = run_optimization(vqe_problem.objective, spsa, sched, [4], oracle=None)
        lr = rec.rows["lr"]
        assert len(lr) == 350
        assert (np.flatnonzero(lr[1:] != lr[:-1]) % 100 == 99).all()
        assert (lr >= sched.min_lr).all()

    def test_lr_step_sees_every_earlier_row(self, vqe_problem, monkeypatch):
        seen = []

        def recording(schedule, history, direction, current_lr, iteration):
            seen.append((iteration, list(history)))
            return current_lr

        monkeypatch.setattr(optimizer, "lr_step", recording)
        [rec] = run_optimization(vqe_problem.objective, SpsaConfig(max_iters=201), LrSchedule(), [3])
        assert [k for k, _ in seen] == [100, 200]
        for k, history in seen:
            assert history == rec.rows["objective"][:k].tolist()

    def test_shot_mode_runs(self, vqe_problem):
        spsa = SpsaConfig(max_iters=20)
        [rec] = run_optimization(vqe_problem.objective, spsa, LrSchedule(), [7],
                               shots=ShotModel("shots", n=1000), oracle=None)
        assert len(rec.rows) == 20

    @pytest.mark.parametrize("tag,ansatz_type", [("trace_distance_dual", "purification"),
                                                 ("cham_primal", "purification"), ("tvd_dual", "born")])
    def test_shot_mode_tends_to_exact_mode(self, tag, ansatz_type):
        # the runs of one seed share their initial parameters and every Delta,
        # so at 10^15 shots the objective columns agree, here across the
        # Delta block boundary at iteration 100
        row = DEFAULTS[(tag, ansatz_type)]
        objective = build_problem(tag, ansatz_type=ansatz_type).objective
        spsa, sched = SpsaConfig(**{**row["optimizer"], "max_iters": 150}), LrSchedule(**row["schedule"])
        seeds = [[7, 0], [7, 1]]
        exact = run_optimization(objective, spsa, sched, seeds)
        shots = run_optimization(objective, spsa, sched, seeds, shots=ShotModel("shots", n=10**15))
        for a, b in zip(exact, shots):
            want, got = a.rows["objective"], b.rows["objective"]
            assert len(want) == len(got) == 150
            assert (np.abs(got - want) <= 1e-4 * np.maximum(1.0, np.abs(want))).all()

    def test_no_seeds_no_records(self, vqe_problem):
        assert run_optimization(vqe_problem.objective, SpsaConfig(max_iters=5), LrSchedule(), []) == []

    def test_final_params_are_each_runs_own(self, vqe_problem):
        records = run_optimization(vqe_problem.objective, SpsaConfig(max_iters=5), LrSchedule(), [1, 2, 3])
        for i, a in enumerate(records):
            for b in records[i + 1:]:
                assert not np.may_share_memory(a.final_params, b.final_params)

    def test_clamp_acts_on_each_row_of_a_stack(self, rng):
        for tag in ("trace_distance_dual", "cham_primal", "tvd_dual"):
            o = build_problem(tag).objective
            stack = rng.uniform(-1.0, 1.0, (5, o.n_params))
            want = [o.clamp(row.copy()) for row in stack]
            assert o.clamp(stack) is stack
            assert np.array_equal(stack, want)
            assert (stack < 0).any()  # the free coordinates keep their sign


class _StubObjective:
    """Two free parameters; every evaluated row of the stacks ``evaluate``
    receives gives 1.0, except row number ``bad_call``, which gives
    ``bad_value``."""

    direction = "min"

    def __init__(self, bad_call: int, bad_value: float):
        self.calls, self.bad_call, self.bad_value = 0, bad_call, bad_value

    def initial_params(self, rng):
        return np.zeros(2)

    def evaluate(self, params, est=None):
        values = []
        for _ in params:
            self.calls += 1
            values.append(self.bad_value if self.calls == self.bad_call else 1.0)
        return np.array(values), np.zeros(len(values))

    def clamp(self, params):
        return params


class _TaggedStub:
    """Parameter 0 tags the run: a whole number, the first draw of the run's
    generator, which ``clamp`` restores in every row of the stack after every
    step, so the rows of the SPSA pair lie within c of it.  Every row gives a
    finite quadratic in the other two parameters, except the
    ``bad_record``-th record point of the run tagged ``bad_tag``, which gives
    ``bad_value``."""

    direction = "min"

    def __init__(self, bad_tag: float, bad_record: int, bad_value: float):
        self.bad_tag, self.bad_record, self.bad_value = bad_tag, bad_record, bad_value
        self.records: dict[float, int] = {}

    def initial_params(self, rng):
        return np.array([float(rng.integers(1, 2**30)), *rng.uniform(-1.0, 1.0, 2)])

    def evaluate(self, params, est=None):
        values = []
        for row in params:
            value = float((row[1] - 0.3) ** 2 + 2.0 * row[2] ** 2)
            if row[0] == round(row[0]):
                self.records[row[0]] = self.records.get(row[0], 0) + 1
                if row[0] == self.bad_tag and self.records[row[0]] == self.bad_record:
                    value = self.bad_value
            values.append(value)
        return np.array(values), np.zeros(len(values))

    def clamp(self, params):
        params[:, 0] = np.round(params[:, 0])
        return params


# the stubs ignore the Estimators, so both modes give the same records
MODES = [None, ShotModel("shots", n=1000)]


@pytest.mark.parametrize("shots", MODES)
@pytest.mark.parametrize("bad_value", [np.inf, -np.inf, np.nan])
def test_non_finite_objective_aborts(bad_value, shots):
    # each iteration evaluates the record point, then the SPSA pair: row 4 is
    # iteration 1's record, and row 7 the final evaluation after 2 iterations
    spsa = SpsaConfig(max_iters=2)
    [rec] = run_optimization(_StubObjective(4, bad_value), spsa, LrSchedule(), [0], shots=shots)
    assert rec.aborted and len(rec.rows) == 1
    assert rec.abort_reason == f"non-finite objective ({bad_value}) at iteration 1"

    [rec] = run_optimization(_StubObjective(7, bad_value), spsa, LrSchedule(), [0], shots=shots)
    assert rec.aborted and len(rec.rows) == 2
    assert rec.abort_reason == f"non-finite objective ({bad_value}) at iteration 2"
    assert np.isnan(rec.final_objective)

    # in lockstep, the run that aborts leaves the stack: every run's record
    # equals the one it gets when trained alone
    seeds = [0, 1, 2]
    bad_tag = float(np.random.default_rng(seeds[1]).integers(1, 2**30))
    spsa = SpsaConfig(max_iters=6)
    together = run_optimization(_TaggedStub(bad_tag, 4, bad_value), spsa, LrSchedule(), seeds,
                                shots=shots, oracle=0.0)
    alone = [run_optimization(_TaggedStub(bad_tag, 4, bad_value), spsa, LrSchedule(), [seed],
                              shots=shots, oracle=0.0)[0] for seed in seeds]
    assert [r.aborted for r in together] == [False, True, False]
    assert together[1].abort_reason == f"non-finite objective ({bad_value}) at iteration 3"
    assert len(together[1].rows) == 3 and len(together[0].rows) == 6
    for got, want in zip(together, alone):
        assert _rows_equal(got.rows, want.rows)
        assert (got.aborted, got.abort_reason) == (want.aborted, want.abort_reason)
        assert np.array_equal([got.final_objective, got.final_error], [want.final_objective, want.final_error],
                              equal_nan=True)
        assert np.array_equal(got.final_params, want.final_params)


@pytest.mark.parametrize("shots", MODES)
def test_aborted_run_keeps_its_record_point(shots):
    # the run's 4th record point (iteration 3) is non-finite
    stub = _TaggedStub(float(np.random.default_rng(4).integers(1, 2**30)), 4, np.nan)
    stacks, evaluate = [], stub.evaluate

    def evaluate_recording(params, est=None):
        stacks.append(params.copy())
        return evaluate(params, est)

    stub.evaluate = evaluate_recording
    [rec] = run_optimization(stub, SpsaConfig(max_iters=6), LrSchedule(), [4], shots=shots)
    assert rec.aborted and len(rec.rows) == 3
    # row 0 of each iteration's stack is the record point, which the steps move
    assert np.array_equal(rec.final_params, stacks[3][0])
    assert not np.array_equal(rec.final_params, stacks[2][0])


def _random_scalars(objective, rng):
    """Initial parameters with every scalar drawn from [0.1, 0.9]."""
    params = objective.initial_params(rng)
    for b in objective.blocks:
        if b.kind != "angle":
            params[objective.block_slice(b.name)] = rng.uniform(0.1, 0.9, b.size)
    return params


def _assert_matches_central_differences(objective, params, h=1e-5):
    ps = parameter_shift_gradient_vector(objective, params)
    for k in range(objective.n_params):
        up, dn = params.copy(), params.copy()
        up[k] += h
        dn[k] -= h
        fd = (objective.evaluate(up).value - objective.evaluate(dn).value) / (2 * h)
        assert abs(ps[k] - fd) < 1e-6, f"param {k}: shift {ps[k]:.6e} vs fd {fd:.6e}"


class TestParameterShift:
    @pytest.mark.parametrize("tag,kwargs", [
        ("trace_distance_primal", {}),
        ("trace_distance_dual", {}),
        ("fidelity_primal", {}),
        ("fidelity_dual", {}),
        ("cham_primal", {"instance": {"h": {"Z": 1.0, "X": 0.5},
                                      "constraints": [{"coeffs": {"X": 1.0}, "b": 0.1}]}}),
        ("cham_dual", {"instance": {"h": {"Z": 1.0, "X": 0.5},
                                    "constraints": [{"coeffs": {"X": 1.0}, "b": 0.1}]}}),
    ])
    def test_matches_central_differences(self, tag, kwargs, rng):
        p = build_problem(tag, n_system=1, ansatz_type="purification", layers=2, c=5.0, **kwargs)
        _assert_matches_central_differences(p.objective, _random_scalars(p.objective, rng))

    @pytest.mark.parametrize("tag,ansatz_type", sorted(DEFAULTS))
    def test_every_pair_matches_central_differences(self, tag, ansatz_type, rng):
        # the shift rule rests on every ansatz entering the objective with
        # frequency at most two per angle; negativity needs a bipartition and
        # the default cham instances act on two qubits
        n = 2 if tag.startswith(("negativity", "cham", "classical_cham")) else 1
        p = build_problem(tag, n_system=n, ansatz_type=ansatz_type, layers=2, born_layers=1)
        _assert_matches_central_differences(p.objective, _random_scalars(p.objective, rng))

    def test_constant_offset_has_zero_gradient(self, rng):
        objectives = [build_problem("trace_distance_primal", n_system=1, ansatz_type="purification",
                                    layers=2, c=c).objective for c in (5.0, 10.0, 20.0)]
        params = objectives[0].initial_params(rng)
        g5, g10, g20 = (parameter_shift_gradient_vector(o, params) for o in objectives)
        # objective = linear part - c * penalty: the gradient is affine in c
        scale = max(1.0, np.abs([g5, g10, g20]).max())
        assert np.allclose(g20 - g10, 2 * (g10 - g5), rtol=0, atol=1e-9 * scale)
        assert not np.allclose(g10, g5)

    def test_convex_combination_states_supported(self, rng):
        # the shift rule also holds for Born-machine angles: the dephased
        # distribution is linear in the underlying pure state
        p = build_problem("trace_distance_dual", n_system=1, ansatz_type="convex_combination",
                          layers=2, born_layers=1, c=5.0)
        _assert_matches_central_differences(p.objective, p.objective.initial_params(rng))


class TestAggregate:
    def _record(self, values):
        rows = np.zeros(len(values), ROW)
        rows["objective"], rows["lr"] = values, 0.1
        return RunRecord(rows=rows)

    def test_single_run_is_its_own_median(self):
        agg = aggregate_runs([self._record([1.0, 2.0, 3.0])])
        assert [a[0] for a in agg] == [0, 1, 2]
        assert [a[1] for a in agg] == [1.0, 2.0, 3.0]
        assert all(a[2] == a[1] == a[3] for a in agg)

    def test_three_constant_runs(self):
        recs = [self._record([v]) for v in (1.0, 2.0, 3.0)]
        agg = aggregate_runs(recs)
        assert agg[0][1] == 2.0

    def test_sorted_midpoint_convention(self, rng):
        for count in (3, 4, 5, 6):
            vals = rng.standard_normal(count)
            recs = [self._record([v]) for v in vals]
            agg = aggregate_runs(recs)
            s = np.sort(vals)
            mid = s[count // 2] if count % 2 else 0.5 * (s[count // 2 - 1] + s[count // 2])
            assert np.isclose(agg[0][1], mid)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([])
