"""Experiment harnesses: keyed RNG, weight dispatch, loops, validators.

Determinism contracts are tested bit-for-bit (same keys, same bytes; any
worker count, same bytes).  The weight dispatcher is held to the simplex
and to the underlying programs, and the Monte-Carlo validators are checked
for their exact closed-form targets and report shapes.
"""

import concurrent.futures
import dataclasses
import io
import json
import pickle
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lama import criteria as crit
from lama import experiments as xp
from lama import qp
from lama.datasets import load_builtin
from lama.experiments import (
    ALL_METHODS,
    QUADRATIC_METHODS,
    InputError,
    SimulationConfig,
    compute_weights,
    evaluate_real,
    generate_data,
    real_eval_csv,
    relative_losses,
    rng_for,
    run_simulation,
    simulation_csv,
    validate_rmt,
    validate_theorem1,
    worker_count,
)
from lama.models import Dataset, ModelFits, fit_all
from lama.risk_theory import PowerLawProfile, risk_surface

from conftest import make_fits
from oracles import finite_single_model_risk, lama_criterion_value, per_split_evaluation, single_model_risk, value


@pytest.fixture(autouse=True)
def one_worker(monkeypatch):
    # Tests that count or patch calls see only this process's calls, so every
    # harness runs its replications here unless a test asks for workers.
    monkeypatch.setenv("LAMA_THREADS", "1")


class TestRngFor:
    def test_same_keys_same_stream(self):
        a = rng_for(7, "train", 50, 0.5, 3).random(8)
        b = rng_for(7, "train", 50, 0.5, 3).random(8)
        np.testing.assert_array_equal(a, b)

    def test_any_key_coordinate_separates_streams(self):
        base = rng_for(7, "train", 50, 0.5, 3).random(4)
        for other in [
            rng_for(8, "train", 50, 0.5, 3),
            rng_for(7, "test", 50, 0.5, 3),
            rng_for(7, "train", 51, 0.5, 3),
            rng_for(7, "train", 50, 0.25, 3),
            rng_for(7, "train", 50, 0.5, 4),
        ]:
            assert not np.array_equal(base, other.random(4))

    def test_non_word_keys_are_stable(self):
        np.testing.assert_array_equal(
            rng_for(1, -5, 2**40, 0.125).random(4),
            rng_for(1, -5, 2**40, 0.125).random(4),
        )
        assert not np.array_equal(
            rng_for(1, -5).random(4), rng_for(1, 5).random(4)
        )


class TestWorkerCount:
    def test_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv("LAMA_THREADS", raising=False)
        assert worker_count() == 1

    def test_reads_the_environment(self, monkeypatch):
        monkeypatch.setenv("LAMA_THREADS", "4")
        assert worker_count() == 4

    def test_floors_at_one(self, monkeypatch):
        monkeypatch.setenv("LAMA_THREADS", "0")
        assert worker_count() == 1

    def test_garbage_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("LAMA_THREADS", "many")
        with pytest.warns(RuntimeWarning, match="LAMA_THREADS"):
            assert worker_count() == 1

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        # Under fork every worker starts on the first submit, so the pool
        # size is what gets forked; the stand-in runs the map in-process.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers, initializer):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        return sizes

    def test_pool_never_exceeds_the_task_count(self, monkeypatch, pool_sizes):
        monkeypatch.setenv("LAMA_THREADS", "10000")
        assert xp._pmap(abs, [-1, -2]) == [1, 2]
        monkeypatch.setenv("LAMA_THREADS", "3")
        assert xp._pmap(abs, range(-5, 0)) == [5, 4, 3, 2, 1]
        assert pool_sizes == [2, 3]

    @pytest.mark.parametrize("workers, pins, warns", [
        ("1", {}, False),
        ("2", {}, True),
        # Silent only when some pin is set and every pin that is set is 1.
        ("2", {"OPENBLAS_NUM_THREADS": "1"}, False),
        ("2", {"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, False),
        ("2", {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, True),
        ("2", {"MKL_NUM_THREADS": "2"}, True),
        ("1", {"OPENBLAS_NUM_THREADS": "4"}, False),
    ])
    def test_unpinned_blas_under_several_workers_warns(self, monkeypatch, pool_sizes, workers, pins, warns):
        # Without threadpoolctl the workers' BLAS is not pinned; one worker starts no pool and says nothing.
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # find_spec then finds no module
        monkeypatch.setenv("LAMA_THREADS", workers)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in pins.items():
            monkeypatch.setenv(name, value)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert xp._pmap(abs, [-1, -2]) == [1, 2]
        messages = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(messages) == int(warns)
        assert len(pool_sizes) == int(workers == "2")
        assert all("OPENBLAS_NUM_THREADS=1" in m for m in messages)


class TestComputeWeights:
    def test_every_method_lands_on_the_simplex(self):
        fits, _, _ = make_fits(3, n=24, sizes=(1, 3, 6, 10))
        for method in ALL_METHODS:
            choice = compute_weights(fits, method)
            assert choice.method == method
            assert np.all(choice.weights >= 0.0)
            assert choice.weights.sum() == pytest.approx(1.0, abs=1e-8)
            assert choice.weights.shape == (4,)

    def test_record_schema(self):
        fits, _, _ = make_fits(3, n=24, sizes=(1, 3, 6))
        rec = compute_weights(fits, "lama").to_record()
        assert set(rec) == {"method", "weights", "criterion_value", "sigma_hat", "xi"}
        uni = compute_weights(fits, "uniform").to_record()
        assert uni["criterion_value"] is None
        assert uni["sigma_hat"] is None
        assert uni["xi"] is None

    def test_uniform_is_exactly_flat(self):
        fits, _, _ = make_fits(5, n=24, sizes=(1, 3, 6, 10))
        np.testing.assert_array_equal(
            compute_weights(fits, "uniform").weights, np.full(4, 0.25)
        )

    def test_mallows_reports_its_own_criterion(self):
        fits, _, _ = make_fits(7, n=24, sizes=(1, 3, 6))
        choice = compute_weights(fits, "mma")
        prog = crit.mma_program(fits, choice.sigma2_hat)
        assert choice.criterion_value == pytest.approx(value(prog, choice.weights))
        assert choice.sigma2_hat == pytest.approx(crit.sigma_hat(fits))

    def test_mallows_on_a_constant_response_takes_the_smallest_candidate(self):
        # y = 2 on 12 rows beside two Gaussian regressors: the intercept fits
        # exactly, so every RSS is roundoff (4.9e-32, 6.4e-31 and 1.3e-30),
        # rising with k where nested fits cannot.  Each step's curvature is
        # then a tie at 1e-12 times the solve's scale, not a negative one.
        X = np.column_stack([np.ones(12), np.random.default_rng(0).standard_normal((12, 2))])
        fits = fit_all(Dataset(Y=np.full(12, 2.0), X=X, has_intercept=True), (1, 2, 3))
        assert np.all(np.diff(fits.rss) > 0.0)
        choice = compute_weights(fits, "mma")
        assert choice.status == "converged"
        np.testing.assert_array_equal(choice.weights, [1.0, 0.0, 0.0])

    def test_interpolating_candidates_are_zero_weighted(self):
        fits, _, _ = make_fits(9, n=10, sizes=(2, 10), p=10)
        with pytest.warns(RuntimeWarning, match="excluding"):
            jma = compute_weights(fits, "jma")
        assert jma.excluded == (1,)
        assert jma.weights[1] == 0.0
        with pytest.warns(RuntimeWarning, match="boundary"):
            lama = compute_weights(fits, "lama")
        assert lama.excluded == (1,)
        assert lama.weights[1] == 0.0
        assert lama.weights[0] == pytest.approx(1.0)

    def test_information_criteria_exclude_every_rank_n_candidate(self):
        # n = 20 with 30 candidates, as in `simulate --n 20 --m 30 --p 100`:
        # every k >= n candidate interpolates, so its RSS is exactly 0 and
        # each information criterion excludes it and gives it no weight
        # (a roundoff RSS near 1e-28 would win n log(RSS / n)).
        cfg = SimulationConfig(n_values=(20,), p=100, m_values=(30,), replications=4)
        for rep in range(4):
            train = generate_data(cfg, 0.5, rep, n=20, m=30)[0]
            fits = fit_all(train, np.arange(1, 31))
            for method in ("aic", "bic", "saic", "sbic"):
                with pytest.warns(RuntimeWarning, match="interpolating"):
                    choice = compute_weights(fits, method)
                assert choice.excluded == tuple(range(19, 30))
                assert np.all(choice.weights[19:] == 0.0)
                assert choice.weights.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", ["aic", "bic", "saic", "sbic"])
    def test_information_criteria_score_only_the_kept_candidates(self, kind):
        # The candidates with k >= n = 10 interpolate (RSS = 0): compute_weights drops them,
        # scores the rest and spreads those weights back, naming the dropped ones.
        fits, _, _ = make_fits(9, n=10, sizes=(2, 5, 10, 12), p=12)
        kept = fits.rss > 0.0
        assert kept.tolist() == [True, True, False, False]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            choice = compute_weights(fits, kind)
        expected = np.zeros(4)
        expected[kept] = crit.info_criterion_weights(fits.subset(kept), kind)
        assert choice.weights.tobytes() == expected.tobytes()
        (message,) = [str(w.message) for w in caught]
        assert choice.excluded == (2, 3)
        assert f"excluding candidate(s) {list(choice.excluded)}" in message
        everything, _, _ = make_fits(13, n=6, sizes=(6, 8), p=8)
        with pytest.warns(RuntimeWarning, match="interpolating"):
            with pytest.raises(ValueError, match="every candidate .*undefined"):
                compute_weights(everything, kind)

    def test_exclusion_warnings_name_the_calling_file(self):
        fits, _, _ = make_fits(9, n=10, sizes=(2, 10), p=10)
        for method in ("jma", "lama", "aic", "bic", "saic", "sbic"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                compute_weights(fits, method)
            assert [w.filename for w in caught] == [__file__], method

    def test_large_model_criterion_is_per_observation(self):
        fits, _, _ = make_fits(11, n=24, sizes=(1, 3, 6, 10))
        choice = compute_weights(fits, "lama")
        direct = lama_criterion_value(fits, choice.sigma2_hat, choice.xi, choice.weights)
        assert choice.criterion_value == pytest.approx(direct, rel=1e-10)

    def test_all_candidates_at_the_boundary_raise(self):
        fits, _, _ = make_fits(13, n=6, sizes=(6, 8), p=8)
        # Default variance estimation fails first: nothing has residual dof.
        with pytest.raises(ValueError, match="degrees of freedom"):
            compute_weights(fits, "lama")
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ValueError, match="interpolates"):
                compute_weights(fits, "jma")

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_weights_ignore_the_scale_of_the_response(self, seed, log_a):
        # Y -> a Y scales every RSS, leave-one-out residual product and the
        # variance estimate by a^2, and leaves xi's dispersion ratios alone.
        a = 10.0**log_a
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 30))
        X = rng.standard_normal((n, n - 2))
        Y = X[:, :3] @ rng.standard_normal(3) + rng.standard_normal(n)
        sizes = np.unique(np.concatenate([[1, n - 2], rng.integers(1, n - 1, 4)]))
        fits, scaled = (fit_all(Dataset(Y=c * Y, X=X), sizes) for c in (1.0, a))
        for method in QUADRATIC_METHODS:
            base, choice = compute_weights(fits, method), compute_weights(scaled, method)
            if method != "jma":
                assert choice.sigma2_hat == pytest.approx(a * a * base.sigma2_hat, rel=1e-10)
            np.testing.assert_allclose(choice.weights, base.weights, rtol=0.0, atol=1e-9)

    def test_solver_facts_stay_out_of_the_record(self):
        fits, _, _ = make_fits(3, n=24, sizes=(1, 3, 6))
        for method in QUADRATIC_METHODS:
            choice = compute_weights(fits, method)
            assert choice.status == "converged" and choice.kkt_residual >= 0.0
            assert "status" not in choice.to_record() and "kkt_residual" not in choice.to_record()
        assert compute_weights(fits, "uniform").status is None

    def test_unknown_method(self):
        fits, _, _ = make_fits(13, n=24, sizes=(1, 3))
        with pytest.raises(ValueError, match="unknown method"):
            compute_weights(fits, "stacking")


class TestSimulationConfig:
    def test_validation(self):
        good = dict(n_values=(8,), r2_values=(0.5,), p=16)
        SimulationConfig(**good)
        with pytest.raises(ValueError, match="at least 4"):
            SimulationConfig(**{**good, "n_values": (3,)})
        with pytest.raises(ValueError, match="R-squared"):
            SimulationConfig(**{**good, "r2_values": (1.0,)})
        with pytest.raises(ValueError, match="replication"):
            SimulationConfig(**{**good, "replications": 0})
        with pytest.raises(ValueError, match="alpha"):
            SimulationConfig(**{**good, "alpha": 0.0})
        with pytest.raises(ValueError, match="smaller than"):
            SimulationConfig(n_values=(8,), r2_values=(0.5,), p=4, m_values=(6,))
        with pytest.raises(ValueError, match="unknown methods"):
            SimulationConfig(**{**good, "methods": ("mma", "ridge")})
        with pytest.raises(InputError, match="^methods: need at least one"):
            SimulationConfig(**{**good, "methods": ()})
        for m_values in ((), (0,), (3, -3)):
            with pytest.raises(InputError, match="^m_values: "):
                SimulationConfig(**{**good, "m_values": m_values})
        with pytest.raises(InputError, match="^r2_values: "):
            SimulationConfig(**{**good, "r2_values": ()})

    def test_values_are_conformed_or_rejected_by_field(self):
        cfg = SimulationConfig(n_values=[8], r2_values=[1 / 2], p=16.0, alpha=1, m_values=[3])
        assert (cfg.n_values, cfg.r2_values, cfg.p, cfg.alpha, cfg.m_values) == ((8,), (0.5,), 16, 1.0, (3,))
        good = dict(n_values=(8,), r2_values=(0.5,), p=16)
        for field, value in [
            ("n_values", 5), ("replications", "a"), ("methods", "mma"), ("exclude_boundary", "yes"),
            ("truncate_loss", "x"), ("seed", None),
            # Only a number that converts without loss conforms: no truncation, no bools, no strings.
            ("replications", 1.7), ("n_values", [20.9]), ("seed", 0.5), ("replications", True),
            ("replications", "5"), ("alpha", True), ("m_values", [3, False]), ("replications", float("inf")),
        ]:
            with pytest.raises(InputError, match=f"^{field}: expected") as err:
                SimulationConfig(**{**good, field: value})
            assert err.value.field == field

    def test_input_error_survives_pickling(self):
        err = pickle.loads(pickle.dumps(InputError("n_values", "need sample sizes of at least 4")))
        assert isinstance(err, ValueError)
        assert (err.field, str(err)) == ("n_values", "n_values: need sample sizes of at least 4")

    def test_roundtrip_through_plain_dict(self):
        cfg = SimulationConfig(
            n_values=(8, 16),
            r2_values=(0.25, 0.75),
            p=32,
            m_values=(3, 5),
            replications=7,
            seed=42,
            methods=("MMA", "uniform"),
            truncate_loss=100.0,
        )
        assert cfg.methods == ("mma", "uniform")
        assert SimulationConfig(**cfg.to_dict()) == cfg


class TestGenerateData:
    CFG = SimulationConfig(n_values=(12,), r2_values=(0.5,), p=16)

    def test_deterministic_per_replication(self):
        a = generate_data(self.CFG, 0.5, rep=2, n=12, m=11)
        b = generate_data(self.CFG, 0.5, rep=2, n=12, m=11)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.X if hasattr(x, "X") else x, y.X if hasattr(y, "X") else y)
        assert not np.array_equal(a[0].Y, generate_data(self.CFG, 0.5, rep=3, n=12, m=11)[0].Y)

    def test_shapes_and_intercept(self):
        # The design holds only the m = 11 columns the candidates read;
        # theta keeps all p = 16 coefficients.
        train, theta, mu = generate_data(self.CFG, 0.5, rep=0, n=12, m=11)
        assert train.X.shape == (12, 11)
        np.testing.assert_array_equal(train.X[:, 0], 1.0)
        assert theta.shape == (16,)
        assert mu.shape == (12,)

    def test_harmonic_coefficients_at_half_r2(self):
        _, theta, _ = generate_data(self.CFG, 0.5, rep=0, n=12, m=11)
        np.testing.assert_allclose(theta, 1.0 / np.arange(1, 17), atol=1e-14)

    def test_means_are_linear_in_the_design(self):
        # At m = p no column is left out: every array is the full p-column
        # draw bit for bit, and the mean is exactly X theta.
        cfg = self.CFG
        train, theta, mu = generate_data(cfg, 0.5, rep=1, n=12, m=16)
        rng = rng_for(cfg.seed, "train", 12, 16, 0.5, 1)
        X = np.column_stack([np.ones(12), rng.standard_normal((12, 15))])
        full_mu = X @ theta
        Y = full_mu + rng.standard_normal(12)
        assert train.X.tobytes() == X.tobytes()
        assert train.Y.tobytes() == Y.tobytes()
        assert mu.tobytes() == full_mu.tobytes()
        np.testing.assert_array_equal(mu, train.X @ theta)

    def test_left_out_columns_enter_as_one_normal_tail_term(self):
        # Below m = p, mu - X theta[:m] is |theta_tail| z with z standard
        # normal per row.  Over 4000 rows the sample variance of z has
        # standard error sqrt(2 / 4000) = 0.022 and its mean 0.016; the
        # tolerances 0.15 and 0.1 are about six of them.
        train, theta, mu = generate_data(self.CFG, 0.5, rep=0, n=4000, m=5)
        z = (mu - train.X @ theta[:5]) / np.linalg.norm(theta[5:])
        assert abs(np.var(z) - 1.0) <= 0.15
        assert abs(np.mean(z)) <= 0.1

    def test_candidate_count_is_bounded_by_the_regressors(self):
        for m in (0, 17):
            with pytest.raises(InputError) as exc:
                generate_data(self.CFG, 0.5, rep=0, n=12, m=m)
            assert exc.value.field == "m"

    def test_candidate_count_is_part_of_the_key(self):
        a = generate_data(self.CFG, 0.5, rep=0, n=12, m=3)[0]
        b = generate_data(self.CFG, 0.5, rep=0, n=12, m=5)[0]
        assert not np.array_equal(a.Y, b.Y)


class TestRelativeLosses:
    def test_hand_computed_ratios(self):
        # Candidate fitted values miss mu_train = 0 by 1 and 4; candidate
        # coefficients (1, 0) and (0, 3) miss theta = (1, 0 | 2) by 0 + 4 and
        # 10 + 4, the tail |theta[2:]|^2 = 4 counted in both.
        pred_tr = np.array([[1.0, 2.0], [0.0, 0.0]])
        coefs = np.array([[1.0, 0.0], [0.0, 3.0]])
        theta = np.array([1.0, 0.0, 2.0])
        rows, excluded = relative_losses({"m": np.array([0.5, 0.5])}, pred_tr, np.zeros(2), coefs, theta)
        assert not excluded
        assert rows["m"][0] == pytest.approx(2.25)  # (1.5^2 + 0) / min(1, 4)
        assert rows["m"][1] == pytest.approx(1.625)  # (0.5^2 + 1.5^2 + 4) / min(4, 14)

    def test_perfect_candidate_flags_the_replication(self):
        mu, exact = np.ones(2), np.ones((2, 1))
        theta = np.array([1.0, 2.0])
        for pred, coefs in ((exact, np.array([[1.0], [0.0]])), (2.0 * exact, theta[:, None])):
            rows, excluded = relative_losses({"m": np.ones(1)}, pred, mu, coefs, theta)
            assert excluded
            assert rows == {}


@pytest.mark.parametrize("shape", ["simulate", "thm1"])
def test_exact_risk_is_the_mean_squared_error_on_fresh_rows(shape):
    # One training draw at n = 20 as each harness makes it: simulate's with
    # an intercept and a nonzero theta tail past its 30 drawn columns,
    # validate-thm1's without an intercept (a tail here too).  The exact risk
    # of each candidate (25 and 30 lie past the boundary) and of a non-vertex
    # average must match the mean squared error against the mean over
    # 200,000 fresh rows within 4 of its standard errors.
    if shape == "simulate":
        train, theta, _ = generate_data(SimulationConfig(n_values=(20,), p=60), 0.5, rep=0, n=20, m=30)
    else:
        theta = np.linspace(1.0, 0.1, 60)
        X, Y, _ = xp._draw(rng_for(0, "thm1", 20, 0), 20, theta, 30, False, 1.0)
        train = Dataset(Y=Y, X=X)
    assert np.linalg.norm(theta[30:]) > 0.1
    fits = fit_all(train, (3, 10, 25, 30))
    betas = np.column_stack([fits.coefs, fits.coefs @ np.array([0.4, 0.3, 0.2, 0.1])])
    Xt, _, mu_t = xp._draw(rng_for(1, "fresh rows", shape), 200_000, theta, 30, train.has_intercept, 0.0)
    sq = (Xt @ betas - mu_t[:, None]) ** 2
    risk = xp._risk(betas, theta)
    assert np.all(np.abs(risk - sq.mean(axis=0)) <= 4.0 * sq.std(axis=0) / np.sqrt(sq.shape[0]))
    assert xp._risk(betas[:, -1], theta) == pytest.approx(risk[-1], rel=1e-14)


class TestRunSimulation:
    TINY = SimulationConfig(
        n_values=(8,), r2_values=(0.5,), p=16, m_values=(3, 5),
        replications=4, seed=1, methods=("mma", "uniform"),
    )

    def test_canonical_row_order(self):
        rows = run_simulation(self.TINY)
        assert [(r["method"], r["M"]) for r in rows] == [
            ("mma", 3), ("uniform", 3), ("mma", 5), ("uniform", 5),
        ]
        for r in rows:
            assert r["n"] == 8 and r["R2"] == 0.5
            assert np.isfinite(r["rel_loss_in_mean"])
            assert np.isfinite(r["rel_loss_out_mean"])
            assert r["rel_loss_out_var"] >= 0.0
            assert r["excluded_reps"] == 0

    def test_identical_at_any_worker_count(self, monkeypatch):
        serial = run_simulation(self.TINY)
        monkeypatch.setenv("LAMA_THREADS", "2")
        parallel = run_simulation(self.TINY)
        assert serial == parallel  # dict equality is exact float equality

    def test_failed_replications_are_counted_and_leave_nan(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("weight choice failed")

        monkeypatch.setattr(xp, "compute_weights", fail)
        for r in run_simulation(self.TINY):
            assert r["excluded_reps"] == self.TINY.replications
            assert np.isnan([r["rel_loss_in_mean"], r["rel_loss_out_mean"], r["rel_loss_out_var"]]).all()

    def test_degenerate_replications_are_counted_and_leave_nan(self, monkeypatch):
        # A candidate that matches the true mean leaves the loss denominators at 0.
        monkeypatch.setattr(xp, "relative_losses", lambda *args: ({}, True))
        for r in run_simulation(self.TINY):
            assert r["excluded_reps"] == self.TINY.replications
            assert np.isnan([r["rel_loss_in_mean"], r["rel_loss_out_mean"], r["rel_loss_out_var"]]).all()

    def test_loss_cap_applies(self):
        capped = SimulationConfig(**{**self.TINY.to_dict(), "truncate_loss": 0.5})
        for row in run_simulation(capped):
            assert row["rel_loss_in_mean"] <= 0.5
            assert row["rel_loss_out_mean"] <= 0.5

    def test_boundary_exclusion_changes_the_candidate_set(self):
        base = dict(
            n_values=(8,), r2_values=(0.5,), p=16, m_values=(8,),
            replications=2, seed=3, methods=("uniform",),
        )
        with_k_n = run_simulation(SimulationConfig(**base))
        without = run_simulation(
            SimulationConfig(**base, exclude_boundary=True)
        )
        assert with_k_n[0]["rel_loss_out_mean"] != without[0]["rel_loss_out_mean"]

    def test_uniform_average_degrades_toward_the_boundary(self, monkeypatch):
        # Including near-interpolating candidates inflates the out-of-sample
        # loss far more than the in-sample loss.
        cfg = SimulationConfig(
            n_values=(64,), r2_values=(0.5,), p=128, m_values=(32, 63),
            replications=50, seed=11, methods=("uniform",),
        )
        monkeypatch.setenv("LAMA_THREADS", "2")
        half, near = run_simulation(cfg)
        assert near["rel_loss_out_mean"] > 2.0 * half["rel_loss_out_mean"]
        out_in_near = near["rel_loss_out_mean"] / near["rel_loss_in_mean"]
        out_in_half = half["rel_loss_out_mean"] / half["rel_loss_in_mean"]
        assert out_in_near > out_in_half

    def test_csv_layout(self):
        rows = run_simulation(self.TINY)
        buf = io.StringIO()
        simulation_csv(rows, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == (
            "method,n,M,R2,rel_loss_in_mean,rel_loss_out_mean,"
            "rel_loss_out_var,excluded_reps"
        )
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert first[0] == "mma"
        assert float(first[4]) == rows[0]["rel_loss_in_mean"]


class TestEvaluateReal:
    def test_report_rows(self):
        data = load_builtin("mtcars")
        rows = evaluate_real(data, n_train=25, reps=6, seed=0, methods=("mma", "lama"))
        assert [r["method"] for r in rows] == ["mma", "lama"]
        for r in rows:
            assert r["n_train"] == 25
            assert r["reps"] == 6
            assert r["excluded"] == 0
            assert r["test_err_mean"] > 0.0
            assert r["test_err_var"] >= 0.0

    def test_single_split_single_test_point(self):
        data = load_builtin("mtcars")
        rows = evaluate_real(data, n_train=31, reps=1, seed=0, methods=("mma",))
        assert rows[0]["reps"] == 1
        assert rows[0]["test_err_var"] == 0.0

    def test_identical_at_any_worker_count(self, monkeypatch):
        data = load_builtin("mtcars")
        serial = evaluate_real(data, 25, reps=8, seed=4, methods=("mma", "jma"))
        monkeypatch.setenv("LAMA_THREADS", "2")
        parallel = evaluate_real(data, 25, reps=8, seed=4, methods=("mma", "jma"))
        assert serial == parallel

    def test_candidate_cap_override(self):
        data = load_builtin("mtcars")
        rows = evaluate_real(data, 25, reps=2, seed=0, methods=("mma",), max_models=3)
        assert rows[0]["reps"] == 2

    def test_validation(self):
        data = load_builtin("mtcars")
        with pytest.raises(ValueError, match="n_train"):
            evaluate_real(data, 1, reps=1, seed=0)
        with pytest.raises(ValueError, match="n_train"):
            evaluate_real(data, 32, reps=1, seed=0)
        with pytest.raises(ValueError, match="max_models"):
            evaluate_real(data, 25, reps=1, seed=0, max_models=99)
        with pytest.raises(InputError, match="^reps: "):
            evaluate_real(data, 25, reps=0, seed=0)

    def test_unknown_methods_are_rejected_before_any_split(self, monkeypatch):
        monkeypatch.setattr(xp, "_real_split", None)  # any split would raise TypeError
        for methods, match in [
            (("mma", "foo"), r"unknown methods \['foo'\]"), ("mma", "string 'mma'"), ((), "at least one method"),
        ]:
            with pytest.raises(InputError, match=match):
                evaluate_real(load_builtin("mtcars"), 25, reps=3, seed=0, methods=methods)

    def test_no_surviving_split_reports_nan(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("weight choice failed")

        # _weigh is where a chunk's stacked weighing enters, and compute_weights too.
        monkeypatch.setattr(xp, "_weigh", fail)
        (row,) = evaluate_real(load_builtin("mtcars"), 25, reps=3, seed=0, methods=("mma",))
        assert (row["reps"], row["excluded"]) == (0, 3)
        assert np.isnan(row["test_err_mean"]) and np.isnan(row["test_err_var"])

    def test_redraws_count_every_split(self, monkeypatch):
        # One nonzero response in 400: a 4-row training draw is constant 99%
        # of the time, so some splits use up their 100 draws and are dropped
        # as degenerate.  Each split's draws past its first are redraws,
        # whether it survives, is degenerate or fails.
        Y = np.zeros(400)
        Y[7] = 1.0
        X = np.column_stack([np.ones(400), np.random.default_rng(0).standard_normal((400, 2))])
        data = Dataset(Y=Y, X=X, has_intercept=True)
        redraws, degenerate = 0, 0
        for rep in range(20):
            split = rng_for(0, "real-split", 4, rep)
            hits = [7 in split.permutation(400)[:4] for _ in range(100)]
            redraws += hits.index(True) if any(hits) else 99
            degenerate += not any(hits)
        (row,) = evaluate_real(data, 4, reps=20, seed=0, methods=("mma",), max_models=2)
        assert degenerate > 0
        assert (row["excluded"], row["redraws"]) == (degenerate, redraws)

        def fail(*args, **kwargs):
            raise ValueError("weight choice failed")

        monkeypatch.setattr(xp, "_weigh", fail)  # where the chunk's stacked weighing enters
        (row,) = evaluate_real(data, 4, reps=20, seed=0, methods=("mma",), max_models=2)
        assert (row["reps"], row["excluded"], row["redraws"]) == (0, 20, redraws)

    def test_csv_layout(self):
        data = load_builtin("mtcars")
        rows = evaluate_real(data, 25, reps=2, seed=0, methods=("mma",))
        buf = io.StringIO()
        real_eval_csv(rows, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "method,n_train,test_err_mean,test_err_var,reps"
        fields = lines[1].split(",")
        assert fields[0] == "mma"
        assert float(fields[2]) == rows[0]["test_err_mean"]


def sparse_dataset(N: int, sparse_row: int, near_row: int | None = None, seed: int = 0) -> Dataset:
    """N rows: an intercept, three Gaussian regressors, one that is nonzero in ``sparse_row`` only
    and, given ``near_row``, one that repeats the first Gaussian but for 1e-6 in that row.

    A training split without ``sparse_row`` has an exactly zero pivot, and one without ``near_row``
    a dependent column; with ``near_row`` the design is near-singular but passes the pivot test.
    """
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((N, 3))
    sparse = np.zeros(N)
    sparse[sparse_row] = 1.0
    columns = [np.ones(N), G, sparse]
    if near_row is not None:
        near = G[:, 0].copy()
        near[near_row] += 1e-6
        columns.append(near)
    return Dataset(Y=G @ [1.0, -0.5, 0.25] + rng.standard_normal(N), X=np.column_stack(columns), has_intercept=True)


@pytest.fixture
def fit_calls(monkeypatch):
    """Counts of np.linalg.qr and experiments.fit_all calls from here on."""
    calls = {"qr": 0, "fit_all": 0}
    qr, fit = np.linalg.qr, xp.fit_all

    def count_qr(*args, **kwargs):
        calls["qr"] += 1
        return qr(*args, **kwargs)

    def count_fit(*args):
        calls["fit_all"] += 1
        return fit(*args)

    monkeypatch.setattr(np.linalg, "qr", count_qr)
    monkeypatch.setattr(xp, "fit_all", count_fit)
    return calls


class TestEvalChunks:
    """A chunk of splits is fitted from one stacked QR, bit for bit as one fit_all per split."""

    def test_a_chunk_of_passing_designs(self, fit_calls):
        data = load_builtin("crime")
        reference = per_split_evaluation(data, 18, 20, 0, QUADRATIC_METHODS)
        fit_calls.update(qr=0, fit_all=0)
        assert evaluate_real(data, 18, reps=20, seed=0) == reference
        assert fit_calls == {"qr": 1, "fit_all": 0}

    def test_singular_and_near_singular_designs_take_fit_all(self, fit_calls):
        data = sparse_dataset(40, sparse_row=7, near_row=11)
        reference = per_split_evaluation(data, 20, 30, 1, QUADRATIC_METHODS, max_models=6)
        fit_calls.update(qr=0, fit_all=0)
        assert evaluate_real(data, 20, reps=30, seed=1, max_models=6) == reference
        assert 0 < fit_calls["fit_all"] < 30
        assert fit_calls["qr"] == 1 + fit_calls["fit_all"]

    def test_one_failing_design_costs_one_fit_all(self, fit_calls):
        # With n_train = N - 1 the only test row decides: the split that leaves row r out
        # trains on an exactly zero column, and every other split keeps row r.
        test_rows = [rng_for(0, "real-split", 39, rep).permutation(40)[39] for rep in range(20)]
        assert test_rows.count(test_rows[3]) == 1
        data = sparse_dataset(40, sparse_row=test_rows[3])
        reference = per_split_evaluation(data, 39, 20, 0, ("mma", "lama"), max_models=5)
        fit_calls.update(qr=0, fit_all=0)
        assert evaluate_real(data, 39, reps=20, seed=0, methods=("mma", "lama"), max_models=5) == reference
        assert fit_calls == {"qr": 2, "fit_all": 1}

    def test_interpolating_candidates_are_filled(self, fit_calls):
        # max_models = n_train: the widest candidate has rank n, so its residuals are exactly 0.
        data = load_builtin("crime")
        reference = per_split_evaluation(data, 12, 30, 1, QUADRATIC_METHODS, max_models=12)
        fit_calls.update(qr=0, fit_all=0)
        assert evaluate_real(data, 12, reps=30, seed=1, max_models=12) == reference
        assert fit_calls == {"qr": 1, "fit_all": 0}

    def test_past_the_boundary_every_design_takes_fit_all(self, fit_calls):
        data = load_builtin("crime")
        reference = per_split_evaluation(data, 12, 30, 1, QUADRATIC_METHODS, max_models=14)
        fit_calls.update(qr=0, fit_all=0)
        assert evaluate_real(data, 12, reps=30, seed=1, max_models=14) == reference
        assert fit_calls["fit_all"] == 30

    def test_a_partial_last_chunk(self, fit_calls):
        reps = xp._CHUNK_SPLITS + 5
        data = load_builtin("mtcars")
        reference = per_split_evaluation(data, 24, reps, 2, ("mma", "jma"))
        fit_calls.update(qr=0, fit_all=0)
        assert evaluate_real(data, 24, reps=reps, seed=2, methods=("mma", "jma")) == reference
        assert fit_calls == {"qr": 2, "fit_all": 0}

    def test_chunks_in_two_workers(self, monkeypatch):
        reps = 2 * xp._CHUNK_SPLITS + 10
        data = load_builtin("crime")
        reference = per_split_evaluation(data, 18, reps, 3, QUADRATIC_METHODS)
        monkeypatch.setenv("LAMA_THREADS", "2")
        assert evaluate_real(data, 18, reps=reps, seed=3) == reference


def split_fits(data, n_train, reps, seed, max_models=None):
    """Each split's fit_all fits, drawn as evaluate_real draws its splits (none constant here)."""
    X, sizes = xp._nested_candidates(data, n_train, max_models)
    fits = []
    for rep in range(reps):
        idx, _ = xp._real_split(rng_for(seed, "real-split", n_train, rep), data.Y, n_train)
        fits.append(fit_all(Dataset(Y=data.Y[idx[:n_train]], X=X[idx[:n_train]]), sizes))
    return fits


class TestStackedWeights:
    """A chunk's mma and lama choices, weighed as one stack, are compute_weights's on each fit, bit for bit;
    its jma choices take the lockstep Gram route, equal to compute_weights's up to roundoff."""

    @pytest.mark.parametrize("name, n_train, max_models",
                             [("crime", 18, None), ("crime", 12, 14), ("mtcars", 24, None)])
    def test_every_choice_equals_the_per_fit_choice(self, name, n_train, max_models):
        # At n_train 12 with 14 candidates every split is past the boundary: lama drops k >= 12,
        # mma keeps the three interpolating candidates, whose RSS ties at 0, and jma drops them
        # on every split (leverage 1), so no fit is stacked and compute_weights weighs each alone.
        fits = split_fits(load_builtin(name), n_train, xp._CHUNK_SPLITS, 0, max_models)
        chosen = xp._weigh_stack(fits, ("mma", "jma", "lama"))
        assert sorted(chosen) == (["lama", "mma"] if max_models else ["jma", "lama", "mma"])  # no stack raised
        if max_models:
            assert (fits[0].rss[-3:] == 0.0).all()
            assert all(crit.loo_flagged(f)[-3:].all() for f in fits)
        for method, stacked in chosen.items():
            assert len(stacked) == len(fits)
            for f, choice in zip(fits, stacked):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    alone = compute_weights(f, method)
                assert choice.excluded == alone.excluded == ((11, 12, 13) if method == "lama" and max_models else ())
                if method == "jma":  # the certificate's scale, max(1, max|A|, max|b|) with b = 0
                    scale = max(1.0, float(crit.jma_program(f).A.diagonal().max()))
                    assert np.abs(choice.weights - alone.weights).max() <= 1e-10 * scale
                    assert (choice.status, choice.iterations) == (alone.status, alone.iterations)
                    assert choice.kkt_residual <= 1e-9 * scale
                    assert choice.sigma2_hat is choice.xi is alone.sigma2_hat is alone.xi is None
                    continue
                assert choice.weights.tobytes() == alone.weights.tobytes()
                for field in ("criterion_value", "sigma2_hat", "xi", "iterations", "status", "kkt_residual"):
                    assert getattr(choice, field) == getattr(alone, field), (method, field)

    def test_the_leave_one_out_mask_of_a_stack_is_the_per_fit_masks(self):
        # mtcars at 12 training rows with 10 candidates: split 10 alone of splits 8-12 has a leverage at 1.
        # A mask reduced over the leading axis, not the row axis, came back n x M.
        fits = split_fits(load_builtin("mtcars"), 12, 13, 0, 10)[8:]
        masks = np.array([crit.loo_flagged(f) for f in fits])
        assert masks.any(axis=1).tolist() == [False, False, True, False, False]
        stack = ModelFits(fits[0].n, fits[0].sizes, *(np.array([getattr(f, a.name) for f in fits])
                                                      for a in dataclasses.fields(ModelFits)[2:]))
        np.testing.assert_array_equal(crit.loo_flagged(stack), masks)

    def test_a_chunk_mixes_stacked_and_handed_off_jma_splits(self, monkeypatch):
        # 7 of mtcars's 64 splits at 12 training rows with 10 candidates drop a leave-one-out
        # candidate: the chunk stacks the other 57 jma programs and hands those 7 to
        # compute_weights, which weighs each alone, and mma stacks all 64.
        data = load_builtin("mtcars")
        fits = split_fits(data, 12, xp._CHUNK_SPLITS, 0, 10)
        flagged = [bool(crit.loo_flagged(f).any()) for f in fits]
        assert sum(flagged) == 7
        assert [choice is None for choice in xp._weigh_stack(fits, ("mma", "jma"))["jma"]] == flagged
        weighed, compute = [], xp.compute_weights

        def record(fits, method):
            weighed.append((fits, method, compute(fits, method)))
            return weighed[-1][2]

        monkeypatch.setattr(xp, "compute_weights", record)
        X, sizes = xp._nested_candidates(data, 12, 10)
        outcomes = xp._real_splits((X, data.Y, sizes, 12, ("mma", "jma"), 0, range(xp._CHUNK_SPLITS)))
        monkeypatch.undo()
        assert [reason for _, _, reason in outcomes] == [None] * len(fits)
        assert [method for _, method, _ in weighed] == ["jma"] * 7
        for (chunk_fits, _, choice), f in zip(weighed, [f for f, bad in zip(fits, flagged) if bad]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                alone = compute_weights(f, "jma")
            assert chunk_fits.residuals.tobytes() == f.residuals.tobytes()
            assert choice.weights.tobytes() == alone.weights.tobytes()
            assert choice.excluded == alone.excluded != ()
        reps = xp._CHUNK_SPLITS
        reference = per_split_evaluation(data, 12, reps, 0, ("mma", "jma"), max_models=10)
        assert evaluate_real(data, 12, reps=reps, seed=0, methods=("mma", "jma"), max_models=10) == reference

    def test_jma_stacks_only_where_the_lockstep_route_is_faster(self):
        # Below _JMA_STACK_MIN programs, or past _JMA_FACTOR_ENTRIES entries per padded factor
        # (n_train 50 with 45 candidates: 45 * (50 + 1 + 45) = 4320), every fit weighs jma alone.
        fits = split_fits(load_builtin("crime"), 18, xp._JMA_STACK_MIN, 0)
        assert sorted(xp._weigh_stack(fits, ("mma", "jma"))) == ["jma", "mma"]
        assert sorted(xp._weigh_stack(fits[1:], ("mma", "jma"))) == ["mma"]
        rng = np.random.default_rng(0)
        X = rng.standard_normal((60, 45))
        wide = split_fits(Dataset(Y=X[:, :3].sum(axis=1) + rng.standard_normal(60), X=X), 50, 16, 0)
        assert wide[0].M * (50 + 1 + wide[0].M) > xp._JMA_FACTOR_ENTRIES
        assert not any(crit.loo_flagged(f).any() for f in wide)
        assert sorted(xp._weigh_stack(wide, ("mma", "jma"))) == ["mma"]

    def test_a_split_whose_program_raises_is_dropped_alone(self, monkeypatch):
        # sigma_hat reads 0 on split 7 alone, so its lama program raises ("sigma2_hat must be
        # positive") and its mma program does not: that split is dropped, with that reason.
        data, target = load_builtin("crime"), 7
        zeroed = split_fits(data, 18, 20, 0)[target].rss
        sigma = crit.sigma_hat

        def zero_one(fits):
            return np.where((fits.rss == zeroed).all(axis=-1), 0.0, sigma(fits))[()]

        monkeypatch.setattr(crit, "sigma_hat", zero_one)
        reference = per_split_evaluation(data, 18, 20, 0, QUADRATIC_METHODS)
        assert [r["excluded"] for r in reference] == [1, 1, 1]
        assert evaluate_real(data, 18, reps=20, seed=0) == reference
        X, sizes = xp._nested_candidates(data, 18)
        outcomes = xp._real_splits((X, data.Y, sizes, 18, QUADRATIC_METHODS, 0, range(20)))
        assert [reason for _, _, reason in outcomes] == [None] * 7 + ["sigma2_hat must be positive"] + [None] * 12


class TestValidateRmt:
    def test_under_parameterized_report(self):
        report = validate_rmt(60, 0.5, reps=3, seed=1)
        assert report["k"] == 30
        block = report["trace_inverse"]
        assert block["theoretical"] == pytest.approx(1.0)
        assert block["empirical"] > 0.0
        assert block["rel_error"] >= 0.0
        assert "trace_pinv" not in report

    def test_over_parameterized_report(self):
        report = validate_rmt(40, 2.0, reps=3, seed=1)
        assert report["k"] == 80
        assert report["trace_pinv"]["theoretical"] == pytest.approx(1.0)
        assert report["signal_quadratic_form"]["theoretical"] == pytest.approx(0.5)

    def test_custom_signal_direction(self):
        theta = np.zeros(80)
        theta[0] = 2.0
        report = validate_rmt(40, 2.0, reps=2, seed=1, theta=theta)
        assert report["signal_quadratic_form"]["theoretical"] == pytest.approx(2.0)

    def test_boundary_and_size_validation(self):
        with pytest.raises(ValueError, match="boundary"):
            validate_rmt(10, 1.0, reps=1, seed=0)
        with pytest.raises(ValueError, match="^n: .*at least 4"):
            validate_rmt(2, 0.5, reps=1, seed=0)
        with pytest.raises(InputError, match="^c: 0.01 too small for n=30"):
            validate_rmt(30, 0.01, reps=1, seed=0)

    def test_limits_are_taken_at_the_drawn_ratio(self):
        # round(c n) columns at a non-integral c n: k/n = 8/25 and 42/25, not c.
        below = validate_rmt(25, 0.3, reps=2, seed=0)
        assert (below["k"], below["c"]) == (8, 0.3)
        assert below["trace_inverse"]["theoretical"] == (8 / 25) / (1.0 - 8 / 25)
        above = validate_rmt(25, 1.7, reps=2, seed=0)
        assert (above["k"], above["c"]) == (42, 1.7)
        assert above["trace_pinv"]["theoretical"] == 1.0 / (42 / 25 - 1.0)
        assert above["signal_quadratic_form"]["theoretical"] == 1.0 / (42 / 25)

    def test_singular_designs_are_redrawn_and_counted(self, monkeypatch):
        draw, calls = xp._draw, []

        def singular_every_other(rng, rows, theta, m, intercept, sigma):
            X, Y, mu = draw(rng, rows, theta, m, intercept, sigma)
            calls.append(None)
            return (np.zeros_like(X) if len(calls) % 2 else X), Y, mu

        monkeypatch.setattr(xp, "_draw", singular_every_other)
        for c in (0.5, 2.0):
            assert validate_rmt(20, c, reps=3, seed=0)["retries"] == 3
        monkeypatch.setattr(xp, "_draw", lambda rng, rows, theta, m, *rest: (np.zeros((rows, m)), None, None))
        with pytest.raises(np.linalg.LinAlgError, match="20 tries"):
            validate_rmt(20, 0.5, reps=1, seed=0)

    def test_deterministic(self):
        assert validate_rmt(30, 0.5, 2, 9) == validate_rmt(30, 0.5, 2, 9)

    def test_identical_at_any_worker_count(self, monkeypatch):
        serial = [validate_rmt(60, c, reps=6, seed=1) for c in (0.5, 2.0)]
        monkeypatch.setenv("LAMA_THREADS", "2")
        assert [validate_rmt(60, c, reps=6, seed=1) for c in (0.5, 2.0)] == serial

    def test_theta_must_be_finite(self):
        # Past the boundary a NaN once reached the JSON writer; below it theta is unused but still checked.
        for n, c, k in [(4, 1.5, 6), (10, 0.5, 5)]:
            for bad in (np.nan, np.inf, -np.inf):
                theta = np.zeros(k)
                theta[1] = bad
                with pytest.raises(InputError, match="^theta: .*finite"):
                    validate_rmt(n, c, reps=2, seed=0, theta=theta)

    def test_zero_signal_error_is_absolute(self):
        # An all-zero theta makes the quadratic form and its limit 0; the error is then absolute, as in
        # validate_theorem1, not a division by zero.
        report = validate_rmt(4, 1.5, reps=2, seed=0, theta=np.zeros(6))
        assert report["signal_quadratic_form"] == {"empirical": 0.0, "theoretical": 0.0, "rel_error": 0.0}
        assert report["trace_pinv"]["rel_error"] > 0.0

    def test_theta_length_must_be_k(self):
        # k = round(c n) = 80 past the boundary, where theta is used, and
        # k = 30 below it, where theta is unused but still checked.
        with pytest.raises(ValueError, match="k=80"):
            validate_rmt(40, 2.0, reps=1, seed=0, theta=np.ones(40))
        with pytest.raises(ValueError, match="k=30"):
            validate_rmt(60, 0.5, reps=1, seed=0, theta=np.ones(3))


class TestValidateTheorem1:
    def test_single_carried_candidate_matches_lone_model_form(self, rng):
        theta = rng.standard_normal(8)
        report = validate_theorem1(40, (8,), theta, sigma2=2.0, reps=2, seed=0)
        expected = single_model_risk(0.2, float(theta @ theta), 2.0)
        assert report["theoretical_risk"] == pytest.approx(expected, rel=1e-12)
        assert report["theoretical_bias"] == pytest.approx(0.0, abs=1e-12)
        assert report["empirical_risk"] > 0.0

    def test_noiseless_signal_is_pure_bias(self):
        report = validate_theorem1(40, (2,), np.ones(4), sigma2=0.0, reps=2, seed=0)
        assert report["theoretical_variance"] == 0.0
        assert report["theoretical_bias"] == pytest.approx(2.0 / 0.95)
        assert report["rel_error"] >= 0.0

    def test_explicit_weights_and_validation(self):
        theta = np.ones(6)
        report = validate_theorem1(30, (2, 4), theta, 1.0, reps=1, seed=0, w=(0.25, 0.75))
        assert report["sizes"] == [2, 4]
        for w, match in [((1.0,), "weight length"), ((0.5, np.nan), "finite"), ((0.7, 0.7), "simplex"),
                         ((-0.5, 1.5), "simplex")]:
            with pytest.raises(InputError, match=f"^w: .*{match}"):
                validate_theorem1(30, (2, 4), theta, 1.0, reps=1, seed=0, w=w)
        with pytest.raises(ValueError, match="exceeds"):
            validate_theorem1(30, (2, 8), theta, 1.0, reps=1, seed=0)
        for sigma2 in (-1.0, np.nan, np.inf):
            with pytest.raises(InputError, match="nonnegative") as err:
                validate_theorem1(30, (2, 4), theta, sigma2, reps=1, seed=0)
            assert err.value.field == "sigma2"

    def test_rejects_non_integral_and_bool_sizes(self):
        # 2.7 and 4.1 would otherwise be truncated to sizes 2 and 4 and reported as such.
        for sizes in ([2.7, 4.1], [True, 4], [2, np.nan]):
            with pytest.raises(InputError, match="integers") as err:
                validate_theorem1(20, sizes, np.ones(6), 1.0, reps=1, seed=0)
            assert err.value.field == "sizes"
        assert validate_theorem1(20, [2.0, 4.0], np.ones(6), 1.0, reps=1, seed=0)["sizes"] == [2, 4]

    def test_rejects_off_simplex_weights(self):
        for w, match in [([0.7, 0.7], "simplex"), ([1.5, -0.5], "simplex"), ([1.0], "length"),
                         ([0.5, np.nan], "finite"), ([np.inf, 0.0], "finite")]:
            with pytest.raises(InputError, match=match) as err:
                validate_theorem1(30, (2, 4), np.ones(6), 1.0, reps=1, seed=0, w=w)
            assert err.value.field == "w"

    def test_positive_weight_at_the_boundary_raises(self):
        theta = np.ones(4)
        with pytest.raises(ValueError, match="boundary") as err:
            validate_theorem1(2, (1, 2), theta, 1.0, reps=2, seed=0)
        assert not isinstance(err.value, InputError)
        report = validate_theorem1(2, (1, 2), theta, 1.0, reps=2, seed=0, w=(1.0, 0.0))
        assert np.isfinite(report["theoretical_risk"]) and np.isfinite(report["rel_error"])

    def test_identical_at_any_worker_count(self, monkeypatch):
        # Candidates on both sides of the boundary n = 40.
        theta = np.linspace(1.0, 0.1, 100)
        serial = validate_theorem1(40, (5, 20, 60, 90), theta, 1.0, reps=8, seed=2)
        monkeypatch.setenv("LAMA_THREADS", "2")
        assert validate_theorem1(40, (5, 20, 60, 90), theta, 1.0, reps=8, seed=2) == serial

    def test_draws_only_the_columns_its_candidates_read(self, monkeypatch):
        # Coefficients past sizes[-1] reach the draw only through the tail norm, so
        # zero padding moves nothing but that norm's roundoff.
        theta = np.linspace(1.0, 0.2, 8)
        short = validate_theorem1(40, (2, 4), theta, 1.0, reps=3, seed=0)
        padded = validate_theorem1(40, (2, 4), np.concatenate([theta, np.zeros(400)]), 1.0, reps=3, seed=0)
        assert padded["empirical_risk"] == pytest.approx(short["empirical_risk"], rel=1e-12)
        for part in ("risk", "bias", "variance"):
            assert padded["theoretical_" + part] == short["theoretical_" + part]
        # With sizes[-1] = len(theta) the training design is the full p-column draw.
        designs = []
        fit = xp.fit_all
        monkeypatch.setattr(xp, "fit_all", lambda data, sizes: designs.append(data.X) or fit(data, sizes))
        validate_theorem1(40, (2, 8), theta, 1.0, reps=1, seed=0)
        assert designs[0].tobytes() == rng_for(0, "thm1", 40, 0).standard_normal((40, 8)).tobytes()

    def test_weight_next_to_the_boundary_warns(self):
        # E tr((X'X)^-1) diverges at k = n - 1 and E tr((XX')^-1) at k = n + 1, so the empirical
        # risk of such a candidate has no mean to settle at; weight next to them stays silent.
        theta = np.linspace(1.0, 0.1, 30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            validate_theorem1(20, (5, 18, 22), theta, 1.0, reps=2, seed=0)
            validate_theorem1(20, (5, 19, 21), theta, 1.0, reps=2, seed=0, w=(1.0, 0.0, 0.0))
        for w, near in [((0.5, 0.5, 0.0), [19]), ((0.0, 0.0, 1.0), [21]), ((0.0, 0.5, 0.5), [19, 21])]:
            with pytest.warns(RuntimeWarning, match=re.escape(f"sizes {near} have |k - n| = 1")):
                validate_theorem1(20, (5, 19, 21), theta, 1.0, reps=2, seed=0, w=w)

    @pytest.mark.parametrize("k", [35, 65])
    def test_lone_model_risk_matches_its_finite_n_expectation(self, k):
        # At n = 50 the finite-n risk of a lone fit sits 7% (k = 35) and 5% (k = 65) above what
        # the denominators n - k and k - n would give: about 6 standard errors at 2,000 draws.
        n, reps, profile = 50, 2000, PowerLawProfile(exponent=1.0, scale=0.5, truncate=150)
        theta = profile.coefficients(150)
        risks = np.array([xp._thm1_rep((n, np.array([k]), theta, 1.0, np.ones(1), 0, rep))[0]
                          for rep in range(reps)])
        head2 = float(profile.prefix_norm2(k))
        expected = finite_single_model_risk(n, k, head2, profile.total_norm2() - head2, 1.0)
        assert abs(risks.mean() - expected) <= 4.0 * risks.std(ddof=1) / np.sqrt(reps)

    @pytest.mark.parametrize("c", [0.5, 0.8, 1.3, 2.0])
    def test_lone_model_limit_is_the_finite_n_risk_as_n_grows(self, c):
        # The Theorem-1 diagonal that validate-thm1 and `surface --weights single` print
        # is a limit: its gap to the finite-n risk at k = c n shrinks as n doubles.
        profile = PowerLawProfile(exponent=1.0, scale=0.5, truncate=2000)
        gaps = []
        for n in (50, 100, 200, 400):
            k = round(c * n)
            limit = float(risk_surface([n], [k], profile, 1.0, "single").risk[0])
            head2 = float(profile.prefix_norm2(k))
            gaps.append(abs(limit / finite_single_model_risk(n, k, head2, profile.total_norm2() - head2, 1.0) - 1))
        assert all(later < earlier for earlier, later in zip(gaps, gaps[1:])), gaps
        assert gaps[-1] < gaps[0] / 4, gaps


def test_every_quadratic_solve_goes_through_one_name(monkeypatch):
    # The benchmark's qp.* spans wrap experiments.solve_simplex_qp, so every
    # method's solve on one fit must be looked up there, and its report passed
    # on as is (each gets its own status label here, so a substituted one
    # shows).  eval solves a chunk's mma, jma and lama programs as one stack
    # through lama.qp's own name instead, whose report lists one status per program.
    reports = []

    def count(*args, **kwargs):
        reports.append(dataclasses.replace(solve(*args, **kwargs), status=f"solve {len(reports)}"))
        return reports[-1]

    def count_stack(*args, **kwargs):
        report = solve(*args, **kwargs)
        reports.extend([report] * len(report.status))
        return report

    solve = xp.solve_simplex_qp
    monkeypatch.setattr(xp, "solve_simplex_qp", count)
    monkeypatch.setattr(qp, "solve_simplex_qp", count_stack)
    evaluate_real(load_builtin("crime"), n_train=18, reps=3, seed=0, methods=QUADRATIC_METHODS)
    assert len(reports) == 9
    fits, _, _ = make_fits(3, n=24, sizes=(1, 3, 6))
    for method in QUADRATIC_METHODS:
        choice = compute_weights(fits, method)
        last = reports[-1]
        assert (choice.status, choice.iterations, choice.kkt_residual) == (
            last.status, last.iterations, last.kkt_residual)
    assert len(reports) == 12


def test_each_large_model_solve_forms_its_vectors_once(monkeypatch):
    # The same (g, h) set xi and build the program; mma and jma never form them.
    # Two candidates have k >= n = 10, so the lama solve runs on the kept subset.
    calls = []

    def count(*args):
        calls.append(args)
        return vectors(*args)

    vectors = crit.lama_vectors
    monkeypatch.setattr(crit, "lama_vectors", count)
    fits, _, _ = make_fits(9, n=10, sizes=(2, 5, 10, 12), p=12)
    with pytest.warns(RuntimeWarning, match="boundary"):
        choice = compute_weights(fits, "lama")
    assert len(calls) == 1 and calls[0][0].M == 2
    assert choice.excluded == (2, 3)
    compute_weights(fits, "mma")
    with pytest.warns(RuntimeWarning, match="interpolates"):
        compute_weights(fits, "jma")
    assert len(calls) == 1


def test_every_design_draw_goes_through_one_name(monkeypatch):
    # A span timing the design draw can wrap experiments._draw only if both
    # harnesses that fit synthetic designs take every normal there: one
    # training draw per replication, and no other generator call.
    rows, inside = [], []

    class Watched:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, *args):
            assert inside, "standard_normal called outside _draw"
            return self.rng.standard_normal(*args)

    def count(rng, n_rows, *args):
        rows.append(n_rows)
        inside.append(True)
        try:
            return draw(rng, n_rows, *args)
        finally:
            inside.pop()

    draw, keyed = xp._draw, xp.rng_for
    monkeypatch.setattr(xp, "rng_for", lambda *keys: Watched(keyed(*keys)))
    monkeypatch.setattr(xp, "_draw", count)
    cfg = SimulationConfig(n_values=(12,), m_values=(5,), r2_values=(0.5,), p=20, replications=3,
                           methods=("mma",), seed=0)
    run_simulation(cfg)
    assert rows == [12] * 3
    validate_theorem1(30, (2, 4), np.ones(6), 1.0, reps=2, seed=0)
    assert rows[3:] == [30] * 2
    validate_rmt(12, 0.5, reps=2, seed=0)
    assert rows[5:] == [12] * 2


def test_every_solve_on_the_benchmark_configs_converges(monkeypatch):
    # eval on crime at n_train 18 and on mtcars at n_train 24, simulate at
    # n = 50 with M = 45 and 100 (past the boundary), and the criterion-7
    # simulate config, at reduced replications.
    # eval weighs each chunk's mma and lama choices as one stack (_weigh_stack).
    choices = []

    def record(*args, **kwargs):
        choice = compute_weights(*args, **kwargs)
        choices.append(choice)
        return choice

    def record_stack(*args, **kwargs):
        chosen = weigh_stack(*args, **kwargs)
        choices.extend(choice for stacked in chosen.values() for choice in stacked)
        return chosen

    weigh_stack = xp._weigh_stack
    monkeypatch.setattr(xp, "compute_weights", record)
    monkeypatch.setattr(xp, "_weigh_stack", record_stack)
    evaluate_real(load_builtin("crime"), n_train=18, reps=10, seed=0, methods=QUADRATIC_METHODS)
    evaluate_real(load_builtin("mtcars"), n_train=24, reps=10, seed=0, methods=QUADRATIC_METHODS)
    cfg = SimulationConfig(n_values=(50,), m_values=(45, 100), r2_values=(0.5,), p=1000, replications=3,
                           methods=QUADRATIC_METHODS, seed=0)
    run_simulation(cfg)
    criterion7 = SimulationConfig(n_values=(50,), m_values=(45,), r2_values=(0.5,), alpha=0.5, p=1000,
                                  replications=10, methods=QUADRATIC_METHODS, seed=0)
    run_simulation(criterion7)
    assert len(choices) == 3 * (10 + 10 + 2 * 3 + 10)
    assert [c.status for c in choices] == ["converged"] * len(choices)


@pytest.mark.filterwarnings("ignore:leave-one-out criterion:RuntimeWarning")
@pytest.mark.parametrize("m", [45, 100])
def test_the_jackknife_weights_factor_no_m_by_m_matrix(monkeypatch, m):
    # At the simulate-boundary shape the jma program is its n x M factor B:
    # no eigvalsh convexity check of B'B and no SVD of a bordered KKT system
    # runs.  The fits come first, since past the boundary fit_all may take
    # its SVD route.
    cfg = SimulationConfig(n_values=(50,), m_values=(m,), r2_values=(0.5,), p=1000, replications=3, seed=0)
    fits = [fit_all(generate_data(cfg, 0.5, rep, 50, m)[0], np.arange(1, m + 1)) for rep in range(3)]

    def forbidden(*args, **kwargs):
        raise AssertionError("the jackknife path factored an M x M matrix")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    for f in fits:
        choice = compute_weights(f, "jma")
        assert choice.status == "converged"
        assert choice.excluded == tuple(range(49, m))  # k >= n interpolates


def _eval_json(n_train=20, reps=2, max_models=3):
    rows = evaluate_real(load_builtin("mtcars"), n_train, reps=reps, seed=0, methods=("mma",),
                         max_models=max_models)
    return json.dumps(rows)


def _generated(n=12, m=5, rep=1):
    cfg = SimulationConfig(n_values=(12,), m_values=(5,), p=20, replications=1, methods=("mma",))
    train, _, _ = generate_data(cfg, 0.5, rep, n, m)
    return train.X.tobytes() + train.Y.tobytes()


def _surface_csv(n_values, m_values):
    out = io.StringIO()
    risk_surface(n_values, m_values, PowerLawProfile(0.6, 1.0)).to_csv(out)
    return out.getvalue()


_SIZES_DATA = Dataset(Y=np.arange(10.0), X=np.random.default_rng(0).standard_normal((10, 4)))

# Every count argument: (field named by the InputError, a call on the argument that returns
# bytes, JSON or a repr, so an unconverted 100.0 would show, and a valid plain int).
_COUNT_ARGUMENTS = {
    "fit_all-sizes": ("sizes", lambda v: fit_all(_SIZES_DATA, [1, v]).coefs.tobytes(), 3),
    "risk_surface-n_values": ("n_values", lambda v: _surface_csv([v], [10]), 20),
    "risk_surface-m_values": ("m_values", lambda v: _surface_csv([20], [v]), 10),
    "evaluate_real-n_train": ("n_train", lambda v: _eval_json(n_train=v), 20),
    "evaluate_real-reps": ("reps", lambda v: _eval_json(reps=v), 2),
    "evaluate_real-max_models": ("max_models", lambda v: _eval_json(max_models=v), 3),
    "validate_rmt-n": ("n", lambda v: json.dumps(validate_rmt(v, 0.5, reps=1, seed=0)), 12),
    "validate_rmt-reps": ("reps", lambda v: json.dumps(validate_rmt(12, 0.5, reps=v, seed=0)), 2),
    "validate_theorem1-n": (
        "n", lambda v: json.dumps(validate_theorem1(v, (2, 4), np.ones(6), 1.0, reps=1, seed=0)), 30),
    "validate_theorem1-reps": (
        "reps", lambda v: json.dumps(validate_theorem1(30, (2, 4), np.ones(6), 1.0, reps=v, seed=0)), 2),
    "rng_for-seed": ("seed", lambda v: rng_for(v, "key").random(4).tobytes(), 3),
    "generate_data-n": ("n", lambda v: _generated(n=v), 12),
    "generate_data-m": ("m", lambda v: _generated(m=v), 5),
    "generate_data-rep": ("rep", lambda v: _generated(rep=v), 1),
    "PowerLawProfile-truncate": ("truncate", lambda v: repr(PowerLawProfile(0.6, 1.0, truncate=v)), 10),
    "from_snr-truncate": ("truncate", lambda v: repr(PowerLawProfile.from_snr(1.0, 0.6, truncate=v)), 10),
    "from_r2-p": ("p", lambda v: repr(PowerLawProfile.from_r2(0.5, 0.5, v)), 10),
    "coefficients-count": ("count", lambda v: PowerLawProfile(0.6, 1.0).coefficients(v).tobytes(), 10),
}


@pytest.mark.parametrize("name", sorted(_COUNT_ARGUMENTS))
def test_every_count_argument_takes_only_integral_values(name):
    # A non-integral, bool or string count is an InputError naming its argument, never a
    # truncation or a TypeError from inside numpy; an integral float or numpy integer
    # gives exactly what the plain int gives.
    field, call, plain = _COUNT_ARGUMENTS[name]
    for bad in (2.5, True, np.float64(2.5), "3"):
        with pytest.raises(InputError) as err:
            call(bad)
        assert err.value.field == field, (bad, err.value)
    expected = call(plain)
    for same in (float(plain), np.int64(plain)):
        assert call(same) == expected, same
