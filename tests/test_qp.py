"""Simplex quadratic programs: projection, solver, and solve reports.

The solver is held to a lattice brute-force oracle on low-dimensional
problems (rank-deficient ones included), to an exact face-enumeration oracle
on small Gram programs, to hand-solved two-candidate programs, and to the
feasibility, determinism, tie-breaking and convexity contracts that the
experiment layer relies on.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lama.criteria import b_in_diag, jma_program, lama_program, lama_vectors, mma_program, sigma_hat, v_out_matrix, xi
from lama.models import Dataset, ModelFits, fit_all
from lama import qp
from lama.qp import GramForm, NestedForm, _checked, _gradient, _report, simplex_project, solve_simplex_qp

from conftest import grid_min, simplex_grid, summary_fits
from oracles import lama_criterion_value, matrix, simplex_minimum


class TestSimplexProject:
    def test_plugs(self):
        np.testing.assert_allclose(simplex_project([2.0, 0.0]), [1.0, 0.0])
        np.testing.assert_allclose(simplex_project([-1.0, 1.0]), [0.0, 1.0])
        np.testing.assert_allclose(simplex_project([0.3, 0.3, 0.4]), [0.3, 0.3, 0.4])

    def test_idempotent(self, rng):
        v = rng.standard_normal(6)
        w = simplex_project(v)
        np.testing.assert_allclose(simplex_project(w), w, atol=1e-12)

    def test_output_is_feasible_and_closest(self, rng):
        for _ in range(20):
            v = 3.0 * rng.standard_normal(4)
            w = simplex_project(v)
            assert np.all(w >= 0.0)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            others = simplex_grid(4, step=0.05)
            dists = np.linalg.norm(others - v, axis=1)
            assert np.linalg.norm(w - v) <= dists.min() + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            simplex_project([])
        with pytest.raises(ValueError, match="finite"):
            simplex_project([np.nan, 1.0])


class TestSolveSimplexQp:
    def test_identity_prefers_uniform(self):
        report = solve_simplex_qp(np.eye(3))
        np.testing.assert_allclose(report.weights, np.full(3, 1 / 3), atol=1e-9)
        assert report.status == "converged"
        assert report.objective == pytest.approx(1 / 3, abs=1e-9)

    def test_two_candidate_closed_form(self):
        # min w1^2 + 2 w2^2 on the simplex: gradient balance at (2/3, 1/3),
        # whatever the scale of the program.
        for c in (1e-9, 1.0, 1e8):
            report = solve_simplex_qp(c * np.diag([1.0, 2.0]))
            np.testing.assert_allclose(report.weights, [2 / 3, 1 / 3], atol=1e-9)
            assert report.status == "converged"

    def test_linear_term_pulls_to_a_vertex(self):
        report = solve_simplex_qp(np.eye(2), b=[-2.0, 0.0])
        np.testing.assert_allclose(report.weights, [1.0, 0.0], atol=1e-9)
        assert report.objective == pytest.approx(-1.0, abs=1e-9)

    def test_matches_lattice_oracle_on_random_convex_programs(self, rng):
        for _ in range(10):
            M = int(rng.integers(2, 5))
            G = rng.standard_normal((M + 2, M))
            A = G.T @ G / M
            b = rng.standard_normal(M)
            report = solve_simplex_qp(A, b)
            assert report.status == "converged"
            assert report.objective <= grid_min(A, b, step=0.01) + 1e-6

    def test_feasibility_is_exact(self, rng):
        for _ in range(10):
            G = rng.standard_normal((3, 5))
            report = solve_simplex_qp(G.T @ G, rng.standard_normal(5))
            assert np.all(report.weights >= 0.0)
            assert report.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_indefinite_program_finds_the_best_vertex(self):
        # w1^2 - w2^2 on the simplex is minimized at the second vertex.
        report = solve_simplex_qp(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(report.weights, [0.0, 1.0], atol=1e-9)
        assert report.objective == pytest.approx(-1.0, abs=1e-9)

    def test_indefinite_never_loses_to_the_lattice(self, rng):
        # Indefinite on the whole space, convex on the simplex: u1' + 1u' is
        # linear there, so only the PSD part G'G curves the objective.
        for _ in range(5):
            G = rng.standard_normal((2, 3))
            u = rng.standard_normal(3)
            A = G.T @ G + 3.0 * np.add.outer(u - u.mean(), u - u.mean())
            b = rng.standard_normal(3)
            assert np.linalg.eigvalsh(A)[0] < 0.0
            report = solve_simplex_qp(A, b)
            assert report.status == "converged"
            assert report.objective <= grid_min(A, b, step=0.02) + 1e-6

    def test_negative_curvature_on_the_simplex_raises(self):
        for A in (-np.eye(3), np.array([[0.0, 1.0], [1.0, 0.0]])):
            with pytest.raises(ValueError, match="not convex on the simplex"):
                solve_simplex_qp(A)

    def test_rank_deficient_programs_match_the_lattice(self):
        # Singular KKT systems on the working face: A = G'G with rank < M,
        # some with a term linear on the simplex, some with integer b so
        # that objective values tie.  Their centred Gram programs, solved
        # as stacks by shape, match the lattice too: the faces that fail the
        # pivot test hand their programs to the one-program route.
        rng = np.random.default_rng(7)
        programs, lattice = [], []
        for i in range(200):
            M = int(rng.integers(3, 5))
            G = rng.standard_normal((int(rng.integers(1, M)), M))
            A = G.T @ G
            if i % 3 == 0:
                u = rng.standard_normal(M)
                A = A + np.add.outer(u, u)
            b = rng.standard_normal(M)
            if i % 2 == 0:
                b = np.round(b)
            report = solve_simplex_qp(A, b)
            lattice.append((A, b, grid_min(A, b, step=0.01 if M == 3 else 0.02)))
            assert report.status == "converged"
            assert report.objective <= lattice[-1][2] + 1e-6
            form, linear = qp._centred_factor(A, b)
            programs.append((form.B, linear))
        stacked, handed = solved_as_stacks(programs)
        assert handed
        for (w, _, _, status, _), (A, b, least) in zip(stacked, lattice):
            assert status == "converged" and w @ A @ w + b @ w <= least + 1e-6

    def test_lama_program_indefinite_on_the_whole_space_is_solved(self):
        # Sizes (1, 2), n = 10, sigma2 = 1, zero residuals: sigma2 max(k_q, k_l)
        # makes A indefinite, but on the simplex it is linear and the rest,
        # sigma2 n k_min / (n - k_min), is PSD.
        n, sizes = 10, np.array([1, 2])
        fits = ModelFits(
            n=n,
            sizes=sizes,
            coefs=np.zeros((2, 2)),
            residuals=np.zeros((n, 2)),
            leverages=np.tile(sizes / n, (n, 1)),
            rss=np.zeros(2),
            ranks=sizes.copy(),
        )
        program = lama_program(*lama_vectors(fits, 1.0), 0.0)
        A = matrix(program.A)
        assert np.linalg.eigvalsh(A)[0] < 0.0
        for report in (solve_simplex_qp(A, program.b), solve_simplex_qp(program.A, program.b)):
            assert report.status == "converged"
            assert report.objective <= grid_min(A, program.b) + 1e-12
            assert report.objective / n == pytest.approx(
                lama_criterion_value(fits, 1.0, 0.0, report.weights), rel=1e-12
            )

    def test_deterministic_across_calls(self, rng):
        G = rng.standard_normal((4, 4))
        A, b = G.T @ G, rng.standard_normal(4)
        first = solve_simplex_qp(A, b)
        second = solve_simplex_qp(A, b)
        assert np.array_equal(first.weights, second.weights)
        assert first.objective == second.objective
        assert first.iterations == second.iterations

    def test_flat_objective_ties_break_to_the_lowest_index_vertex(self):
        report = solve_simplex_qp(np.zeros((3, 3)))
        np.testing.assert_array_equal(report.weights, [1.0, 0.0, 0.0])
        report = solve_simplex_qp(np.ones((3, 3)), b=[1.0, 0.0, 0.0])
        np.testing.assert_array_equal(report.weights, [0.0, 1.0, 0.0])

    def test_asymmetric_input_sees_only_the_symmetric_part(self, rng):
        G = rng.standard_normal((4, 3))
        S = rng.standard_normal((3, 3))
        A = G.T @ G + (S - S.T)
        b = rng.standard_normal(3)
        direct = solve_simplex_qp(A, b)
        symmetrized = solve_simplex_qp(0.5 * (A + A.T), b)
        assert np.array_equal(direct.weights, symmetrized.weights)

    def test_the_iteration_cap_reports_max_iter(self, monkeypatch):
        # From the best vertex of I, the uniform minimizer needs more than one step.
        monkeypatch.setattr(qp, "_MAX_ITER", 1)
        report = solve_simplex_qp(np.eye(3))
        assert (report.status, report.iterations) == ("max-iter", 1)
        assert report.kkt_residual > 1e-9

    def test_single_candidate_shortcut(self):
        report = solve_simplex_qp(np.array([[4.0]]), b=[1.0])
        np.testing.assert_array_equal(report.weights, [1.0])
        assert report.objective == pytest.approx(5.0)
        assert report.status == "converged"
        assert report.iterations == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            solve_simplex_qp(np.ones((2, 3)))
        with pytest.raises(ValueError, match="empty program"):
            solve_simplex_qp(np.zeros((0, 0)))
        with pytest.raises(ValueError, match="length"):
            solve_simplex_qp(np.eye(2), b=[1.0])
        with pytest.raises(ValueError, match="finite"):
            solve_simplex_qp(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestGramForm:
    """The general path: A = B'B read through B and a factor of its free columns,
    held to the face enumeration oracle on small programs and, for a dense A,
    through the Gram program of its centred factor."""

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=2**32 - 1), st.booleans(), st.booleans(), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_matches_the_dense_path(self, n, M, seed, duplicate, zero, linear):
        # Wide and tall B with column scales from 1e-3 to 1e3, maybe a
        # duplicated and a zero column, and b zero or random.  GramForm(B) and
        # B'B are held to the exact oracle up to M = 7 and to each other beyond.
        # The optimum is unique only where B has full column rank, so the
        # weights are compared there alone, at the face solver's own margin:
        # s_min > 1e-6 s_max.
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((n, M)) * 10.0 ** rng.uniform(-3.0, 3.0, M)
        if duplicate and M > 1:
            to, source = rng.choice(M, 2, replace=False)
            B[:, to] = B[:, source]
        if zero:
            B[:, rng.integers(M)] = 0.0
        b = rng.standard_normal(M) * 10.0 ** rng.uniform(-3.0, 3.0) if linear else np.zeros(M)
        report = solve_simplex_qp(GramForm(B), b)
        dense = solve_simplex_qp(B.T @ B, b)
        scale = max(1.0, float(np.max(np.abs(B.T @ B))), float(np.max(np.abs(b))))
        s = np.linalg.svd(B, compute_uv=False)
        unique = n >= M and s[-1] > 1e-6 * s[0]
        if M <= 7:
            weights, objective = simplex_minimum(B.T @ B, b)
            pairs = [(report, weights, objective), (dense, weights, objective)]
        else:
            pairs = [(report, dense.weights, dense.objective)]
        assert report.status == dense.status == "converged"
        for solved, weights, objective in pairs:
            assert abs(solved.objective - objective) <= 1e-12 * scale
            if unique:
                assert np.max(np.abs(solved.weights - weights)) <= 1e-10 * scale

    def test_a_column_on_the_affine_hull_of_the_face_takes_a_zero_curvature_step(self, monkeypatch):
        # c2 = (c0 + c1) / 2 enters last, after c3, c0 and c1, because its
        # linear term lies below the mean of theirs.  The face {0, 1, 2, 3} is
        # then affinely dependent: the bordered factor is singular, and that
        # face alone takes a zero-curvature walk to the next bound.  An exact
        # duplicate never enters a face its twin is on: the two gradient
        # entries are equal, so this is how a dependent column does.
        B = np.array([[1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0]])
        b = np.array([0.1, 0.98, 0.52, 0.0])
        steps = []
        gram_face = qp._gram_face

        def recorded(*args):
            face = gram_face(*args)

            def step(free, w):
                steps.append(face(free, w))
                return steps[-1]

            return step

        monkeypatch.setattr(qp, "_gram_face", recorded)
        report = solve_simplex_qp(GramForm(B), b)
        monkeypatch.undo()
        assert [cap for _, cap in steps].count(np.inf) == 1
        reference = solve_simplex_qp(B.T @ B, b)
        assert report.status == reference.status == "converged"
        assert report.iterations == reference.iterations == 5
        np.testing.assert_allclose(report.weights, [0.42, 0.0, 11 / 150, 38 / 75], rtol=0.0, atol=1e-12)
        assert report.objective <= grid_min(B.T @ B, b, step=0.01) + 1e-12

    @pytest.mark.parametrize("b", [[0.1, 0.98, 0.52, 0.0], [0.0, 0.0, 1.0, 0.0]])
    def test_the_zero_curvature_step_walks_downhill(self, b):
        # On the face {0, 1, 2, 3} of the B above, c2 = (c0 + c1) / 2 closes an
        # affine dependence: the step is +-(-1/2, -1/2, 1, 0), uncapped, with
        # whichever sign the linear term makes a descent direction.
        B = np.array([[1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0]])
        b = np.array(b)
        w = np.full(4, 0.25)
        p, cap = qp._gram_face(B, b, 1.0)([0, 1, 2, 3], w)
        assert cap == np.inf
        np.testing.assert_allclose(np.abs(p), [0.5, 0.5, 1.0, 0.0], rtol=0.0, atol=1e-12)
        assert _gradient(GramForm(B), b, w) @ p < 0.0

    def test_no_active_set_cycle_on_degenerate_programs(self):
        # Duplicate and zero columns at scales 1e-3 to 1e3: a zero step that
        # drops the index that just entered brings back the state just left,
        # which would repeat to the iteration cap.  Seeds 104, 151, 178, 192,
        # 215, 245, 452 and 481 (B'B) and 494 (GramForm(B)) did so with a
        # bordered-SVD face solver, 816 (GramForm(B)) and 1029 (B'B) do so
        # with the factor alone.  As stacks by shape, where the faces that fail the pivot
        # test hand their programs to the one-program route, each reaches the same objective.
        programs, alone = [], []
        for seed in [*range(500), 816, 1029]:
            rng = np.random.default_rng(seed)
            n, M = rng.integers(1, 31), rng.integers(1, 41)
            B = rng.standard_normal((n, M)) * 10.0 ** rng.uniform(-3, 3, M)
            if rng.random() < 0.5 and M > 1:
                to, source = rng.choice(M, 2, replace=False)
                B[:, to] = B[:, source]
            if rng.random() < 0.5:
                B[:, rng.integers(M)] = 0.0
            b = rng.standard_normal(M) * 10.0 ** rng.uniform(-3, 3) if rng.random() < 0.5 else np.zeros(M)
            for A in (GramForm(B), B.T @ B):
                report = solve_simplex_qp(A, b)
                assert report.status == "converged" and report.iterations < 1000, seed
            programs.append((B, b))
            alone.append((report.objective, max(1.0, float(np.max(np.abs(B.T @ B))), float(np.max(np.abs(b))))))
        stacked, handed = solved_as_stacks(programs)
        assert handed
        for (_, objective, iterations, status, _), (least, scale) in zip(stacked, alone):
            assert status == "converged" and iterations < 1000 and abs(objective - least) <= 1e-12 * scale

    def test_no_bordered_svd_runs(self, monkeypatch, rng):
        # A dense A is solved as the Gram program of its centred factor, and a
        # dependent face walks its zero-curvature direction from the factor.
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        G = rng.standard_normal((3, 5))
        B = np.array([[1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0]])
        programs = [(G.T @ G, rng.standard_normal(5)), (GramForm(B), [0.1, 0.98, 0.52, 0.0]), (np.diag([1, 2, 4]), None)]
        monkeypatch.setattr(np.linalg, "svd", refuse)
        for A, b in programs:
            assert solve_simplex_qp(A, b).status == "converged"

    def test_single_candidate_and_validation(self):
        report = solve_simplex_qp(GramForm([[3.0], [4.0]]), b=[1.0])
        np.testing.assert_array_equal(report.weights, [1.0])
        assert report.objective == pytest.approx(26.0)
        with pytest.raises(ValueError, match="two-dimensional"):
            GramForm(np.ones(3))
        with pytest.raises(ValueError, match="empty program"):
            solve_simplex_qp(GramForm(np.zeros((3, 0))))
        with pytest.raises(ValueError, match="length"):
            solve_simplex_qp(GramForm(np.eye(2)), b=[1.0])
        for B in ([[1.0, np.nan]], [[np.inf, 0.0]], [[1e200, 0.0]]):
            with pytest.raises(ValueError, match="Gram form contains non-finite"), np.errstate(over="ignore"):
                solve_simplex_qp(GramForm(B))


    def test_a_jma_solve_forms_the_diagonal_once(self, monkeypatch):
        # max|A| in _checked and the best-vertex start both read diag(B'B): one einsum over B.
        rng = np.random.default_rng(3)
        X = rng.standard_normal((18, 15))
        program = jma_program(fit_all(Dataset(Y=X[:, :3].sum(axis=1) + rng.standard_normal(18), X=X), np.arange(1, 16)))
        einsum, subscripts = np.einsum, []

        def counting(*args, **kwargs):
            subscripts.append(args[0])
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counting)
        report = solve_simplex_qp(program.A, program.b)
        assert report.status == "converged" and subscripts == ["ij,ij->j"]


def solved_as_stacks(programs):
    """(report fields per program, the B of each program that left its stack) of the Gram programs
    (B, b), each solved in one stack with the others of its shape."""
    groups, fields, handed = {}, [None] * len(programs), []
    for i, (B, _) in enumerate(programs):
        groups.setdefault(np.shape(B), []).append(i)
    alone = qp._gram_solve
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qp, "_gram_solve", lambda *args: handed.append(args) or alone(*args))
        for members in groups.values():
            report = solve_simplex_qp(GramForm([programs[i][0] for i in members]), [programs[i][1] for i in members])
            for at, i in enumerate(members):
                fields[i] = (report.weights[at], report.objective[at], report.iterations[at], report.status[at],
                             report.kkt_residual[at])
    return fields, [form.B for form, *_ in handed]


class TestGramStack:
    """A stack of Gram programs, solved in lockstep: each program's bits do not depend on its
    stack-mates, and a face that fails the pivot test hands its program to the one-program route."""

    def test_every_program_is_itself_solved_as_a_stack_of_one(self):
        # 64 programs with 6 rows and 9 candidates, columns at scales 1e-3 to 1e3, a third with
        # column 2 on the affine hull of columns 0 and 1, half with a linear term: some faces
        # fail the pivot test, and their programs leave the stack.
        rng = np.random.default_rng(11)
        B = rng.standard_normal((64, 6, 9)) * 10.0 ** rng.uniform(-3.0, 3.0, (64, 1, 9))
        B[::3, :, 2] = (B[::3, :, 0] + B[::3, :, 1]) / 2.0
        b = rng.standard_normal((64, 9)) * (np.arange(64) % 2 == 0)[:, None]
        stacked, handed = solved_as_stacks([(B[i], b[i]) for i in range(64)])
        assert 0 < len(handed) < 32
        for i in range(64):
            (one,), _ = solved_as_stacks([(B[i], b[i])])
            assert one[0].tobytes() == stacked[i][0].tobytes()
            assert one[1:] == stacked[i][1:]
            assert one[3] == "converged"
            if any(np.array_equal(B[i], left) for left in handed):  # the one-program route's weights, bit for bit
                assert solve_simplex_qp(GramForm(B[i]), b[i]).weights.tobytes() == stacked[i][0].tobytes()

    def test_a_stack_agrees_with_the_one_program_route(self, rng):
        # 40 programs with more candidates than rows, half with a linear term: the stack meets the
        # one-program route's weights within 1e-10 x scale, with its status and iterations.
        B = rng.standard_normal((40, 9, 12)) * 10.0 ** rng.uniform(-3.0, 3.0, (40, 1, 12))
        b = rng.standard_normal((40, 12)) * (np.arange(40) % 2 == 0)[:, None]
        report = solve_simplex_qp(GramForm(B), b)
        assert np.shape(report.weights) == (40, 12)
        for i in range(40):
            alone = solve_simplex_qp(GramForm(B[i]), b[i])
            scale = max(1.0, float(np.max(np.abs(B[i].T @ B[i]))), float(np.max(np.abs(b[i]))))
            assert np.max(np.abs(report.weights[i] - alone.weights)) <= 1e-10 * scale
            assert abs(report.objective[i] - alone.objective) <= 1e-12 * scale
            assert (report.status[i], report.iterations[i]) == (alone.status, alone.iterations)
            assert report.kkt_residual[i] <= 1e-9 * scale

    def test_the_iteration_cap_reports_max_iter(self, monkeypatch):
        # Program 0 needs more than one step from its best vertex; program 1 starts at a zero
        # column, whose vertex is optimal, so it stops within the cap.
        monkeypatch.setattr(qp, "_MAX_ITER", 1)
        report = solve_simplex_qp(GramForm([np.eye(3), np.diag([0.0, 1.0, 1.0])]))
        assert (report.status, report.iterations) == (["max-iter", "converged"], [1, 1])
        np.testing.assert_array_equal(report.weights, [[1.0, 0.0, 0.0]] * 2)

    def test_a_stack_of_one_candidate_and_validation(self):
        single = solve_simplex_qp(GramForm(np.ones((3, 5, 1))), np.ones((3, 1)))
        assert np.array_equal(single.weights, np.ones((3, 1))) and single.iterations == [0] * 3
        with pytest.raises(ValueError, match="two-dimensional"):
            GramForm(np.ones((2, 3, 5, 4)))
        with pytest.raises(ValueError, match="length"):
            solve_simplex_qp(GramForm(np.ones((3, 5, 4))), np.ones((3, 3)))


class TestCumulativeForm:
    """The Mallows and large-model programs solved through their cumulative
    form, held to the general solver on the matrix their form describes."""

    @staticmethod
    def _fits(seed, route):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 30))
        p = n + int(rng.integers(1, 12)) if route == "svd" else n - 2
        X = rng.standard_normal((n, p))
        if route == "duplicate":
            X[:, 3] = X[:, 1]
        Y = X[:, :3] @ rng.standard_normal(3) + rng.standard_normal(n)
        sizes = np.unique(np.concatenate([[1, 3, 4, p], rng.integers(1, p + 1, int(rng.integers(1, p)))]))
        return fit_all(Dataset(Y=Y, X=X), sizes)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["qr", "svd", "duplicate"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_dense_solver_on_nested_fits(self, seed, route):
        # QR fast path; SVD route past k = n, where every RSS ties at zero;
        # a duplicated fourth column, whose step ties RSS_3 = RSS_4.
        fits = self._fits(seed, route)
        assert (fits.ranks == fits.sizes).all() == (route == "qr")
        s2 = sigma_hat(fits)
        sub = fits.subset(fits.sizes < fits.n)
        x = xi(np.diag(v_out_matrix(sub, s2)), b_in_diag(sub, s2))
        for program in (mma_program(fits, s2), lama_program(*lama_vectors(sub, s2), x)):
            reference = solve_simplex_qp(matrix(program.A), program.b)
            report = solve_simplex_qp(program.A, program.b)
            assert report.status == "converged"
            np.testing.assert_allclose(report.weights, reference.weights, rtol=0.0, atol=1e-9)
            scale = max(1.0, program.A.max_abs())
            assert abs(report.objective - reference.objective) <= 1e-12 * scale

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1),
           st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_cumulative_form_of_arbitrary_vectors(self, M, seed, ridge, convex):
        # For any (g, h, b, r), the min-type h and the linear b included,
        # w'Aw + b'w - (sum_i d_i C_i^2 + e_i C_i + sum_q r_q w_q^2) is one
        # constant on the simplex.  A falling g, a rising h and r >= 0 give
        # d > 0, a convex form, whose solve must match the dense matrix's.
        rng = np.random.default_rng(seed)
        if convex:
            g = rng.standard_normal() - np.cumsum(rng.uniform(0.1, 1.0, M))
            h = np.cumsum(rng.uniform(0.1, 1.0, M))
            r = rng.uniform(0.0, 1.0, M) if ridge else None
        else:
            g, h = rng.standard_normal((2, M))
            r = rng.standard_normal(M) if ridge else None
        b = rng.standard_normal(M)
        form = NestedForm(g, h, r)
        A = matrix(form)
        d, e = form.cumulative(b)
        gaps = []
        for _ in range(8):
            w = rng.dirichlet(np.ones(M))
            C = np.cumsum(w)[:-1]
            ridge_part = 0.0 if r is None else r @ w**2
            gaps.append(w @ A @ w + b @ w - (d @ C**2 + e @ C + ridge_part))
        scale = max(1.0, float(np.max(np.abs(A))), float(np.max(np.abs(b))))
        assert np.ptp(gaps) <= 1e-12 * scale
        if convex:
            reference = solve_simplex_qp(A, b)
            report = solve_simplex_qp(form, b)
            assert report.status == reference.status == "converged"
            np.testing.assert_allclose(report.weights, reference.weights, rtol=0.0, atol=1e-9)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1),
           st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_vector_quantities_match_the_dense_oracle(self, M, seed, ridge, convex):
        # The solver takes max|A|, the objective, the gradient and the KKT
        # residual of a nested program from its vectors in O(M).  max|A| sets
        # the tie tolerance and the status bound, so it must be bit-equal;
        # the entering test and the projection ignore a common gradient shift.
        rng = np.random.default_rng(seed)
        size = 10.0 ** rng.uniform(-3, 3)
        if convex:
            g = rng.standard_normal() - np.cumsum(rng.uniform(0.1, 1.0, M))
            h = np.cumsum(rng.uniform(0.1, 1.0, M))
            r = rng.uniform(0.0, 1.0, M) if ridge else None
        else:
            g, h = rng.standard_normal((2, M))
            r = rng.standard_normal(M) if ridge else None
        form = NestedForm(size * g, size * h, None if r is None else size * r)
        b = size * rng.standard_normal(M)
        A = matrix(form)
        _, _, peak = _checked(form, b)
        assert peak == _checked(A, b)[2] == np.max(np.abs(A))
        scale = max(1.0, peak, float(np.max(np.abs(b))))
        cumulative = form.cumulative(b)
        for _ in range(8):
            w = rng.dirichlet(np.ones(M))
            gap = _gradient(form, b, w, cumulative) - (2.0 * A @ w + b)
            assert np.ptp(gap) <= 1e-12 * scale
            nested = _report(form, b, w.copy(), 0, True, scale, cumulative)
            dense = _report(A, b, w.copy(), 0, True, scale)
            assert abs(nested.objective - dense.objective) <= 1e-12 * scale
            assert abs(nested.kkt_residual - dense.kkt_residual) <= 1e-12 * scale

    @pytest.mark.parametrize("roundoff", [0.0, 3e-15])
    def test_tied_step_merges_into_the_next_block(self, roundoff):
        # n = 10, sigma2 = 1/2: d = (0.3, 0, 0.2), e = -0.1 each.  Step 1 has
        # no curvature, so its linear term lifts C_1 to C_2: the pooled level
        # of steps 1-2 is 0.1 / 0.2 = 1/2 (step 2 alone would give 1/4),
        # and step 0 stays at 0.05 / 0.3 = 1/6.  An RSS rise at roundoff is a tie too.
        fits = summary_fits(10, [1, 2, 3, 4], [6.0, 3.0, 3.0 + roundoff, 1.0])
        program = mma_program(fits, 0.5)
        report = solve_simplex_qp(program.A, program.b)
        A = matrix(program.A)
        np.testing.assert_allclose(report.weights, [1 / 6, 1 / 3, 0.0, 1 / 2], atol=1e-12)
        np.testing.assert_allclose(solve_simplex_qp(A, program.b).weights, report.weights, atol=1e-12)
        assert report.objective <= grid_min(A, program.b) + 1e-12

    def test_negative_curvature_raises(self):
        # RSS rising by more than roundoff (Mallows), and a large-model
        # program whose first tridiagonal pivot is negative.
        mallows = mma_program(summary_fits(10, [1, 2], [1.0, 2.0]), 0.5)
        large = lama_program(*lama_vectors(summary_fits(10, [1, 2], [1.0, 50.0]), 1.0), 0.0)
        for program in (mallows, large):
            for A in (matrix(program.A), program.A):
                with pytest.raises(ValueError, match="not convex on the simplex"):
                    solve_simplex_qp(A, program.b)

    def test_a_later_tridiagonal_pivot_raises(self):
        # d = (1, -6): the first pivot 1.02 passes and the second, about -5.98, is not positive.
        with pytest.raises(ValueError, match=r"not convex on the simplex \(curvature -5.98\)"):
            solve_simplex_qp(NestedForm([0.0, -1.0, 5.0], [0.0, 0.0, 0.0], [0.01] * 3))

    def test_single_candidate_and_size_checks(self):
        program = mma_program(summary_fits(10, [3], [2.0]), 0.5)
        report = solve_simplex_qp(program.A, program.b)
        np.testing.assert_array_equal(report.weights, [1.0])
        assert report.status == "converged"
        assert report.objective == pytest.approx(2.0 / 10 + 2 * 0.5 * 3 / 10, rel=1e-15)
        with pytest.raises(ValueError, match="nested form"):
            NestedForm(g=np.ones(3), h=np.ones(2))
        with pytest.raises(ValueError, match="nested form"):
            NestedForm(g=np.ones(3), h=np.ones(3), r=np.ones(2))
        with pytest.raises(ValueError, match="nested form"):
            NestedForm(g=np.ones((3, 1)), h=np.ones(3))
        with pytest.raises(ValueError, match="empty program"):
            solve_simplex_qp(NestedForm(g=[], h=[]))
        with pytest.raises(ValueError, match="length"):
            solve_simplex_qp(NestedForm(g=np.ones(3), h=np.ones(3)), b=np.ones(2))
        # A NaN anywhere, and a finite form whose entries g + h overflow.
        for g, h in (([1.0, np.nan], [0.0, 0.0]), ([1.0, 1.0], [np.inf, 0.0]), ([1e308, 0.0], [1e308, 0.0])):
            with pytest.raises(ValueError, match="nested form contains non-finite"), np.errstate(over="ignore"):
                solve_simplex_qp(NestedForm(g=g, h=h))

    def test_memory_does_not_grow_with_m_squared(self):
        # The dense A alone would take 8 M^2 bytes: 3.2 GB for the Mallows
        # program at M = 20,000 and 200 MB for the ridged one at M = 5,000.
        # The ridged optimum keeps every candidate, so the active set, which
        # starts from the full support, stops after one face solve.
        for M, ridge in ((20_000, None), (5_000, 1.0)):
            k = np.arange(1, M + 1)
            if ridge is None:
                form, b = NestedForm(1.0 + 1.0 / k, np.zeros(M)), k / (2.0 * M)
            else:
                form, b = NestedForm(1.0 + 1.0 / k, k / M, np.full(M, ridge)), np.zeros(M)
            tracemalloc.start()
            try:
                report = solve_simplex_qp(form, b)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.status == "converged"
            assert peak < 8 * 2**20
            if ridge is not None:
                assert report.iterations == 1 and np.all(report.weights > 0.0)


    def test_a_full_support_optimum_forms_the_gradient_once(self, monkeypatch):
        # A = diag(r) keeps every candidate (w proportional to 1/r): the first face step
        # meets no bound, so with no index bound there is no entering test and only the
        # certificate forms the gradient.
        gradient, calls = qp._gradient, []

        def counting(*args, **kwargs):
            calls.append(args)
            return gradient(*args, **kwargs)

        monkeypatch.setattr(qp, "_gradient", counting)
        r = np.linspace(1.0, 3.0, 12)
        report = solve_simplex_qp(NestedForm(np.zeros(12), np.zeros(12), r))
        assert (report.status, report.iterations, len(calls)) == ("converged", 1, 1)
        np.testing.assert_allclose(report.weights, (1.0 / r) / (1.0 / r).sum(), rtol=1e-12)


class TestCertificate:
    @given(st.sampled_from(["gram", "ridged", "unridged"]), st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_kkt_residual_is_the_projected_gradient_residual(self, kind, M, seed, linear):
        # The certificate is ||w - P(w - grad(w))|| at the reported weights, P the
        # simplex projection, computed bit for bit as numpy's norm would: every
        # shortcut the solver takes to it must leave the value unchanged.
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(M) * 10.0 ** rng.uniform(-3.0, 3.0) if linear else np.zeros(M)
        if kind == "gram":
            A = GramForm(rng.standard_normal((int(rng.integers(1, 30)), M)) * 10.0 ** rng.uniform(-3.0, 3.0, M))
        else:
            g = rng.standard_normal() - np.cumsum(rng.uniform(0.0, 1.0, M))
            h = np.cumsum(rng.uniform(0.0, 1.0, M))
            A = NestedForm(g, h, rng.uniform(0.0, 1.0, M) if kind == "ridged" else None)
        report = solve_simplex_qp(A, b)
        cumulative = None if kind == "gram" else A.cumulative(b)
        w = report.weights
        assert report.kkt_residual == np.linalg.norm(w - simplex_project(w - _gradient(A, b, w, cumulative)))
