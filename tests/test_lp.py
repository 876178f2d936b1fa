from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from grouppb import GenParams, gen_random, normalize
from grouppb.approx import lp_relaxation
from grouppb.lp import LpModel, LpRow, simplex_solve

from conftest import fraction_simplex_reference

F = Fraction


def model(names, objective, rows):
    return LpModel(
        var_names=tuple(names),
        objective=tuple(F(c) for c in objective),
        rows=tuple(
            LpRow(name=f"r{i}", coeffs=tuple(F(c) for c in coeffs), rhs=F(rhs))
            for i, (coeffs, rhs) in enumerate(rows)
        ),
    )


def test_box_only_maximizes_every_variable():
    sol = simplex_solve(model("ab", [3, 1], []))
    assert sol.values == (F(1), F(1)) and sol.objective == F(4)
    assert sol.fractional_vars() == ()


def test_single_binding_row_gives_exact_fraction():
    sol = simplex_solve(model("x", [1], [([2], 1)]))
    assert sol.values == (F(1, 2),)
    assert sol.objective == F(1, 2)
    assert sol.fractional_vars() == ("x",)


def test_rational_coefficients_stay_exact():
    sol = simplex_solve(model("x", [1], [([F(1, 3)], F(1, 4))]))
    assert sol.values == (F(3, 4),)


def test_zero_rhs_row_pins_a_variable():
    sol = simplex_solve(model("xy", [2, 1], [([1, 0], 0), ([1, 1], 1)]))
    assert sol.values == (F(0), F(1))
    assert sol.objective == F(1)


def test_competing_rows_meet_at_a_fractional_vertex():
    sol = simplex_solve(model("ab", [1, 1], [([2, 1], 1), ([1, 2], 1)]))
    assert sol.values == (F(1, 3), F(1, 3))
    assert sol.objective == F(2, 3)
    assert sol.fractional_vars() == ("a", "b")


def test_duals_are_the_smallest_integers_on_their_ray():
    # max 2a + 3b, a + 2b <= 1, 2a + b <= 1: y = (4/3, 1/3) solves y A = c.
    sol = simplex_solve(model("ab", [2, 3], [([1, 2], 1), ([2, 1], 1)]))
    assert sol.values == (F(1, 3), F(1, 3))
    assert sol.duals == (4, 1)
    # A slack row prices at zero, and scaling a row rescales its dual only.
    sol = simplex_solve(model("ab", [2, 3], [([2, 4], 2), ([2, 1], 1), ([1, 1], 5)]))
    assert sol.duals == (2, 1, 0)


def test_duals_price_only_tight_rows():
    # Complementary slackness on the relaxation corpus.
    for m in relaxation_corpus(25, 0):
        sol = simplex_solve(m)
        assert len(sol.duals) == len(m.rows) and min(sol.duals, default=0) >= 0
        for row, y in zip(m.rows, sol.duals):
            if y > 0:
                assert sum(c * v for c, v in zip(row.coeffs, sol.values)) == row.rhs


def test_solution_is_deterministic():
    m = model("abc", [2, 3, 2], [([2, 2, 0], 3), ([0, 2, 2], 3)])
    assert simplex_solve(m) == simplex_solve(m)


def relaxation_corpus(count, seed0=0):
    out = []
    for seed in range(seed0, seed0 + count):
        inst = gen_random(GenParams(m=9, n=3, g=4, seed=seed))
        inst, _ = normalize(inst)
        out.append(lp_relaxation(inst))
    return out


def test_exact_solutions_satisfy_the_polytope():
    for m in relaxation_corpus(25):
        sol = simplex_solve(m)
        assert all(0 <= v <= 1 for v in sol.values)
        for row in m.rows:
            assert sum(c * v for c, v in zip(row.coeffs, sol.values)) <= row.rhs
        assert sol.objective == sum(
            c * v for c, v in zip(m.objective, sol.values)
        )


def test_basic_solution_has_few_fractional_vars():
    # A vertex of the box-plus-rows polytope has at most one strictly
    # fractional variable per row.
    for m in relaxation_corpus(25, seed0=200):
        sol = simplex_solve(m)
        assert len(sol.fractional_vars()) <= len(m.rows)


def test_objective_matches_float_reference():
    for m in relaxation_corpus(30, seed0=400):
        if not m.var_names:
            continue
        sol = simplex_solve(m)
        c = np.array([-float(x) for x in m.objective])
        if m.rows:
            a_ub = np.array([[float(x) for x in row.coeffs] for row in m.rows])
            b_ub = np.array([float(row.rhs) for row in m.rows])
        else:
            a_ub, b_ub = None, None
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs")
        assert ref.status == 0
        assert abs(float(sol.objective) - (-ref.fun)) <= 1e-9 * max(1.0, -ref.fun)


def test_empty_model_solves_to_zero():
    sol = simplex_solve(model("", [], []))
    assert sol.values == () and sol.objective == 0


def test_matches_fraction_reference_on_relaxation_corpus():
    # Whole BasicSolutions: equal iterations mean the same pivot path.
    for seed0, count in ((0, 25), (200, 25), (400, 30)):
        for m in relaxation_corpus(count, seed0):
            assert simplex_solve(m) == fraction_simplex_reference(m)


# Few distinct values, so zero right-hand sides and tied ratios are common.
COEFFS = st.sampled_from([F(0), F(0), F(1), F(2), F(1, 2), F(2, 3), F(-1), F(-3, 2)])
RHS = st.sampled_from([F(0), F(0), F(1), F(2), F(1, 2), F(5, 3)])


@st.composite
def small_models(draw):
    n = draw(st.integers(0, 5))
    coeffs = st.lists(COEFFS, min_size=n, max_size=n)
    rows = draw(st.lists(st.tuples(coeffs, RHS), max_size=4))
    objective = draw(st.one_of(st.just([0] * n), coeffs))
    return model("abcde"[:n], objective, rows)


@settings(max_examples=300, deadline=None)
@given(small_models())
def test_matches_fraction_reference_on_small_models(m):
    assert simplex_solve(m) == fraction_simplex_reference(m)


@pytest.mark.parametrize("m, g, seed", [(40, 12, 1), (50, 10, 2), (70, 8, 3)])
def test_matches_fraction_reference_at_crossing_sizes(m, g, seed):
    inst = gen_random(GenParams(m=m, n=4 * m, g=g, seed=seed, approvals_hi=4))
    relaxation = lp_relaxation(normalize(inst)[0])
    sol = simplex_solve(relaxation)
    assert sol == fraction_simplex_reference(relaxation)
    assert sol.iterations > m  # a long pivot path, not a handful of steps
