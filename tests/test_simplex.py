"""The integer simplex against its Fraction reference, pivot for pivot."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from latcut.errors import DimensionMismatch
from latcut.linalg import dot

from oracles import fraction_solve_ineq
from simplex import solve_ineq


def _rational(rng, lo, hi):
    return F(rng.randint(lo, hi), rng.choice((1, 1, 2, 3)))


def random_lp(rng, kind):
    """One small LP of the given kind: 0 random, 1 degenerate (many rows
    tight at one point, some rows repeated at a positive scale, so the ratio
    test ties), 2 infeasible (a contradictory pair among random rows),
    3 boxed (optimal unless the random rows empty the box)."""
    n = rng.randint(1, 3)
    rows = [tuple(_rational(rng, -3, 3) for _ in range(n))
            for _ in range(rng.randint(0 if kind == 0 else 1, 4))]
    if kind == 1:
        x0 = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        rows += [tuple(F(rng.randint(1, 3)) * a for a in rng.choice(rows))
                 for _ in range(rng.randint(1, 2))]
        rhs = [dot(a, x0) if rng.random() < 0.8 else dot(a, x0) + 1
               for a in rows]
    else:
        rhs = [_rational(rng, -4, 5) for _ in rows]
    if kind == 2:
        a, b = rows[0], rhs[0]
        rows.append(tuple(-x for x in a))
        rhs.append(-b - rng.choice((F(1), F(1, 2))))
    if kind == 3:
        for i in range(n):
            e = tuple(F(int(i == j)) for j in range(n))
            rows += [e, tuple(-x for x in e)]
            rhs += [F(rng.randint(0, 4)), F(rng.randint(0, 4))]
    order = list(range(len(rows)))
    rng.shuffle(order)
    objective = tuple(_rational(rng, -3, 3) for _ in range(n))
    return ([rows[i] for i in order], [rhs[i] for i in order], objective,
            rng.choice(("max", "min")))


def test_integer_tableau_matches_the_fraction_tableau():
    rng = random.Random(14)
    statuses = {"optimal": 0, "unbounded": 0, "infeasible": 0}
    degenerate = 0
    for k in range(5000):
        rows, rhs, objective, sense = random_lp(rng, k % 4)
        got = solve_ineq(rows, rhs, objective, sense)
        assert got == fraction_solve_ineq(rows, rhs, objective, sense), (
            rows, rhs, objective, sense)
        statuses[got.status] += 1
        if got.status == "optimal":
            tight = sum(dot(a, got.point) == b for a, b in zip(rows, rhs))
            degenerate += tight > len(objective)
    assert min(statuses.values()) > 500, statuses
    assert degenerate > 500, degenerate


_q = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _lps(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 6))
    rows = [tuple(draw(_q) for _ in range(n)) for _ in range(m)]
    rhs = [draw(_q) for _ in range(m)]
    objective = tuple(draw(_q) for _ in range(n))
    return rows, rhs, objective, draw(st.sampled_from(("max", "min")))


@settings(max_examples=100, deadline=None)
@given(_lps())
def test_integer_tableau_matches_the_fraction_tableau_hypothesis(lp):
    assert solve_ineq(*lp) == fraction_solve_ineq(*lp)


def test_float_input_is_rejected():
    # a float would run the tableau in floats: unbounded here, and an
    # AttributeError inside dot in an optimal case
    with pytest.raises(TypeError):
        solve_ineq([(-1.5,)], [0], (1,))
    with pytest.raises(TypeError):
        solve_ineq([(1,), (-1,)], [1, 0], (0.5,))
    with pytest.raises(TypeError):
        solve_ineq([(1,), (-1,)], [1.0, 0], (1,))


def test_row_length_must_match_the_objective():
    with pytest.raises(DimensionMismatch):
        solve_ineq([(1,)], [1], (1, 1))
