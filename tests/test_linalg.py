"""Exact vector and elimination kernels against plain Fraction arithmetic."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from latcut import linalg as la
from latcut.errors import DimensionMismatch
from latcut.geometry import UnimodularMap

from oracles import (
    _as_fractions,
    fraction_alignment,
    fraction_det,
    fraction_dot,
    fraction_integer_kernel_basis,
    fraction_kernel,
    fraction_rref,
    fraction_unimodular_with_bottom_row,
)

entry = st.one_of(
    st.integers(min_value=-60, max_value=60),
    st.fractions(min_value=-60, max_value=60, max_denominator=15))
vector = st.lists(entry, max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.tuples(st.lists(entry, min_size=n, max_size=n),
                        st.lists(entry, min_size=n, max_size=n))))
def test_dot_matches_fraction_sum(pair):
    # mixed signs, int and Fraction entries, lengths 0-4
    u, v = pair
    got = la.dot(u, v)
    assert type(got) is F
    assert got == fraction_dot(u, v)


def test_dot_of_int_and_empty_vectors_is_a_fraction():
    for u, v, want in [((), (), 0), ((3, -2), (4, 5), 2),
                       ((F(-1, 6), 2), (F(3, 4), -1), F(-17, 8))]:
        got = la.dot(u, v)
        assert type(got) is F and got == want


@settings(max_examples=60, deadline=None)
@given(vector, vector)
def test_dot_rejects_mismatched_lengths(u, v):
    assume(len(u) != len(v))
    with pytest.raises(ValueError):
        la.dot(u, v)


# ---------------------------------------------------------------------------
# the integer Gauss-Jordan kernel against the Fraction elimination


def _fractions(m):
    return [[F(x) for x in row] for row in m]


def _identity_right(m):
    n = len(m)
    return [list(row) + [F(int(i == j)) for j in range(n)]
            for i, row in enumerate(_fractions(m))]


def check_against_fraction_rref(m, ncols, b):
    """rref_int (its table divided out), rank, kernel_basis, solve and (for
    a square m) inverse agree with what the Fraction elimination gives for
    the same rows."""
    want_rows, want_piv = fraction_rref(_fractions(m))
    tab, den, got_piv = la.rref_int(m)
    got_rows = [[F(x, d) for x in row] for row, d in zip(tab, den)]
    assert (got_rows, got_piv) == (want_rows, want_piv)
    assert all(type(x) is int for row in tab for x in row)
    assert all(type(d) is int and d > 0 for d in den)
    assert la.rank(m) == len(want_piv)

    kernel = la.kernel_basis(m, ncols)
    assert kernel == fraction_kernel(_fractions(m), ncols)
    assert all(type(x) is F for v in kernel for x in v)

    aug_rows, aug_piv = fraction_rref([row + [F(bi)] for row, bi in
                                       zip(_fractions(m), b)])
    if ncols in aug_piv:
        assert la.solve(m, b) is None
    else:
        x = [F(0)] * ncols
        for r, c in enumerate(aug_piv):
            x[c] = aug_rows[r][ncols]
        assert la.solve(m, b) == tuple(x)

    if len(m) == ncols:
        inv_rows, inv_piv = fraction_rref(_identity_right(m))
        if inv_piv == list(range(ncols)):
            assert la.inverse(m) == tuple(tuple(r[ncols:]) for r in inv_rows)
        else:
            with pytest.raises(ValueError, match="singular"):
                la.inverse(m)


def random_matrix(rng, kind):
    """(rows, ncols) of kind 0 tall, 1 wide, 2 square or 3 rank-deficient
    (every row a combination of fewer base rows).  Half the matrices hold
    ints, the rest Fractions; about a third get a zero row."""
    ints = rng.random() < 0.5

    def entry():
        x = rng.randint(-4, 4)
        return x if ints else F(x, rng.choice((1, 1, 2, 3, 5)))

    n = rng.randint(1 if kind in (0, 2) else 2, 5)
    if kind == 0:
        m = rng.randint(n + 1, n + 3)
    elif kind == 1:
        m = rng.randint(1, n - 1)
    else:
        m = n if kind == 2 else rng.randint(2, 5)
    if kind == 3:
        base = [[entry() for _ in range(n)]
                for _ in range(rng.randint(1, min(m, n) - 1))]
        rows = []
        for _ in range(m):
            coef = [rng.randint(-2, 2) for _ in base]
            rows.append([sum((k * r[j] for k, r in zip(coef, base)),
                             0 if ints else F(0)) for j in range(n)])
    else:
        rows = [[entry() for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.3:
        rows[rng.randrange(m)] = [0 if ints else F(0)] * n
    return [tuple(r) for r in rows], n


def test_integer_rref_matches_the_fraction_rref():
    rng = random.Random(15)
    deficient = singular = 0
    for k in range(3000):
        m, n = random_matrix(rng, k % 4)
        b = tuple(rng.randint(-3, 3) for _ in m)
        if k % 8 >= 4:
            # a right-hand side in the column space
            x0 = [rng.randint(-2, 2) for _ in range(n)]
            b = tuple(sum(a * x for a, x in zip(row, x0)) for row in m)
        check_against_fraction_rref(m, n, b)
        deficient += la.rank(m) < min(len(m), n)
        singular += len(m) == n and fraction_det(_fractions(m)) == 0
    assert deficient > 1000 and singular > 300, (deficient, singular)


_q = st.one_of(st.integers(min_value=-5, max_value=5),
               st.fractions(min_value=-5, max_value=5, max_denominator=4))


@st.composite
def _systems(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    rows = [tuple(draw(_q) for _ in range(n)) for _ in range(m)]
    return rows, n, tuple(draw(_q) for _ in range(m))


@settings(max_examples=200, deadline=None)
@given(_systems())
def test_integer_rref_matches_the_fraction_rref_hypothesis(system):
    check_against_fraction_rref(*system)


def test_empty_rows():
    assert la.rref_int([]) == ([], [], [])
    assert la.rank([]) == 0
    assert la.kernel_basis([], 2) == [(1, 0), (0, 1)]
    assert la.solve((), ()) == ()
    assert la.inverse(()) == ()


def test_inverse_rejects_a_non_square_matrix():
    for m in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]]):
        with pytest.raises(DimensionMismatch):
            la.inverse(m)


def random_integer_square(rng):
    """A small square int matrix: a random one, or a product of row
    additions and swaps (unimodular)."""
    n = rng.randint(1, 4)
    if rng.random() < 0.5:
        return [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 6)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            m[i] = [-x for x in m[i]]
        elif rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
        else:
            k = rng.randint(-2, 2)
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return m


def test_unimodular_map_accepts_exactly_determinant_plus_minus_one():
    rng = random.Random(1968)
    accepted = rejected = 0
    for _ in range(3000):
        m = random_integer_square(rng)
        unimodular = fraction_det(m) in (1, -1)
        if unimodular:
            UnimodularMap.make(m)
            accepted += 1
        else:
            with pytest.raises(ValueError, match="determinant"):
                UnimodularMap.make(m)
            rejected += 1
    assert accepted > 1000 and rejected > 500, (accepted, rejected)


# ---------------------------------------------------------------------------
# the tracked-inverse int echelon against the Fraction route


def _outcome(f, arg):
    """f(arg), or the type and message of the error it raises."""
    try:
        return f(arg)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def int_alignment(lines):
    """``alignment_int`` as Fraction matrices (U, U^-1), raising as the
    Fraction route does on no lines or lines that span the whole space."""
    if not lines:
        raise ValueError("no lineality directions given")
    u, c, r = la.alignment_int(lines, len(lines[0]))
    if r == len(u):
        raise ValueError("lineality spans the whole space")
    assert all(type(x) is int for m in (u, c) for row in m for x in row)
    return _as_fractions(u), _as_fractions(c)


def check_unimodular_routes(lines):
    """alignment_int, integer_kernel_basis and unimodular_with_bottom_row
    give what the Fraction route gives, bit for bit, errors included."""
    got = _outcome(int_alignment, lines)
    assert got == _outcome(fraction_alignment, lines)
    assert (_outcome(la.integer_kernel_basis, lines)
            == _outcome(fraction_integer_kernel_basis, lines))
    for v in lines:
        assert (_outcome(la.unimodular_with_bottom_row, v)
                == _outcome(fraction_unimodular_with_bottom_row, v))
    return got


def random_lines(rng, n, rank):
    """rank independent-looking rational lines in n-space plus up to two
    combinations of them; entries are ints or small-denominator Fractions."""
    def entry():
        return F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4)))

    base = [tuple(entry() for _ in range(n)) for _ in range(rank)]
    lines = list(base)
    for _ in range(rng.randint(0, 2)):
        coef = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in base]
        lines.append(tuple(sum((k * b[j] for k, b in zip(coef, base)), F(0))
                           for j in range(n)))
    rng.shuffle(lines)
    return lines


def test_unimodular_routes_match_the_fraction_route():
    rng = random.Random(24)
    aligned = errors = dependent = 0
    for k in range(900):
        n = 2 + k % 3
        lines = random_lines(rng, n, rng.randint(1, n - 1))
        dependent += la.rank(lines) < len(lines)
        got = check_unimodular_routes(lines)
        if type(got[0]) is type:
            errors += 1
        else:
            aligned += 1
            u, c = got
            assert la.inverse(u) == c
    # full-rank and empty lines raise on both routes; a zero line aligns
    # (the kernel of its row does not), on both routes alike
    for lines in ([(F(1), F(2)), (F(3), F(-1))], []):
        assert check_unimodular_routes(lines)[0] is ValueError
    for lines in ([(F(0), F(0), F(0))], [(F(1), F(2), F(0)), (F(0), F(0), F(0))]):
        check_unimodular_routes(lines)
    assert aligned > 700 and dependent > 300, (aligned, errors, dependent)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.lists(
    st.tuples(*[_q] * n), min_size=1, max_size=n + 1)))
def test_unimodular_routes_match_the_fraction_route_hypothesis(lines):
    check_unimodular_routes([tuple(map(F, l)) for l in lines])


def test_integer_kernel_basis_rejects_a_zero_row():
    for rows in ([(0, 0)], [(1, 2, 3), (0, 0, 0)], [(F(0), F(0), F(0), F(0))]):
        with pytest.raises(ValueError, match="zero vector"):
            la.integer_kernel_basis([la.vec(r) for r in rows])
