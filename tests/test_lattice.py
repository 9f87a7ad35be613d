import math
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latwig.lattice import (
    SL2Element,
    first_completions,
    line_sites,
    sl2_complete,
    sl2_order,
)
from oracles import (
    IDENTITY,
    canonical,
    compose,
    exact_lift,
    lift_classes,
    line_label,
    line_points,
    primitive_rows,
    sl2_enumerate,
    sl2_enumerate_filter,
    sl2_lifts_search,
    sl2_second_lift_search,
)


def test_canonical_examples():
    assert canonical(7, 5) == 2
    assert canonical(-1, 4) == 3
    assert canonical(0, 3) == 0


@given(st.integers(-10**6, 10**6), st.integers(1, 64))
def test_canonical_is_congruent_and_in_range(x, n):
    r = canonical(x, n)
    assert 0 <= r < n
    assert (x - r) % n == 0


def test_canonical_rejects_bad_dim():
    with pytest.raises(ValueError):
        canonical(3, 0)


def test_sl2_element_requires_unit_determinant():
    with pytest.raises(ValueError):
        SL2Element(1, 0, 0, 2)
    with pytest.raises(ValueError):
        SL2Element(2, 0, 0, 1)


def test_sl2_complete_examples():
    assert sl2_complete(2, 1) == SL2Element(2, 1, 1, 1)
    assert sl2_complete(1, 0) == SL2Element(1, 0, 0, 1)
    assert sl2_complete(0, 1) == SL2Element(0, 1, -1, 0)


def test_sl2_complete_rejects_noncoprime():
    with pytest.raises(ValueError):
        sl2_complete(2, 4)


# `marginal --kappa/--lambda` take any int.
ENTRIES = st.one_of(st.integers(-50, 50), st.integers(-10**30, 10**30))


@given(ENTRIES, ENTRIES)
def test_sl2_complete_determinant_and_tiebreak(kappa, lam):
    if math.gcd(kappa, lam) != 1:
        return
    g = sl2_complete(kappa, lam)
    assert g.kappa * g.nu - g.mu * g.lam == 1
    if kappa != 0:
        assert 0 <= g.mu < abs(kappa)


def _brute_force_order(n):
    return sum(
        1
        for a, b, c, d in product(range(n), repeat=4)
        if (a * d - b * c) % n == 1
    )


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 6), (3, 24)])
def test_sl2_enumerate_counts(n, expected):
    assert len(sl2_enumerate(n)) == expected


@pytest.mark.parametrize("n", range(1, 7))
def test_sl2_enumerate_matches_brute_force_and_formula(n):
    elems = sl2_enumerate(n)
    assert len(elems) == _brute_force_order(n) if n > 1 else 1
    assert len(elems) == sl2_order(n)


@pytest.mark.parametrize("n", range(1, 61))
def test_sl2_order_is_the_size_of_the_enumeration(n):
    """The closed form that `check` writes as `group_order`, and the lift
    classes that `lifts_per_element` counts: one above each element for odd
    N, eight for even N."""
    assert sl2_order(n) == len(sl2_enumerate(n))
    if n <= 30:
        assert len(lift_classes(n)) == (1 if n % 2 else 8) * sl2_order(n)


@pytest.mark.parametrize("n, order", [(1, 1), (2, 6), (4, 48), (12, 1152), (36, 31104), (97, 912576),
                                      (500, 90_000_000)])
def test_sl2_order_is_the_product_over_the_primes_of_n(n, order):
    """N^3 prod_p (1 - 1/p^2) as an exact int, and N completions of each
    primitive row mod N, counted by the oracle where the enumeration does
    not reach."""
    assert sl2_order(n) == order and type(sl2_order(n)) is int
    assert order == n * len(primitive_rows(n))


@pytest.mark.parametrize("m", range(1, 25))
def test_first_completions_are_the_first_rows_of_the_enumeration(m):
    """The first completion of a row is that of the first element with the
    row as its first row; negated, it gives the first first row of the first
    element with the row as its second row."""
    rows = primitive_rows(m)
    assert rows.tolist() == [list(x) for x in sorted({(a, b) for a, b, _, _ in sl2_enumerate_filter(m)})]
    elements = sl2_enumerate(m)
    _, first = np.unique(elements[:, :2], axis=0, return_index=True)
    assert np.array_equal(first_completions(rows, m), elements[first, 2:])
    by_second = np.lexsort((elements[:, 1], elements[:, 0], elements[:, 3], elements[:, 2]))
    seconds, first = np.unique(elements[by_second, 2:], axis=0, return_index=True)
    assert np.array_equal(seconds, rows)
    assert np.array_equal(first_completions(-rows % m, m), elements[by_second[first], :2])


@pytest.mark.parametrize("n", range(1, 8))
def test_sl2_enumerate_exact_lifts_cover_distinct_classes(n):
    """The rows are distinct residues with determinant 1 mod N, and each
    has an integer lift with determinant exactly 1."""
    elems = sl2_enumerate(n)
    assert elems.dtype == np.int64 and elems.shape == (sl2_order(n), 4)
    assert elems.min() >= 0 and elems.max() < n
    kappa, lam, mu, nu = elems.T
    assert np.all((kappa * nu - mu * lam) % n == 1 % n)
    assert len(np.unique(elems, axis=0)) == len(elems)
    for row in elems.tolist():
        assert exact_lift(row, n).residues(n) == tuple(row)


def _classes_mod(rows, m):
    return {tuple(x) for x in (np.asarray(rows, dtype=object) % m).tolist()}


@pytest.mark.parametrize("n", range(1, 8))
def test_sl2_second_lift_same_class_different_integers(n):
    """Two searched integer lifts of each element differ as integers, lie in
    the element's class mod N, and both lie in a class of ``lift_classes``,
    which therefore covers them: its classes are mod N for odd N and
    mod 2N for even N."""
    m = n if n % 2 else 2 * n
    classes = _classes_mod(lift_classes(n), m)
    for g, h in sl2_lifts_search(n):
        assert h != g
        assert h.residues(n) == g.residues(n)
        assert h.kappa * h.nu - h.mu * h.lam == 1
        assert _classes_mod([g.as_tuple(), h.as_tuple()], m) <= classes


@pytest.mark.parametrize("n", [*range(1, 21), 25])
def test_sl2_enumerate_and_lifts_equal_the_search_oracles(n):
    """The row-by-row enumeration gives the residues of the determinant
    filter, in its order, and the search oracle lifts every row to an
    integer matrix with determinant exactly 1."""
    rows = sl2_enumerate(n).tolist()
    assert rows == [list(x) for x in sl2_enumerate_filter(n)]
    for row in rows:
        assert exact_lift(row, n).residues(n) == tuple(row)


@pytest.mark.parametrize("n", range(1, 13))
def test_lift_classes_are_every_class_that_a_route_value_tells_apart(n):
    """Odd N: one class per element, SL(2, Z_N) itself. Even N: 8 |SL(2, Z_N)|
    distinct rows mod 2N with determinant 1 mod 2N, eight above each element."""
    classes = lift_classes(n)
    if n % 2:
        assert np.array_equal(classes, sl2_enumerate(n))
        return
    assert classes.shape == (8 * sl2_order(n), 4)
    assert len(np.unique(classes, axis=0)) == len(classes)
    assert classes.min() >= 0 and classes.max() < 2 * n
    kappa, lam, mu, nu = classes.T
    assert np.all((kappa * nu - mu * lam) % (2 * n) == 1)
    elements, counts = np.unique(classes % n, axis=0, return_counts=True)
    assert np.array_equal(elements, sl2_enumerate(n))
    assert np.all(counts == 8)


@pytest.mark.parametrize("n", range(1, 16, 2))
def test_odd_n_route_exponent_depends_only_on_the_class_mod_n(n):
    """For odd N, 2*phi'(a, b) mod 2N, in exact integers, is the same for the
    6 classes mod 2N above each element of SL(2, Z_N) at every (a, b)."""
    above = sl2_enumerate(2 * n)
    kappa, lam, mu, nu = (x[:, np.newaxis] for x in above.T)
    _, first, element, counts = np.unique(above % n, axis=0, return_index=True, return_inverse=True,
                                          return_counts=True)
    assert np.all(counts == 6)
    b = np.arange(n)
    for a in range(n):
        two = (nu * lam * (a * (n - a)) + mu * kappa * (b * (n - b)) + 2 * mu * lam * a * b) % (2 * n)
        assert np.array_equal(two, two[first[element.ravel()]])


def test_compose_is_exact_matrix_product():
    g = SL2Element(2, 1, 1, 1)
    h = SL2Element(0, 1, -1, 0)
    gh = compose(g, h)
    assert gh.as_tuple() == (2 * 0 + 1 * (-1), 2 * 1 + 1 * 0, 1 * 0 + 1 * (-1), 1 * 1 + 1 * 0)
    assert gh.kappa * gh.nu - gh.mu * gh.lam == 1


def test_line_points_examples():
    horizontal = line_points(IDENTITY, 2, 3)
    assert set(horizontal.points) == {(0, 2), (1, 2), (2, 2)}
    vertical = line_points(SL2Element(0, 1, -1, 0), 1, 3)
    assert set(vertical.points) == {(2, 0), (2, 1), (2, 2)}
    diagonal = line_points(SL2Element(1, 1, 0, 1), 0, 3)
    assert set(diagonal.points) == {(0, 0), (1, 1), (2, 2)}


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_line_points_satisfy_line_equation(n):
    m = min(n, 5)
    for g in (exact_lift(row, m) for row in sl2_enumerate(m)[:40]):
        for p0 in range(n):
            line = line_points(g, p0, n)
            assert len(line.points) == n
            for q, p in line.points:
                assert (g.kappa * p - g.lam * q) % n == p0
                assert line_label(g, q, p, n) == p0


@pytest.mark.parametrize("n", [3, 5, 7])
def test_lines_of_fixed_direction_partition_the_grid(n):
    for g in [IDENTITY, SL2Element(0, 1, -1, 0), SL2Element(1, 2, 0, 1), sl2_complete(2, 3)]:
        seen = set()
        for p0 in range(n):
            seen.update(line_points(g, p0, n).points)
        assert len(seen) == n * n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 9, 12])
def test_line_sites_rows_are_the_lines_and_partition_the_grid(n):
    """Row p0 is the line with label p0 in r order, and the N rows cover
    the N^2 sites."""
    for group in sl2_lifts_search(n):
        for g in group:
            q, p = line_sites(g, n)
            assert q.shape == p.shape == (n, n)
            assert np.array_equal(line_label(g, q, p, n), np.indices((n, n))[0])
            assert np.unique(q * n + p).size == n * n
            for p0 in range(n):
                # the parametric form with Python integers, in r order
                want = tuple(((g.kappa * r + g.mu * p0) % n, (g.lam * r + g.nu * p0) % n)
                             for r in range(n))
                assert tuple(zip(q[p0].tolist(), p[p0].tolist())) == want
                assert line_points(g, p0, n).points == want


@pytest.mark.parametrize("n", [3, 7, 11])
def test_line_sites_depend_on_the_residue_class_only(n):
    """A second lift has the same lines; the negated element -g runs row
    -p0 of g backwards (r -> -r), whatever the size or sign of the entries."""
    g = sl2_complete(2, 3)
    h = sl2_second_lift_search(sl2_second_lift_search(g, n), n)
    neg = SL2Element(*(-x for x in h.as_tuple()))
    q, p = line_sites(g, n)
    assert np.array_equal(np.stack(line_sites(h, n)), np.stack((q, p)))
    rows, cols = np.ogrid[:n, :n]
    q_neg, p_neg = line_sites(neg, n)
    assert np.array_equal(q_neg, q[-rows % n, -cols % n])
    assert np.array_equal(p_neg, p[-rows % n, -cols % n])


def test_line_points_rejects_degenerate_direction():
    fake = SimpleNamespace(kappa=2, lam=2, mu=0, nu=0)
    with pytest.raises(ValueError):
        line_points(fake, 0, 4)


@pytest.mark.parametrize("n", range(10, 26))
def test_lift_searches_succeed_beyond_the_default_bound(n):
    """The search oracle's fixed budgets (25 shifts in the first lift, 7 in
    the second) lift every element of SL(2, Z_N) up to N = 25 twice, and
    ``lift_classes`` holds the class of both lifts."""
    m = n if n % 2 else 2 * n
    classes = _classes_mod(lift_classes(n), m)
    for row in sl2_enumerate(n).tolist():
        g = exact_lift(row, n)
        h = sl2_second_lift_search(g, n)
        assert h != g
        assert h.residues(n) == g.residues(n) == tuple(row)
        assert h.kappa * h.nu - h.mu * h.lam == 1
        assert _classes_mod([g.as_tuple(), h.as_tuple()], m) <= classes
