import math
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latwig.lattice import (
    IDENTITY,
    SL2Element,
    egcd,
    gcd_decompose,
    line_label,
    line_sites,
    sl2_complete,
    sl2_enumerate,
    sl2_lifts,
    sl2_order,
    sl2_second_lift,
)
from oracles import canonical, line_points


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


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_egcd_bezout(a, b):
    g, x, y = egcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


def test_gcd_decompose_examples():
    d = gcd_decompose(2, 4, 5)
    assert (d.xi, d.sigma, d.tau) == (2, 1, 2)
    d = gcd_decompose(0, 3, 5)
    assert (d.xi, d.sigma, d.tau) == (3, 0, 1)
    d = gcd_decompose(3, 3, 7)
    assert (d.xi, d.sigma, d.tau) == (3, 1, 1)


def test_gcd_decompose_rejects_origin_and_noncanonical():
    with pytest.raises(ValueError):
        gcd_decompose(0, 0, 5)
    with pytest.raises(ValueError):
        gcd_decompose(5, 1, 5)


@pytest.mark.parametrize("n", range(2, 10))
def test_gcd_decompose_round_trip(n):
    for s, t in product(range(n), repeat=2):
        if (s, t) == (0, 0):
            continue
        d = gcd_decompose(s, t, n)
        assert d.xi * d.sigma == s
        assert d.xi * d.tau == t
        assert math.gcd(d.sigma, d.tau) == 1


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


@given(st.integers(-50, 50), st.integers(-50, 50))
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


@pytest.mark.parametrize("n", range(1, 8))
def test_sl2_enumerate_exact_lifts_cover_distinct_classes(n):
    elems = sl2_enumerate(n)
    for g in elems:
        assert g.kappa * g.nu - g.mu * g.lam == 1
    assert len({g.residues(n) for g in elems}) == len(elems)


def test_sl2_enumerate_respects_audit_bound():
    with pytest.raises(ValueError):
        sl2_enumerate(10)
    assert len(sl2_enumerate(10, audit_bound=10)) == sl2_order(10)


@pytest.mark.parametrize("n", range(1, 8))
def test_sl2_second_lift_same_class_different_integers(n):
    for g in sl2_enumerate(n):
        h = sl2_second_lift(g, n)
        assert h != g
        assert h.residues(n) == g.residues(n)
        assert h.kappa * h.nu - h.mu * h.lam == 1


def test_compose_is_exact_matrix_product():
    g = SL2Element(2, 1, 1, 1)
    h = SL2Element(0, 1, -1, 0)
    gh = g.compose(h)
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
    for g in sl2_enumerate(min(n, 5))[:40]:
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
    for group in sl2_lifts(n, audit_bound=n):
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
    h = sl2_second_lift(sl2_second_lift(g, n), n)
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
    """The fixed-budget searches (25 shifts in the first lift, 7 in the
    second) cover every residue class of SL(2, Z_N) up to N = 25."""
    pairs = sl2_lifts(n, audit_bound=n)
    assert len(pairs) == sl2_order(n)
    assert len({g.residues(n) for g, _ in pairs}) == len(pairs)
    for g, h in pairs:
        assert h != g
        assert h.residues(n) == g.residues(n)
        assert h.kappa * h.nu - h.mu * h.lam == 1
