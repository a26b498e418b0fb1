"""Tests for the brute-force enumeration oracles."""

import importlib
from math import factorial

import pytest

from kcycles.exact import MultiPoly
from kcycles.oracles import (
    EnumerationCapError,
    counting_identity_bruteforce,
    counting_identity_closed,
    enumerate_cyclic_shuffles,
    enumerate_increasing_trees,
    even_cycle_closed_coeffs,
    even_cycle_histogram,
    oriented_sign_sum,
    p_family_x,
    reduced_tree_poly_bruteforce,
    shuffle_sign_sum_bruteforce,
    tree_monomial,
    tree_poly_bruteforce,
)


# ---------------------------------------------------------------------------
# increasing trees
# ---------------------------------------------------------------------------

def test_tree_counts():
    assert list(enumerate_increasing_trees(0)) == [(None,)]
    assert len(list(enumerate_increasing_trees(1))) == 2
    assert len(list(enumerate_increasing_trees(2))) == 24
    assert len(list(enumerate_increasing_trees(3))) == 720


def test_tree_cap():
    with pytest.raises(EnumerationCapError):
        next(enumerate_increasing_trees(6))
    # override allows it
    assert next(enumerate_increasing_trees(6, cap=6))
    with pytest.raises(ValueError):
        next(enumerate_increasing_trees(-1))


def test_tree_monomials_level_one():
    path = (None, 0, 1)  # 0-1-2
    star = (None, 0, 0)  # 1-0-2
    assert tree_monomial(path) == (1, 0, 1)
    assert tree_monomial(star) == (0, 1, 1)
    assert tree_monomial((None,)) == (0,)


def test_tree_monomial_degree():
    for k in range(4):
        for tree in enumerate_increasing_trees(k):
            assert sum(tree_monomial(tree)) == 2 * k


def test_reduced_bruteforce_small():
    x0, x1, x2 = (MultiPoly.variable(3, i) for i in range(3))
    assert reduced_tree_poly_bruteforce(1) == (x0 + x1) * x2
    poly2 = reduced_tree_poly_bruteforce(2)
    assert poly2.coefficient_sum() == 24
    # the four monomials surviving x0 = 0
    assert poly2.coefficient((0, 2, 1, 0, 1)) == 1
    assert poly2.coefficient((0, 1, 2, 0, 1)) == 1
    assert poly2.coefficient((0, 2, 0, 1, 1)) == 2
    assert poly2.coefficient((0, 1, 1, 1, 1)) == 5


def test_p_family_x_small():
    assert p_family_x(0).polys == {1: MultiPoly.constant(1, 1)}
    x0, x1, x2 = (MultiPoly.variable(3, i) for i in range(3))
    family = p_family_x(1)
    zero = MultiPoly.zero(3)
    assert family[3].substitute(0, zero) == x1 * x1 + 2 * x1 * x2
    assert family[1].substitute(0, zero) == -(x1 * x1) + 2 * x1 * x2
    # P^1 + P^3 is 4 times the reduced tree polynomial
    assert family[1] + family[3] == 4 * (x0 + x1) * x2
    with pytest.raises(ValueError):
        p_family_x(-1)


# ---------------------------------------------------------------------------
# cyclic shuffles
# ---------------------------------------------------------------------------

def test_shuffle_words_basic():
    words = list(enumerate_cyclic_shuffles((1, 1, 1)))
    # abc and acb, with c inserted after a or after b
    assert ((0, 1), (1, 1), (2, 1)) in words
    assert ((0, 1), (2, 1), (1, 1)) in words
    assert len(words) == 2
    assert len(set(words)) == 2


def test_shuffle_block_structure():
    # every kind >= 1 sits in one contiguous block broken only by later kinds
    for word in enumerate_cyclic_shuffles((3, 3, 1)):
        assert word[0] == (0, 1)
        positions = [i for i, (kind, _) in enumerate(word) if kind == 1]
        inside = word[positions[0] : positions[-1] + 1]
        assert all(kind >= 1 for kind, _ in inside)


def test_shuffle_counts_match_product_formula():
    for kinds in [(1,), (3,), (1, 1, 1), (3, 1, 1), (3, 2, 4), (1, 3, 5), (3, 3, 3)]:
        count = sum(1 for _ in enumerate_cyclic_shuffles(kinds))
        expected = 1
        partial = 0
        for n in kinds[:-1]:
            partial += n
            expected *= partial
        assert count == expected, kinds


def test_shuffle_cap_and_validation():
    with pytest.raises(EnumerationCapError):
        next(enumerate_cyclic_shuffles((9, 9, 9)))
    with pytest.raises(ValueError):
        next(enumerate_cyclic_shuffles((0, 1, 1)))
    with pytest.raises(ValueError):
        next(enumerate_cyclic_shuffles(()))


def test_oriented_sign_sum_level_one():
    kinds = (1, 1, 1)
    abc = ((0, 1), (1, 1), (2, 1))
    acb = ((0, 1), (2, 1), (1, 1))
    assert oriented_sign_sum(abc, kinds) == 1
    # orientation -1 and selected sign -1 cancel
    assert oriented_sign_sum(acb, kinds) == 1


def test_oriented_sign_sum_divisible_by_last_kind():
    for kinds in [(1, 1, 3), (3, 1, 3), (1, 3, 3)]:
        for word in enumerate_cyclic_shuffles(kinds):
            assert oriented_sign_sum(word, kinds) % kinds[-1] == 0


def test_tree_poly_bruteforce_values():
    assert tree_poly_bruteforce((1,)) == 1
    assert tree_poly_bruteforce((5,)) == 5
    assert tree_poly_bruteforce((1, 1, 1)) == 2
    assert tree_poly_bruteforce((3, 1, 1)) == 12  # n0(n0+n1)n2 = 3*4*1
    assert tree_poly_bruteforce((3, 1, 3)) == 36
    assert tree_poly_bruteforce((1, 1, 1, 1, 1)) == 24  # (2k)! at all ones


def test_tree_poly_bruteforce_properties():
    # divisible by n0, and linear in the last entry
    assert tree_poly_bruteforce((3, 1, 5)) == 5 * tree_poly_bruteforce((3, 1, 1))
    assert tree_poly_bruteforce((3, 3, 1)) % 3 == 0
    with pytest.raises(ValueError):
        tree_poly_bruteforce((2, 1, 1))  # even entry
    with pytest.raises(ValueError):
        tree_poly_bruteforce((1, 1))  # even length


# ---------------------------------------------------------------------------
# plain shuffles
# ---------------------------------------------------------------------------

def test_shuffle_sign_sums_examples():
    assert shuffle_sign_sum_bruteforce("X0", 2, 3) == 0  # even n, odd m row is zero
    assert shuffle_sign_sum_bruteforce("X0", 2, 2) == 4
    assert shuffle_sign_sum_bruteforce("X2", 1, 1) == -2
    assert shuffle_sign_sum_bruteforce("X1", 0, 2) == 1
    assert shuffle_sign_sum_bruteforce("X0", 3, 0) == 3


def test_shuffle_sign_sum_validation():
    with pytest.raises(ValueError):
        shuffle_sign_sum_bruteforce("X3", 1, 1)
    with pytest.raises(EnumerationCapError):
        shuffle_sign_sum_bruteforce("X0", 10, 10)


# ---------------------------------------------------------------------------
# counting identity and cycle statistics
# ---------------------------------------------------------------------------

def test_counting_examples():
    assert counting_identity_bruteforce(3, 1) == 1 == counting_identity_closed(3, 1)
    assert counting_identity_bruteforce(5, 2) == 5 == counting_identity_closed(5, 2)
    assert counting_identity_bruteforce(4, 3) == -16 == counting_identity_closed(4, 3)


def test_counting_s_zero_edge():
    # the s = 0 grid is the single empty tuple: every count is even, value n
    for n in range(1, 7):
        assert counting_identity_bruteforce(n, 0) == n == counting_identity_closed(n, 0)


def test_counting_sweep():
    for n in range(1, 7):
        for s in range(5):
            assert counting_identity_bruteforce(n, s) == counting_identity_closed(n, s)


def test_even_cycle_histogram():
    assert even_cycle_histogram(0) == [1]
    assert even_cycle_histogram(2) == [1, 1]
    assert even_cycle_histogram(4) == [9, 12, 3]
    assert even_cycle_closed_coeffs(4) == [9, 12, 3]  # 3(x+1)(x+3)
    assert sum(even_cycle_histogram(6)) == factorial(6)
    with pytest.raises(ValueError):
        even_cycle_histogram(3)
    with pytest.raises(EnumerationCapError):
        even_cycle_histogram(12)


def test_histogram_matches_closed_coeffs():
    for k in range(1, 5):
        assert even_cycle_histogram(2 * k) == even_cycle_closed_coeffs(2 * k)


def test_star_import_and_package_exports():
    # every __all__ name resolves, and the package re-exports the oracle
    import kcycles
    from kcycles import oracles

    namespace = {}
    exec("from kcycles.oracles import *", namespace)
    assert set(oracles.__all__) <= namespace.keys()
    assert kcycles.compositions is oracles.compositions

    # each package name is its home module's object, listed and star-importable
    package_namespace = {}
    exec("from kcycles import *", package_namespace)
    listed = dir(kcycles)
    for name in kcycles.__all__:
        home = importlib.import_module(f"kcycles.{kcycles._HOMES[name]}")
        value = getattr(kcycles, name)
        assert value is getattr(home, name), name
        assert value.__module__ == home.__name__, name
        assert package_namespace[name] is value, name
        assert name in listed, name
    assert kcycles.cache is importlib.import_module("kcycles.cache")
    with pytest.raises(AttributeError):
        kcycles.no_such_name
