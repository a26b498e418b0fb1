"""Tests for the production tree-polynomial route and its closed forms."""

import hashlib
import itertools
import json
from fractions import Fraction
from math import comb, factorial

import pytest

from kcycles import exact, treepoly
from kcycles.exact import MultiPoly
from kcycles.oracles import (
    DEFAULT_SHUFFLE_CAP,
    enumerate_cyclic_shuffles,
    enumerate_increasing_trees,
    p_family_x,
    p_family_z,
    reduced_tree_poly_bruteforce,
    shuffle_sign_sum_bruteforce,
    tree_monomial,
    tree_poly_bruteforce,
)
from kcycles.treepoly import (
    double_sum_identity,
    l_poly,
    p_family,
    q_closed_ones,
    q_eval,
    reduced_tree_poly,
    t_closed_main,
    t_closed_ones,
    tree_poly,
    tree_value,
    verify_g_recursion,
    xe_tables,
)


def xs(n):
    return [MultiPoly.variable(n, i) for i in range(n)]


# ---------------------------------------------------------------------------
# the P family
# ---------------------------------------------------------------------------

def test_p_family_base():
    family = p_family(0)
    assert family.polys == {1: MultiPoly.constant(1, 1)}
    assert family[-1] == MultiPoly.constant(1, 1)  # symmetry in c
    assert not family[3]  # vanishes beyond |c| = 2k+1


@pytest.mark.parametrize("c", [0, 2, -2, 4])
def test_p_family_rejects_even_c(c):
    # P_k^c is defined for odd c only; an even c is a bad value, not a missing key
    with pytest.raises(ValueError, match="odd c"):
        p_family(1)[c]


def test_p_family_level_one_at_x0_zero():
    family = p_family(1)
    zero = MultiPoly.zero(3)
    x0, x1, x2 = xs(3)
    p3 = family[3].substitute(0, zero)
    p1 = family[1].substitute(0, zero)
    assert p3 == x1 * x1 + 2 * x1 * x2
    assert p1 == -(x1 * x1) + 2 * x1 * x2


def test_p_family_level_two_top():
    family = p_family(2)
    zero = MultiPoly.zero(5)
    x = xs(5)
    z2 = x[1] + x[2]           # x0 + x1 + x2 at x0 = 0
    z3 = z2 + x[3]
    expected = x[1] * (x[1] + 2 * x[2]) * (z2 + 3 * x[3]) * (z3 + 4 * x[4])
    assert family[5].substitute(0, zero) == expected


def z_level(k):
    # the family of level k on the z level: the unit-weighted sums, element s
    # P_k^{2s+1}
    return [treepoly._z_sum(k, [int(t == s) for t in range(k + 1)]) for s in range(k + 1)]


def test_packed_z_levels_have_the_fixed_shape():
    # the build's speed rests on this shape: 2*4^(k-1) terms per P_k^c, no
    # z exponent above 2, and degree 2k, so converted x exponents fit a slot
    for k in range(1, 8):
        level = z_level(k)
        assert len(level) == k + 1
        for packed in level:
            assert len(packed) == 2 * 4 ** (k - 1)
            for exps, _ in packed.items():
                assert max(exps) <= 2
                assert sum(exps) == 2 * k
    for k in range(6):
        for poly in p_family(k).polys.values():
            assert poly.is_homogeneous(2 * k)


@pytest.mark.parametrize("k", range(8))
def test_walk_matches_the_multipoly_z_build(k):
    # the words of moves against _p_step run on MultiPoly in z coordinates:
    # each P_k^c, and the 4^k-divided sums of _l_sum
    oracle = p_family_z(k)
    assert z_level(k) == oracle
    for n in range(4):
        undivided = sum((p * (2 * s + 1) ** (2 * n) for s, p in enumerate(oracle)),
                        MultiPoly.zero(2 * k + 1))
        assert all(c % 4 ** k == 0 for _, c in undivided.items())
        assert treepoly._l_sum(k, n)._terms == {e: c // 4 ** k
                                                for e, c in undivided._terms.items()}


def test_reduced_examples():
    x0, x1, x2 = xs(3)
    assert reduced_tree_poly(0) == MultiPoly.constant(1, 1)
    assert reduced_tree_poly(1) == (x0 + x1) * x2
    y = xs(5)
    s = y[0] + y[1]
    expected = (
        s * s * y[2] * y[4]
        + s * y[2] * y[2] * y[4]
        + 2 * s * s * y[3] * y[4]
        + 5 * s * y[2] * y[3] * y[4]
    )
    assert reduced_tree_poly(2) == expected


def test_reduced_level_three_anchor_terms():
    poly = reduced_tree_poly(3)
    assert poly.coefficient((0, 1, 1, 1, 1, 1, 1)) == 61
    assert poly.coefficient((0, 1, 1, 2, 1, 0, 1)) == 5
    assert poly.coefficient_sum() == 720


def test_oracle_equivalence_small():
    for k in range(4):
        assert reduced_tree_poly(k) == reduced_tree_poly_bruteforce(k)


def test_tree_poly_examples():
    assert tree_poly(0) == MultiPoly.variable(1, 0)
    x0, x1, x2 = xs(3)
    assert tree_poly(1) == x0 * (x0 + x1) * x2
    assert tree_poly(2).eval((1, 1, 1, 1, 1)) == 24
    # sum of the coefficients surviving x0 = 0: 1 + 1 + 2 + 5
    assert reduced_tree_poly(2).eval((0, 1, 1, 1, 1)) == 9


def test_shuffle_sum_matches_tree_poly():
    for values in [(1,), (7,), (1, 1, 1), (3, 1, 1), (1, 3, 1), (3, 3, 3),
                   (1, 1, 1, 1, 1), (3, 1, 1, 1, 1), (1, 1, 1, 1, 3)]:
        k = (len(values) - 1) // 2
        assert tree_poly(k).eval(values) == tree_poly_bruteforce(values)


def test_structural_invariants_small():
    for k in range(5):
        poly = reduced_tree_poly(k)
        assert poly.is_homogeneous(2 * k)
        assert poly.coefficient_sum() == factorial(2 * k)
        assert all(isinstance(c, int) and c > 0 for _, c in poly.items())
        assert tree_poly(k).degree_in(2 * k) == 1
        if k:
            at_zero = poly.substitute(0, MultiPoly.zero(poly.num_vars))
            x0_plus_x1 = MultiPoly.variable(poly.num_vars, 0) + MultiPoly.variable(
                poly.num_vars, 1
            )
            assert at_zero.substitute(1, x0_plus_x1) == poly


# ---------------------------------------------------------------------------
# leaf-weighted family
# ---------------------------------------------------------------------------

def l_poly_bruteforce(k, n):
    """Sum of truncated tree monomials over increasing trees on 0..2k+2n
    whose last 2n vertices are leaves attached anywhere on the base tree."""
    store = {}
    for base in enumerate_increasing_trees(k):
        for leaf_parents in itertools.product(range(2 * k + 1), repeat=2 * n):
            exps = tree_monomial(base + leaf_parents)
            assert exps[2 * k + 1 :] == (1,) * (2 * n)
            head = exps[: 2 * k + 1]
            store[head] = store.get(head, 0) + 1
    return MultiPoly(2 * k + 1, store)


@pytest.mark.parametrize("k,n", [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1)])
def test_l_poly_against_bruteforce(k, n):
    assert l_poly(k, n) == l_poly_bruteforce(k, n)


@pytest.mark.parametrize("k", range(5))
def test_l_poly_keys_pack_the_x_family_sum(k):
    # the keys are ints, one byte per variable; decoded they give the
    # weighted sum over the x-coordinate family, 4^k times the polynomial
    family = p_family_x(k)
    for n in range(3):
        poly = l_poly(k, n)
        assert all(type(e) is int and e < 1 << 8 * (2 * k + 1) for e in poly._terms)
        expected = sum(
            (family[2 * s + 1] * (2 * s + 1) ** (2 * n) for s in range(k + 1)),
            MultiPoly.zero(2 * k + 1),
        )
        assert ({exact._pack(2 * k + 1, e): c for e, c in expected.items()}
                == (poly * 4 ** k)._terms)
        assert poly * 4 ** k == expected


@pytest.mark.parametrize("k", range(6))
def test_tree_and_family_stores_match_their_multipolys(k):
    # tree_poly adds the key of x0 to each reduced key; the general product
    # of the tuple-built x0 gives the same terms
    reduced = reduced_tree_poly(k)
    tree = tree_poly(k)
    (x0,) = MultiPoly.variable(2 * k + 1, 0)._terms
    assert tree._terms == {e + x0: c for e, c in reduced._terms.items()}
    assert tree == MultiPoly(2 * k + 1, {(1,) + (0,) * 2 * k: 1}) * reduced
    polys = p_family(k).polys
    assert list(polys) == list(range(1, 2 * k + 2, 2))
    assert polys == p_family_x(k).polys


def in_x(packed, num_vars):
    # the z-coordinate polynomial in x: the store of its pre-final runs
    runs = treepoly._x_runs(num_vars, treepoly._prefinal(packed, num_vars))
    return treepoly._store(num_vars, runs)


@pytest.mark.parametrize("k", range(7))
def test_l_sum_divides_on_the_z_level(k):
    # _l_sum divides by 4^k on the z level, exactly, so the conversion to x
    # runs on ints only; it gives l_poly, the quotients of the x terms of
    # the undivided sum
    level = z_level(k)
    for n in range(3):
        packed = treepoly._l_sum(k, n)
        assert all(type(c) is int for _, c in packed.items())
        converted = in_x(packed, 2 * k + 1)
        assert converted == l_poly(k, n)
        assert all(type(c) is int for _, c in converted.items())
        undivided = sum((p * (2 * s + 1) ** (2 * n) for s, p in enumerate(level)),
                        MultiPoly.zero(2 * k + 1))
        x_terms = in_x(undivided, 2 * k + 1)._terms
        assert all(c % 4 ** k == 0 for c in x_terms.values())
        assert converted._terms == {e: c // 4 ** k for e, c in x_terms.items()}


def test_l_sum_refuses_a_sum_that_4_k_does_not_divide(monkeypatch, capsys):
    # a level whose sum is not divisible by 4^k raises rather than round,
    # and the command exits 6 having printed nothing
    from kcycles import cli

    x0, x1, x2 = (MultiPoly.variable(3, i) for i in range(3))
    # a level-1 step of one move, z1 z2 with P^1 = 1 and P^3 = 0
    (key,) = (x1 * x2)._terms
    monkeypatch.setattr(treepoly, "_steps", lambda k: [[(key, [(0, 1, 0), (0, 0, 0)])]])
    with pytest.raises(ArithmeticError, match="divide"):
        l_poly(1, 0)
    for fmt in ("text", "json", "latex"):
        assert cli.main(["treepoly", "1", "--variant", "l:1", "--format", fmt]) == cli.EXIT_ARITH
        out, err = capsys.readouterr()
        assert out == "" and "divide" in err


def test_no_p_family_term_has_a_z0_exponent():
    # the x0 slices of the runs rest on this: no P_k^c in z coordinates
    # holds z0, so every pre-final store has the one z0 exponent 0
    for k in range(8):
        for packed in z_level(k):
            assert packed.degree_in(0) == 0


def test_the_first_family_pair_builds_only_its_z_sum(monkeypatch):
    # p_family_runs walks the level once per P_k^c, when it reaches it
    calls = []
    z_sum = treepoly._z_sum

    def recording(k, weights, divisor=1):
        calls.append((k, list(weights), divisor))
        return z_sum(k, weights, divisor)

    monkeypatch.setattr(treepoly, "_z_sum", recording)
    pairs = treepoly.p_family_runs(4)
    c, _ = next(pairs)
    assert c == 1 and calls == [(4, [1, 0, 0, 0, 0], 1)]
    assert [c for c, _ in pairs] == [3, 5, 7, 9]
    assert [weights for _, weights, _ in calls] == [
        [int(t == s) for t in range(5)] for s in range(5)]


def _run_terms(runs):
    return [(key + offset, c * weight)
            for keys, offset, coeffs, weight in runs for key, c in zip(keys, coeffs)]


@pytest.mark.parametrize("k", range(6))
def test_runs_list_the_x_terms_in_render_order(k):
    # read in order, the runs of every variant are its x terms in ascending
    # key order, or in graded-lex order when reversed, with int coefficients
    family = p_family(k).polys
    polys = [l_poly(k, n) for n in range(3)] + [tree_poly(k)] + list(family.values())
    for reverse in (False, True):
        runs = [treepoly.l_poly_runs(k, n, reverse) for n in range(3)]
        runs.append(treepoly.l_poly_runs(k, 0, reverse, times_x0=True))
        pairs = list(treepoly.p_family_runs(k, reverse))
        assert [c for c, _ in pairs] == list(family)
        runs += [r for _, r in pairs]
        for poly, poly_runs in zip(polys, runs, strict=True):
            terms = _run_terms(poly_runs)
            order = (exact._graded_lex(poly.num_vars, poly._terms) if reverse
                     else sorted(poly._terms))
            assert terms == [(key, poly._terms[key]) for key in order]
            assert all(type(c) is int for _, c in terms)


@pytest.mark.parametrize("k", range(6))
@pytest.mark.parametrize("n", range(3))
def test_prefinal_matches_substitute(k, n):
    # _prefinal's binomial moves table against substitute's, built from the
    # powers of z_(j-1) + x_j: the same slots, top down to slot 2
    num_vars = 2 * k + 1
    packed = treepoly._l_sum(k, n)
    x = xs(num_vars)
    expected = packed
    for j in range(2 * k, 1, -1):
        expected = expected.substitute(j, x[j - 1] + x[j])
    assert treepoly._prefinal(packed, num_vars) == expected._terms


def test_runs_refuse_a_store_with_z0_terms(monkeypatch, capsys):
    # read in z0, z1, z2, a store with one z0 exponent in every term expands
    # z1 = x0 + x1 alone; with two z0 exponents the x0 slices would be
    # wrong, so the runs raise, and the command exits 6 having printed
    # nothing
    from kcycles import cli

    x0, x1, x2 = (MultiPoly.variable(3, i) for i in range(3))

    def substituted(p):
        return p.substitute(2, x1 + x2).substitute(1, x0 + x1)

    uniform = x0 * (x1 * x2 + 2 * x1 * x1)
    assert in_x(uniform, 3) == substituted(uniform)
    mixed = x0 * x2 + 2 * x1 * x1
    with pytest.raises(ArithmeticError, match="z0"):
        in_x(mixed, 3)
    for reverse in (False, True):
        with pytest.raises(ArithmeticError, match="z0"):
            next(treepoly._x_runs(3, treepoly._prefinal(mixed, 3), reverse=reverse))
    # several degrees break only the graded order of text and LaTeX
    graded = x1 * x2 + x1
    assert in_x(graded, 3) == substituted(graded)
    with pytest.raises(ArithmeticError, match="degrees"):
        next(treepoly._x_runs(3, treepoly._prefinal(graded, 3), reverse=True))
    # 4 * mixed, one move per term, passes the division by 4^1, so the z0
    # check is what refuses it
    step = [(key, [(0, 4 * c, 0), (0, 0, 0)]) for key, c in mixed._terms.items()]
    monkeypatch.setattr(treepoly, "_steps", lambda k: [step])
    for fmt in ("text", "json", "latex"):
        assert cli.main(["treepoly", "1", "--format", fmt]) == cli.EXIT_ARITH
        out, err = capsys.readouterr()
        assert out == "" and "z0" in err


@pytest.mark.parametrize("variant", ["l:1", "full", "pfamily"])
def test_cli_renders_the_store_without_a_multipoly(monkeypatch, capsys, variant):
    # the renderers read the packed keys: the command decodes no exponent
    # tuple and builds no polynomial from tuples
    from kcycles import cli

    if variant == "pfamily":
        polys = p_family(3).polys
        expected = "\n".join(f"P[{c}] = {polys[c].text()}" for c in sorted(polys)) + "\n"
    else:
        expected = (l_poly(3, 1) if variant == "l:1" else tree_poly(3)).text() + "\n"

    def refuse(*args, **kwargs):
        raise AssertionError(f"treepoly --variant {variant} decoded exponent tuples")

    monkeypatch.setattr(MultiPoly, "__init__", refuse)
    monkeypatch.setattr(MultiPoly, "items", refuse)
    assert cli.main(["treepoly", "3", "--variant", variant]) == 0
    assert capsys.readouterr().out == expected


def test_weighted_sums_do_not_build_the_family(monkeypatch):
    # the family sums are 4^3 times the polynomials
    family = p_family(3)
    expected = {
        n: sum((family[2 * s + 1] * (2 * s + 1) ** (2 * n) for s in range(4)),
               MultiPoly.zero(7))
        for n in (0, 1)
    }

    def refuse(k):
        raise AssertionError("the weighted sum built the P family")

    monkeypatch.setattr(treepoly, "p_family", refuse)
    assert l_poly(3, 1) * 4 ** 3 == expected[1] == l_poly_bruteforce(3, 1) * 4 ** 3
    assert (reduced_tree_poly(3) * 4 ** 3 == expected[0]
            == reduced_tree_poly_bruteforce(3) * 4 ** 3)


def test_l_poly_closed_form_level_one():
    x0, x1, x2 = xs(3)
    s = x0 + x1
    for n in range(4):
        expected = s * (2 * x2 + s) * 3 ** (2 * n) + s * (2 * x2 - s)
        assert 4 * l_poly(1, n) == expected


def test_l_poly_totals():
    assert l_poly(0, 5) == MultiPoly.constant(1, 1)
    for k in range(4):
        for n in range(3):
            assert l_poly(k, n).coefficient_sum() == factorial(2 * k) * (2 * k + 1) ** (
                2 * n
            )
    assert l_poly(2, 1).coefficient_sum() == 600


# ---------------------------------------------------------------------------
# tree_value, q_eval and closed forms
# ---------------------------------------------------------------------------

def _odd_tuples(max_total):
    """Every tuple of an odd number of positive odd ints summing to at most
    max_total."""
    def tuples(budget):
        yield ()
        for v in range(1, budget + 1, 2):
            for rest in tuples(budget - v):
                yield (v,) + rest

    return [values for values in tuples(max_total) if len(values) % 2]


def test_tree_value_matches_the_tree_polynomials():
    assert tree_value((3, 1, 1, 1, 1)) == 216
    assert tree_value((9,)) == 9
    by_length = {}
    for values in _odd_tuples(13):
        by_length.setdefault(len(values), []).append(values)
    for k in range(5):
        poly = tree_poly(k)
        for values in by_length[2 * k + 1]:
            assert tree_value(values) == poly.eval(values)
    with pytest.raises(ValueError):
        tree_value((2, 1, 1))


def test_tree_value_refuses_a_sum_that_4_k_does_not_divide(monkeypatch, capsys):
    # a step whose sum is off by one leaves a family sum that 4^k does not
    # divide; the point route raises rather than round, and the shuffle-sum
    # oracle exits 6 having printed nothing
    from kcycles import cli

    production = treepoly._p_step

    def off_by_one(family, *z):
        step = production(family, *z)
        return [step[0] + 1, *step[1:]]

    monkeypatch.setattr(treepoly, "_p_step", off_by_one)
    with pytest.raises(ArithmeticError, match="divide"):
        tree_value((3, 1, 1, 1, 1))
    assert cli.main(["oracle", "shuffle-sum", "3,1,1,1,1"]) == cli.EXIT_ARITH
    out, err = capsys.readouterr()
    assert out == "" and "divide" in err


def test_q_eval_examples():
    assert q_eval((9,)) == 9
    assert q_eval((5, 3, 7)) == 7  # level one: the last entry
    assert q_eval((3, 1, 1, 1, 1)) == Fraction(3, 5)
    with pytest.raises(ValueError):
        q_eval((2, 1, 1))
    with pytest.raises(ValueError):
        q_eval((1, 1))


def test_q_eval_is_average_sign_sum():
    # every odd tuple of at most 9 letters: the tree value is the oriented
    # sign sum over the enumerated cyclic shuffles, and q_eval is it over
    # their count
    points = _odd_tuples(9)
    assert {len(values) for values in points} == {1, 3, 5, 7, 9}
    for values in points:
        value = tree_value(values)
        assert type(value) is int
        assert value == tree_poly_bruteforce(values)
        count = sum(1 for _ in enumerate_cyclic_shuffles(values))
        assert q_eval(values) == Fraction(value, count)


def test_t_closed_ones():
    assert t_closed_ones(1, 3, 1) == 12
    assert t_closed_ones(2, 1, 1) == 24
    assert t_closed_ones(0, 5, 5) == 5
    with pytest.raises(ValueError):
        t_closed_ones(0, 3, 5)
    with pytest.raises(ValueError):
        t_closed_ones(1, 2, 1)
    for k in range(1, 5):
        poly = tree_poly(k)
        for n in (1, 3, 5, 7, 9):
            for m in (1, 3, 5, 7, 9):
                values = (n,) + (1,) * (2 * k - 1) + (m,)
                assert poly.eval(values) == t_closed_ones(k, n, m)


def test_q_closed_ones():
    assert q_closed_ones(2, 3) == Fraction(3, 5)
    assert q_closed_ones(0, 7) == 7
    for n in (1, 3, 5):
        assert q_closed_ones(1, n) == 1
    for k in range(1, 5):
        for n in (1, 3, 5, 7, 9):
            assert q_eval((n,) + (1,) * (2 * k)) == q_closed_ones(k, n)


def test_q_eval_builds_no_level(monkeypatch):
    def no_steps(k):
        raise AssertionError(f"level {k} walked")

    monkeypatch.setattr(treepoly, "_steps", no_steps)
    for n in (1, 3, 7):
        assert q_eval((n,) + (1,) * 18) == q_closed_ones(9, n)


def test_t_closed_main():
    assert t_closed_main(1, 0, 1, 0) == 12
    assert t_closed_main(1, 1, 0, 0) == 12
    assert t_closed_main(1, 0, 1, 1) == 18  # T_1(3,3,1) = 3*6*1
    assert t_closed_main(2, 1, 2, 1) == 528
    with pytest.raises(ValueError):
        t_closed_main(1, 1, 1, 0)  # p + q != 2k - 1
    for k in range(1, 4):
        poly = tree_poly(k)
        for r in range(4):
            for p in range(2 * k):
                q = 2 * k - 1 - p
                values = (3,) + (1,) * p + (2 * r + 1,) + (1,) * q
                assert poly.eval(values) == t_closed_main(k, p, q, r)


def test_t_closed_main_refuses_a_non_integral_sum(monkeypatch):
    # the terms are summed times q+1 on ints and divided once; a factorial off
    # by one leaves a sum that q+1 = 7 does not divide, and the closed form
    # raises rather than round
    assert t_closed_main(4, 1, 6, 2) == tree_value((3, 1, 5) + (1,) * 6)
    monkeypatch.setattr(treepoly, "factorial", lambda n: factorial(n) + 1)
    with pytest.raises(ArithmeticError, match="non-integer"):
        t_closed_main(4, 1, 6, 2)


def test_xe_tables_against_bruteforce():
    # n + m up to the oracle's own default cap
    for variant in ("X0", "X1", "X2"):
        for n in range(DEFAULT_SHUFFLE_CAP + 1):
            for m in range(DEFAULT_SHUFFLE_CAP + 1 - n):
                x_closed, e_closed = xe_tables(variant, n, m)
                assert x_closed == shuffle_sign_sum_bruteforce(variant, n, m)
                assert e_closed * comb(n + m, n) == x_closed


def test_xe_tables_grid_digest():
    # every (X, E) of a 3 x 60 x 60 grid, pinned by sha256: the brute force
    # reaches n + m <= 12 only, and the closed forms must hold past it
    grid = [[v, n, m, str(x), str(e)] for v in ("X0", "X1", "X2")
            for n in range(60) for m in range(60) for x, e in [xe_tables(v, n, m)]]
    assert hashlib.sha256(json.dumps(grid).encode()).hexdigest() == (
        "01c090bec7278cf9872e29fa1466df17a64f3539b8ef84d692c2b330f7ef9bf2")


def test_xe_table_rows():
    assert xe_tables("X0", 2, 3)[0] == 0
    assert xe_tables("X0", 2, 2)[0] == 4
    assert xe_tables("X1", 2, 2)[0] == 3 * comb(2, 1)
    assert xe_tables("X2", 1, 1)[0] == -2
    # n = 2j-1 = 3, m = 2k = 4: X = (2j+2k+1) C(j+k-1, k) = 9*3, E = X / C(7,3)
    assert xe_tables("X2", 3, 4) == (27, Fraction(27, 35))


def test_double_sum_identity():
    lhs, rhs = double_sum_identity(1, 0)
    assert lhs == rhs == 2
    lhs, rhs = double_sum_identity(1, 1)
    assert lhs == rhs == 4
    lhs, rhs = double_sum_identity(2, 0)
    assert lhs == rhs == Fraction(12, 5)  # 4 * Q_2(3,1,1,1,1)
    for k in range(1, 4):
        for r in range(4):
            lhs, rhs = double_sum_identity(k, r)
            assert lhs == rhs


def test_g_recursion(monkeypatch):
    assert verify_g_recursion(0, 4)
    assert verify_g_recursion(1, 4)
    assert verify_g_recursion(2, 2)
    with pytest.raises(ValueError):
        verify_g_recursion(1, 3)
    with pytest.raises(ValueError):
        verify_g_recursion(1, 0)
    # one extra z monomial in the z-level sum of L_2^1 breaks the recursion
    # into level 2 (L_2^1 on the left) and out of it (on the right), and
    # leaves k = 0 alone
    production = treepoly._l_sum
    z0, z4 = MultiPoly.variable(5, 0), MultiPoly.variable(5, 4)
    extra = z0 * z0 * z4 * z4

    def perturbed(k, n):
        return production(k, n) + extra if (k, n) == (2, 1) else production(k, n)

    monkeypatch.setattr(treepoly, "_l_sum", perturbed)
    assert not verify_g_recursion(1, 4)
    assert not verify_g_recursion(2, 4)
    assert verify_g_recursion(0, 4)


def test_hyperbolic_coefficients():
    # cosh^2 - sinh^2 = 1 at t^m/m!; the two tests below check the sums for
    # cosh 2t and sinh 2t, and anchors/series checks the same values by the
    # product rule
    for m in range(13):
        sinh2, _, cosh2 = treepoly._hyperbolic(m)
        assert cosh2 - sinh2 == int(m == 0)


def test_sinh2_plus_cosh2_is_cosh_2t():
    # cosh 2t has 2^m at t^m/m! for even m, 0 for odd m
    for m in range(13):
        sinh2, _, cosh2 = treepoly._hyperbolic(m)
        assert sinh2 + cosh2 == (2 ** m if m % 2 == 0 else 0)


def test_sinh_cosh_is_half_sinh_2t():
    # sinh(2t)/2 has coefficient 4^n/(2n+1)! at t^(2n+1), so 2^(m-1) at
    # t^m/m! for odd m and 0 for even m
    for m in range(13):
        _, sinh_cosh, _ = treepoly._hyperbolic(m)
        assert 2 * sinh_cosh == (2 ** m if m % 2 else 0)
    assert [treepoly._hyperbolic(m)[1] for m in (1, 2, 3, 5)] == [1, 0, 4, 16]


def test_concurrent_family_builds():
    # treepoly keeps no state, so concurrent callers each walk their own
    # levels and get the values a serial build gives
    import sys
    import threading

    results = []

    def worker():
        for k in range(5):
            results.append((k, p_family(k), reduced_tree_poly(k)))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8 * 5
    serial = {k: (p_family(k), reduced_tree_poly(k)) for k in range(5)}
    for k, family, reduced in results:
        assert (family, reduced) == serial[k]
    assert reduced_tree_poly(4).coefficient_sum() == factorial(8)


def test_treepoly_keeps_no_module_state():
    # no dict, list or set at module level: every value is built per call,
    # and a caller that reads a level twice holds on to it
    state = {name: type(value).__name__ for name, value in vars(treepoly).items()
             if not name.startswith("__") and isinstance(value, (dict, list, set))}
    assert state == {}
