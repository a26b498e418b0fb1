"""Tests for the exact arithmetic core."""

import itertools
import json
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcycles import exact
from kcycles.exact import (
    MultiPoly,
    arrangements,
    binomial,
    double_factorial,
    format_rational,
    json_pieces,
    latex_rational,
    normalize_partition,
    partition_order,
    partitions_of,
    signed_join,
    stirling_first_signed,
    stirling_second,
    term_pieces,
)
from kcycles.oracles import compositions


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

def test_rational_parse_and_format():
    assert format_rational(Fraction(6, 2)) == "3"
    assert format_rational(Fraction(-29, 720)) == "-29/720"
    assert format_rational(5) == "5"
    assert format_rational(Fraction(4, 1)) == format_rational(4) == "4"
    # the LaTeX form is of the magnitude, for the coefficient tables' output
    assert latex_rational(Fraction(-29, 720)) == "\\frac{29}{720}"
    assert latex_rational(Fraction(6, 2)) == latex_rational(-3) == "3"
    # the canonical form parses back to the value
    for value in (Fraction(29, 720), 3, Fraction(-1, 1440)):
        assert Fraction(format_rational(value)) == value


fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(fractions_st, fractions_st, fractions_st)
@settings(max_examples=100)
def test_rational_field_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    if p:
        assert p * (1 / p) == 1


# ---------------------------------------------------------------------------
# counting sequences
# ---------------------------------------------------------------------------

def test_double_factorial_values():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(7) == 105
    assert double_factorial(8) == 384
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_stirling_first_signed():
    # v(v-1)(v-2) = v^3 - 3v^2 + 2v
    assert stirling_first_signed(0, 0) == 1
    assert stirling_first_signed(3, 1) == 2
    assert stirling_first_signed(3, 2) == -3
    # v(v-1)(v-2)(v-3) = v^4 - 6v^3 + 11v^2 - 6v
    assert stirling_first_signed(4, 2) == 11
    with pytest.raises(ValueError):
        stirling_first_signed(3, 4)
    with pytest.raises(ValueError):
        stirling_first_signed(-1, 0)


def test_stirling_second():
    assert stirling_second(5, 5) == 1
    assert stirling_second(3, 2) == 3
    assert stirling_second(4, 2) == 7
    assert stirling_second(2, 3) == 0  # more blocks than elements
    assert stirling_second(0, 0) == 1
    with pytest.raises(ValueError):
        stirling_second(-1, 0)


def test_stirling_duality():
    for n in range(11):
        for m in range(11):
            total = sum(
                stirling_first_signed(n, k) * stirling_second(k, m)
                for k in range(n + 1)
            )
            assert total == (1 if n == m else 0)


def test_surjection_count_via_stirling():
    # n! S2(m, n) counts surjections {1..m} -> {1..n}; check by enumeration
    import itertools

    for m in range(1, 6):
        for n in range(1, m + 1):
            count = sum(
                1
                for f in itertools.product(range(n), repeat=m)
                if set(f) == set(range(n))
            )
            assert count == factorial(n) * stirling_second(m, n)


def test_binomial_extended():
    assert binomial(-1, 0) == 1
    assert binomial(-1, 2) == 1
    assert binomial(0, 1) == 0
    assert binomial(5, 2) == comb(5, 2)
    assert binomial(3, -1) == 0


# ---------------------------------------------------------------------------
# partitions and compositions
# ---------------------------------------------------------------------------

def test_partitions_of_order():
    assert partitions_of(0) == [()]
    assert partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]
    assert [p for p in partitions_of(4) if len(p) <= 2] == [(4,), (3, 1), (2, 2)]
    assert partitions_of(5)[0] == (5,)
    with pytest.raises(ValueError):
        partitions_of(-1)


def test_partition_order_is_the_order_of_partitions_of():
    for n in range(9):
        parts = partitions_of(n)
        assert sorted(reversed(parts), key=partition_order) == parts
    assert sorted([(1, 1), (2,), (1, 1, 1), (2, 1)], key=partition_order) == [
        (2,), (2, 1), (1, 1), (1, 1, 1)]


def test_partitions_counts():
    # partition numbers p(0..9)
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert [len(partitions_of(n)) for n in range(10)] == expected


def test_normalize_partition():
    assert normalize_partition([1, 3, 2]) == (3, 2, 1)
    assert normalize_partition(()) == ()
    with pytest.raises(ValueError):
        normalize_partition([2, 0])


def test_compositions_examples():
    assert list(compositions(1, 3)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert list(compositions(0, 5)) == [(0, 0, 0, 0, 0)]
    assert len(list(compositions(2, 3))) == 6
    with pytest.raises(ValueError):
        list(compositions(1, 0))


def test_compositions_counts_and_distinct():
    for m in range(9):
        for slots in range(1, 8):
            seen = list(compositions(m, slots))
            assert len(seen) == len(set(seen)) == comb(m + slots - 1, slots - 1)
            assert all(sum(c) == m and len(c) == slots for c in seen)


def test_arrangements_partition_the_compositions():
    assert sorted(arrangements((2, 1), 3)) == [
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)
    ]
    assert list(arrangements((), 2)) == [(0, 0)]
    with pytest.raises(ValueError):
        list(arrangements((1, 1, 1), 2))
    for m in range(9):
        for slots in range(1, 8):
            seen = [c for mu in partitions_of(m) if len(mu) <= slots
                    for c in arrangements(mu, slots)]
            assert len(seen) == len(set(seen))
            assert sorted(seen) == sorted(compositions(m, slots))


# ---------------------------------------------------------------------------
# MultiPoly
# ---------------------------------------------------------------------------

def xvars(n):
    return [MultiPoly.variable(n, i) for i in range(n)]


def test_poly_basic_arithmetic():
    x0, x1 = xvars(2)
    assert x0 * x1 == MultiPoly(2, {(1, 1): 1})
    assert (x0 + x1) * (x0 - x1) == x0 * x0 - x1 * x1
    assert (x0 - x0) == MultiPoly.zero(2)
    assert not MultiPoly.zero(2)
    assert 3 * x0 == x0 * 3


def test_poly_full_from_reduced():
    # multiplying the two-tree generating polynomial by x0
    x0, x1, x2 = xvars(3)
    reduced = (x0 + x1) * x2
    assert x0 * reduced == x0 * x0 * x2 + x0 * x1 * x2


def test_poly_arity_errors():
    with pytest.raises(ValueError):
        MultiPoly.variable(2, 0) + MultiPoly.variable(3, 0)
    with pytest.raises(ValueError):
        MultiPoly.variable(2, 0) * MultiPoly.variable(3, 0)
    with pytest.raises(ValueError):
        MultiPoly.variable(2, 2)
    with pytest.raises(ValueError):
        MultiPoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        MultiPoly.variable(2, 0).eval((1,))
    # a vector of the wrong length is an error, as it is for + and eval,
    # not a missing term
    with pytest.raises(ValueError):
        MultiPoly.variable(3, 0).coefficient((1, 0))
    with pytest.raises(ValueError):
        MultiPoly.variable(3, 0).coefficient((1, 0, 0, 0))
    assert MultiPoly.variable(3, 0).coefficient((1, 0, 0)) == 1
    with pytest.raises(ValueError):
        MultiPoly.variable(2, 0).substitute(5, MultiPoly.zero(2))


def test_poly_substitute_examples():
    x0, x1, x2 = xvars(3)
    assert (x1 * x2).substitute(1, x0 + x1) == (x0 + x1) * x2
    assert ((x0 + x1) * x2).substitute(0, MultiPoly.zero(3)) == x1 * x2
    p = (x0 + 2 * x1) * x2
    assert p.substitute(2, x2) == p


def test_poly_eval():
    x0, x1, x2 = xvars(3)
    p = (x0 + x1) * x2
    assert p.eval((1, 2, 3)) == 9
    assert p.eval((0, 0, 5)) == 0
    assert p.eval((Fraction(1, 2), Fraction(1, 2), 1)) == 1
    assert MultiPoly.constant(3, 7).eval((0, 0, 0)) == 7


def test_poly_degree_and_homogeneity():
    x0, x1 = xvars(2)
    p = x0 * x0 + x0 * x1
    assert p.degree() == 2
    assert p.is_homogeneous(2)
    assert not (p + x0).is_homogeneous()
    assert p.degree_in(0) == 2
    assert p.degree_in(1) == 1
    assert MultiPoly.zero(2).degree() == 0


def test_poly_extended():
    x0, x1 = xvars(2)
    wide = (x0 * x1).extended(4)
    assert wide.num_vars == 4
    assert wide.coefficient((1, 1, 0, 0)) == 1
    with pytest.raises(ValueError):
        wide.extended(2)


def _from_obj(num_vars, obj):
    # the JSON term list read back, as a consumer of `--format json` would
    return MultiPoly(num_vars, [(entry["exp"], int(entry["coeff"])) for entry in obj])


def _latex(p):
    return "".join(p.term_pieces(latex=True))


def test_poly_serialization_schema():
    x0, x1 = xvars(2)
    p = x0 * x0 - 3 * x1
    obj = p.to_obj()
    assert obj == [
        {"exp": [0, 1], "coeff": "-3"},
        {"exp": [2, 0], "coeff": "1"},
    ]
    assert _from_obj(2, obj) == p
    assert MultiPoly.zero(3).to_obj() == []


def test_poly_rendering():
    x0, x1 = xvars(2)
    p = 2 * x0 * x0 - x1
    assert p.text() == "2*x0^2 - x1"
    assert _latex(p) == "2 x_{0}^{2} - x_{1}"
    assert MultiPoly.zero(2).text() == "0"
    assert _latex(-3 * x1) == "-3 x_{1}"
    # degrees 2 and 257 agree modulo 255, yet the second term leads
    assert MultiPoly(3, {(2, 0, 0): 1, (1, 255, 1): 1}).text() == "x0*x1^255*x2 + x0^2"
    # past the residue test's range, one degree is read from each key
    assert exact._one_degree(2, [255 << 8, 255])
    assert not exact._one_degree(2, [255 << 8, 254])


def _reference_render(p, latex):
    # the renderer as first written: sort key (-total degree, -e0, -e1, ...),
    # one (sign, body) chunk per term
    chunks = []
    ordered = sorted(p.items(), key=lambda item: (-sum(item[0]), tuple(-e for e in item[0])))
    for exps, coeff in ordered:
        if latex:
            factors = [f"x_{{{i}}}" if e == 1 else f"x_{{{i}}}^{{{e}}}"
                       for i, e in enumerate(exps) if e]
            times = " "
        else:
            factors = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e]
            times = "*"
        if factors and abs(coeff) == 1:
            body = times.join(factors)
        else:
            body = times.join([str(abs(coeff))] + factors)
        chunks.append(("-" if coeff < 0 else "+", body))
    return signed_join(chunks)


# the top of the 8-bit field, where a packed key's byte order matters most
render_exp_st = st.one_of(st.integers(0, 3), st.integers(250, 255))
render_coeff_st = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(-1000, 1000),
    st.integers(-10 ** 30, 10 ** 30),
)
render_poly_st = st.integers(1, 4).flatmap(
    lambda n: st.dictionaries(
        st.one_of(st.just((0,) * n), st.tuples(*[render_exp_st] * n)),
        render_coeff_st,
        max_size=8,
    ).map(lambda d: MultiPoly(n, d))
)


@given(render_poly_st)
@settings(max_examples=200, deadline=None)
def test_poly_renderers_match_reference(p):
    assert p.text() == _reference_render(p, latex=False)
    assert _latex(p) == _reference_render(p, latex=True)
    assert "".join(p.json_pieces(0)) == json.dumps(p.to_obj(), indent=2)
    # two levels deep, as each polynomial of `treepoly --variant pfamily`
    nested = json.dumps({"k": 1, "polys": {"3": p.to_obj()}}, indent=2)
    assert nested == '{\n  "k": 1,\n  "polys": {\n    "3": ' + "".join(
        p.json_pieces(2)) + "\n  }\n}"
    # the module-level renderers of runs render the same pieces from the one
    # run of a term map packed key by key, and the same text when the run
    # is split in two and its second part's keys and signs are carried by
    # an offset and a weight; the offset is the x0 and x1 fields of the
    # second part's least key, as a run of the renderers moves only those
    store = {exact._pack(p.num_vars, exps): c for exps, c in p.items()}
    low_bits = exact._EXP_BITS * max(p.num_vars - 2, 0)

    def runs(keys):
        coeffs = [store[key] for key in keys]
        half = len(keys) // 2
        rest = keys[half:]
        offset = min(rest, default=0) >> low_bits << low_bits
        return ([(keys, 0, coeffs, 1)],
                [(keys[:half], 0, coeffs[:half], 1),
                 ([key - offset for key in rest], offset,
                  [-c for c in coeffs[half:]], -1)])

    for latex in (False, True):
        whole, split = runs(exact._graded_lex(p.num_vars, store))
        assert list(term_pieces(p.num_vars, whole, latex)) == list(p.term_pieces(latex))
        assert "".join(term_pieces(p.num_vars, split, latex)) == "".join(p.term_pieces(latex))
    for depth in (0, 2):
        whole, split = runs(sorted(store))
        assert list(json_pieces(p.num_vars, whole, depth)) == list(p.json_pieces(depth))
        assert "".join(json_pieces(p.num_vars, split, depth)) == "".join(p.json_pieces(depth))


@given(render_poly_st, st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_packed_key_order_is_exponent_order(p, extra):
    # keys compare as ints as their exponent tuples do, so the renderers and
    # to_obj sort the keys themselves
    vectors = [exps for exps, _ in p.items()]
    assert [exps for _, exps in sorted(zip(p._terms, vectors))] == sorted(vectors)
    # extended appends variables: each exponent vector gains trailing zeros,
    # and the value at a point gained by zero coordinates is the same
    wide = p.extended(p.num_vars + extra)
    assert wide.num_vars == p.num_vars + extra
    assert sorted(wide.items()) == sorted((e + (0,) * extra, c) for e, c in p.items())
    point = (Fraction(1, 3), -2, 3, Fraction(-5, 4))[:p.num_vars]
    assert wide.eval(point + (0,) * extra) == p.eval(point)


def test_poly_coefficients_are_exact():
    # coefficients are ints: a float would print as its binary expansion and
    # make products inexact, and a Fraction, even an integral one, is refused
    # like it
    for bad in (0.1, 1.0, 0.0, Decimal("0.5"), 1j, Fraction(1, 2), Fraction(2)):
        with pytest.raises(TypeError):
            MultiPoly(2, {(1, 0): bad})
        with pytest.raises(TypeError):
            MultiPoly(2, [((1, 0), bad)])
        with pytest.raises(TypeError):
            MultiPoly.constant(2, bad)
    x = MultiPoly.variable(1, 0)
    for bad in (0.5, Fraction(1, 2), Fraction(2)):
        with pytest.raises(TypeError):
            x * bad
        with pytest.raises(TypeError):
            bad * x
    with pytest.raises(TypeError):
        x / 2


@pytest.mark.parametrize("constant", [1, -1, -5])
def test_renderers_span_chunks(constant):
    # 6^5 terms are several render chunks; the leading term is negative, the
    # first variable alone and the last variable alone make an empty tail
    # and an empty head, and the constant term renders last
    exponents = list(itertools.product(range(6), repeat=5))
    coeffs = [1, -1, 2, -3, 5, -7, 10 ** 20]
    terms = {e: coeffs[i % len(coeffs)] for i, e in enumerate(exponents)}
    terms[(5,) * 5] = -4
    terms[(0,) * 5] = constant
    assert len(terms) > 2 * exact._CHUNK
    p = MultiPoly(5, terms)
    chunks = -(-len(terms) // exact._CHUNK)
    for latex in (False, True):
        pieces = list(p.term_pieces(latex))
        assert len(pieces) == chunks
        assert "".join(pieces) == _reference_render(p, latex)
    pieces = list(p.json_pieces())
    assert len(pieces) == chunks + 1
    assert "".join(pieces) == json.dumps(p.to_obj(), indent=2)
    nested = json.dumps({"k": 2, "polys": {"1": p.to_obj()}}, indent=2)
    assert nested == '{\n  "k": 2,\n  "polys": {\n    "1": ' + "".join(
        p.json_pieces(2)) + "\n  }\n}"


@pytest.mark.parametrize(("num_vars", "degrees", "side"), [
    (1, [0], 256), (2, [0], 65), (3, [0, 1, 2], 38), (5, [0, 1, 2, 70], 2)])
def test_renderers_reuse_shared_keys_lists(num_vars, degrees, side):
    # runs as treepoly._x_runs makes them: keys lists of x2, x3, ...
    # exponents, each shared by the runs that move it by every (x0, x1)
    # offset of a side x side grid (side-long for one variable), with
    # weights of their own.  The grid's (0, 0) leaves an empty (x0, x1)
    # factor, the zero vector an empty x2.. part, and the two the constant
    # term; coefficients and weights are signed, so the products 1 and -1
    # come from each pair of signs.  With x2 present, each list is moved once
    # more, by one in x1 at an x0 exponent of its own past the grid, with a
    # weight of its own.
    low = num_vars - min(num_vars, 2)
    vectors = [v for d in degrees for v in itertools.product(range(d + 1), repeat=low)
               if sum(v) == d]
    x0 = 1 << exact._shift(num_vars, 0)
    x1 = 1 << exact._shift(num_vars, 1) if num_vars > 1 else 0
    grid = [a * x0 + b * x1 for a in range(side) for b in range(side if num_vars > 1 else 1)]
    signs, weights = [1, -1, 2, -3, 10 ** 20, -(10 ** 20)], [1, -1, 3, -2, -1]

    def runs(group, descending):
        # one keys list per group of vectors, so that each run is one block
        # of the renderer's order (text: by degree, then key; JSON: by key),
        # and the runs in that order
        lists: dict = {}
        for v in vectors:
            lists.setdefault(group(v), []).append(int.from_bytes(bytes(v), "big"))
        moves = [(g, offset) for g in lists for offset in grid]
        if low:
            moves += [(g, (side + i) * x0 + x1) for i, g in enumerate(lists)]
        shared = {}
        for g, keys in lists.items():
            keys.sort(reverse=descending)
            shared[g] = keys, [signs[key % len(signs)] for key in keys]
        out = [(keys, offset, coeffs, weights[i % len(weights)])
               for i, (g, offset) in enumerate(moves) for keys, coeffs in [shared[g]]]

        def first(run):
            key = run[0][0] + run[1]
            return (sum(key.to_bytes(num_vars, "big")) if descending else 0, key)
        out.sort(key=first, reverse=descending)
        terms = {}
        for keys, offset, coeffs, weight in out:
            for key, c in zip(keys, coeffs):
                terms[tuple((key + offset).to_bytes(num_vars, "big"))] = c * weight
        assert len(terms) == sum(len(run[0]) for run in out)
        assert {-1, 1} <= set(terms.values()) and min(terms.values()) < -1
        p = MultiPoly(num_vars, terms)
        assert (len(p) > 2 * exact._CHUNK) == (num_vars > 1)
        return out, p, sum(-(-len(run[0]) // exact._CHUNK) for run in out)

    text_runs, p, chunks = runs(sum, True)
    for latex in (False, True):
        pieces = list(term_pieces(num_vars, text_runs, latex))
        assert len(pieces) == chunks
        assert "".join(pieces) == _reference_render(p, latex)
    # by key, the lists of one (x0, x1) part must not interleave: one per x2
    json_runs, p, chunks = runs(lambda v: v[:1], False)
    assert "".join(json_pieces(num_vars, json_runs)) == json.dumps(p.to_obj(), indent=2)
    for depth in (0, 2):
        pieces = list(json_pieces(num_vars, json_runs, depth))
        assert len(pieces) == chunks + 1
        assert "".join(pieces) == "".join(p.json_pieces(depth))


def test_renderers_refuse_a_run_that_moves_x2():
    # a run moves x0 and x1 only, so that its keys list's x2.. halves are
    # its own; a run that moves x2 raises rather than render a wrong term,
    # and one that moves x1 renders
    x0, x1, x2 = (1 << exact._shift(3, i) for i in range(3))
    keys, coeffs = [x2], [5]
    for offset in (x2, x0 + x2):
        runs = [(keys, offset, coeffs, 1)]
        for pieces in (term_pieces(3, runs), term_pieces(3, runs, latex=True),
                       json_pieces(3, runs)):
            with pytest.raises(ArithmeticError, match="x2"):
                list(pieces)
    assert "".join(term_pieces(3, [(keys, x0 + x1, coeffs, -1)])) == "-5*x0*x1*x2"


def test_poly_renderers_of_zero_and_constants():
    assert list(MultiPoly.zero(3).term_pieces()) == ["0"]
    assert list(MultiPoly.zero(3).json_pieces(2)) == ["[]"]
    assert MultiPoly.constant(2, -1).text() == "-1"
    assert _latex(MultiPoly.constant(2, -3)) == "-3"
    x0, x1 = xvars(2)
    one = MultiPoly.constant(2, 1)
    assert list((x1 - x0 * x0 + one).term_pieces()) == ["-x0^2 + x1 + 1"]
    assert list(one.term_pieces()) == ["1"]
    assert list((x0 - one).json_pieces()) == [
        '[\n  {\n    "exp": [\n      0,\n      0\n    ],\n    "coeff": "-1"\n  },'
        '\n  {\n    "exp": [\n      1,\n      0\n    ],\n    "coeff": "1"\n  }',
        "\n]"]


def test_poly_exponent_limit():
    # 8 bits per variable: 255 is the largest exponent, and no product or
    # substitution may carry one variable's field into the next
    top = MultiPoly(2, {(255, 0): 1})
    assert top.coefficient((255, 0)) == 1
    assert top.coefficient((256, 0)) == 0
    with pytest.raises(ValueError):
        MultiPoly(2, {(256, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly(2, {(0, -1): 1})
    x0, x1 = xvars(2)
    assert top * MultiPoly.constant(2, 3) == 3 * top
    assert (top * x1).coefficient((255, 1)) == 1
    with pytest.raises(ValueError):
        top * x0
    with pytest.raises(ValueError):
        x0 * (top + x1)
    half = MultiPoly(2, {(128, 0): 1, (0, 1): 1})
    assert (half * MultiPoly(2, {(127, 3): 2})).coefficient((255, 3)) == 2
    with pytest.raises(ValueError):
        half * half
    with pytest.raises(ValueError):
        (x1 * x1).substitute(1, top + x1)
    with pytest.raises(ValueError):
        (top * x1).substitute(1, x0)
    assert (x0 * x1).substitute(1, MultiPoly(2, {(254, 0): 1})) == top


def test_poly_immutable():
    p = MultiPoly.variable(2, 0)
    with pytest.raises(AttributeError):
        p.num_vars = 3


exps_st = st.tuples(*[st.integers(0, 3)] * 3)
coeff_st = st.integers(-9, 9)
poly_st = st.dictionaries(exps_st, coeff_st, max_size=5).map(
    lambda d: MultiPoly(3, d)
)


@given(poly_st, poly_st, poly_st)
@settings(max_examples=60, deadline=None)
def test_poly_ring_axioms(p, q, r):
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


@given(poly_st, poly_st, poly_st)
@settings(max_examples=40, deadline=None)
def test_poly_substitute_composes(p, q, r):
    # substituting q then r for the same variable equals substituting q[x1 := r]
    left = p.substitute(1, q).substitute(1, r)
    right = p.substitute(1, q.substitute(1, r))
    assert left == right


def _replacements(index):
    # one strategy per kind of substitute's moves table for x_index
    x = [MultiPoly.variable(3, i) for i in range(3)]
    others = st.sampled_from([x[j] for j in range(3) if j != index])
    return st.one_of(
        others.map(lambda other: x[index] + other),  # x_index at weight 1
        st.sampled_from([2, 3, -1, -2]).map(lambda w: x[index] * w),  # at another weight
        others,  # no x_index: another variable
        st.integers(-3, 3).map(lambda c: MultiPoly.constant(3, c)),  # a constant or zero
        poly_st,
    )


@given(poly_st, st.integers(0, 2).flatmap(lambda i: st.tuples(st.just(i), _replacements(i))),
       st.lists(st.integers(-4, 4), min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_poly_substitute_evaluates_as_the_replacement(p, substitution, point):
    # eval does not expand, so it is an oracle for substitute's expansion
    index, replacement = substitution
    at_replacement = list(point)
    at_replacement[index] = replacement.eval(point)
    assert p.substitute(index, replacement).eval(point) == p.eval(at_replacement)


@given(poly_st)
@settings(max_examples=60, deadline=None)
def test_poly_serialization_roundtrip(p):
    obj = p.to_obj()
    assert _from_obj(3, obj) == p
    assert [entry["exp"] for entry in obj] == sorted(entry["exp"] for entry in obj)
