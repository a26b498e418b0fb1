"""Production route for the tree polynomials and their relatives.

The reduced tree polynomial of level k lives in variables x0..x_{2k}; it
is assembled from a family of integer-coefficient polynomials P_k^c (c
odd, |c| <= 2k+1, with P_k^c = P_k^{-c}) via

    reduced_tree_poly(k) = 4^(-k) * sum_{s=0..k} P_k^{2s+1},

and the leaf-weighted l_poly(k, n) = 4^(-k) * sum (2s+1)^(2n) P_k^{2s+1}
generalizes it.  The family satisfies a three-term recursion in k, whose
step is _p_step.  In the partial sums z_j = x0 + ... + x_j each step
multiplies by one of four monomials and maps the family by a band read off
_p_step, so a level is read off its words of moves, depth first (_words),
as one weighted sum (_z_sum): of unit weights for one P_k^c, or of the
l_poly weights, divided by 4^k as each word is read (_l_sum).  It is
converted to x only when a polynomial is returned:
_prefinal expands the slots down to slot 2, and _x_runs expands slot 1 as
runs, which `kcycles treepoly` renders with no x store and _store writes
into one, so each polynomial returned is the store of what the command
prints for the same variant.  tree_value runs the step at an odd point,
with no level built.  Closed forms for near-all-ones evaluations and the
shuffle sign-sum tables live here too, next to the recursion they
cross-check.

Values are immutable, and the module keeps no state: every call walks its
level afresh, so a caller that reads a level more than once holds on to
it, and tree_value and q_eval walk none.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, factorial, prod
from operator import add, mul, sub
from typing import Iterator, Sequence

from .exact import (
    _EXP_MAX, MultiPoly, _moved, _one_degree, _shift, binomial,
    check_odd_tuple, double_factorial,
)

# A z-level slot never exceeds 2, and the levels are homogeneous of degree
# 2k, so an x exponent after conversion is at most 2k <= 60 through
# _MAX_LEVEL, well below MultiPoly's limit of 255.
_MAX_LEVEL = 30


def _p_step(family: list, z2k, z2k1, z2k2) -> list:
    """One step k -> k+1 of the P-family recursion; family[s] is P_k^{2s+1}.

    The one implementation of the step, for every route, which passes it
    only the partial sums z_i = x0 + ... + x_i: ints at a point
    (tree_value), ints at 0/1 points on basis vectors (_bands, the maps of
    the level walk), or MultiPoly in 2k+3 variables, in z coordinates
    (oracles.p_family_z) or in x coordinates (oracles.p_family_x).  It takes their
    differences y1 = x_{2k+1} = z_{2k+1} - z_{2k} and y2 = x_{2k+2} =
    z_{2k+2} - z_{2k+1}.  With S_c = P_k^c, S_{-1} = S_1 and S_c = 0 beyond
    c = 2k+1, the terms are grouped by multiplier so that every product has
    a linear factor:

        P_{k+1}^c = y1 y2 (2c^2 S_c + (c-2)^2 S_{c-2} + (c+2)^2 S_{c+2})
                  + z_{2k+1} (y1 + y2) ((c-2) S_{c-2} - (c+2) S_{c+2})
                  + z_{2k} (z_{2k+2} (S_{c-2} + S_{c+2}) - 2 (z_{2k+1} - y2) S_c)
    """
    zero = family[0] * 0
    padded = [family[0], *family, zero, zero]  # padded[s] is S_{2s-1}
    y1, y2 = z2k1 - z2k, z2k2 - z2k1
    y1y2, ysum, drop = y1 * y2, y1 + y2, z2k1 - y2
    step = []
    for s in range(len(family) + 1):
        c = 2 * s + 1
        down, same, up = padded[s], padded[s + 1], padded[s + 2]
        step.append(
            y1y2 * (same * (2 * c * c) + down * (c - 2) ** 2 + up * (c + 2) ** 2)
            + z2k1 * (ysum * (down * (c - 2) - up * (c + 2)))
            + z2k * (z2k2 * (down + up) - drop * (same * 2))
        )
    return step


# The exponents of (z_{2j}, z_{2j+1}, z_{2j+2}) in the four monomials that
# step j of _p_step multiplies by: z_{2j+1}^2, z_{2j+1} z_{2j+2},
# z_{2j} z_{2j+2} and z_{2j} z_{2j+1}.
_MOVES = ((0, 2, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def _bands(j: int) -> list[list[tuple[int, int, int]]]:
    """The maps of the four _MOVES on the family at step j -> j+1, read off
    _p_step: row s of a move's map holds the weights of S_{c-2}, S_c and
    S_{c+2} in the move's part of P_{j+1}^c, c = 2s+1, with S_{-1} folded
    into S_1 and zeros outside the family.

    In z coordinates the step is the sum of the moves' monomials, each
    times a banded map of the family: expand y1 y2, z_{2j+1} (y1 + y2) and
    the z_{2j} bracket of _p_step.  So at a 0/1 point it is the sum of the
    maps of the moves whose monomials are 1 there.  At a move's exponents
    capped at 1 that is the move and, where z_{2j+1} = 1, z_{2j+1}^2, whose
    map is the step at (0, 1, 0).  Column i of each map is the step of the
    i-th basis vector of the family.
    """
    size = j + 1

    def at(point: tuple[int, int, int]) -> list[tuple[int, ...]]:
        columns = [_p_step([int(t == i) for t in range(size)], *point) for i in range(size)]
        return list(zip(*columns))

    stepped = [at(tuple(min(e, 1) for e in move)) for move in _MOVES]
    square = stepped[0]  # _MOVES[0] is z_{2j+1}^2
    maps = []
    for move, rows in zip(_MOVES, stepped):
        if move[1] == 1:  # z_{2j+1}^2 is 1 at this point too
            rows = [tuple(map(sub, row, square_row)) for row, square_row in zip(rows, square)]
        maps.append([(0, *row, 0, 0)[s:s + 3] for s, row in enumerate(rows)])
    return maps


def _steps(k: int) -> list[list[tuple[int, list[tuple[int, int, int]]]]]:
    """The steps j < k of level k, each as its four _MOVES: (key, band),
    the key the move's monomial packed in the 2k+1 variables z_0..z_{2k}
    and the band its map (_bands)."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if k > _MAX_LEVEL:
        raise ValueError(f"level {k} exceeds the packed-exponent limit {_MAX_LEVEL}")
    num_vars = 2 * k + 1
    # a band's rows depend on c alone, and the family of step j is zero past
    # S_{2j+1}, so the maps of step j are the first j+2 rows of the last step's
    last = _bands(k - 1) if k else []
    return [[(sum(e << _shift(num_vars, 2 * j + i) for i, e in enumerate(move)), band[:j + 2])
             for move, band in zip(_MOVES, last)] for j in range(k)]


def _banded(band: list[tuple[int, int, int]], vector: list[int]) -> list[int]:
    """A move's map (_bands) on a family vector: row s of the band reads
    positions s..s+2 of [0, *vector, 0, 0]."""
    padded = [0, *vector, 0, 0]
    return [a * x + b * y + c * w for (a, b, c), x, y, w
            in zip(band, padded, padded[1:], padded[2:])]


def _words(steps: list) -> Iterator[tuple[int, list[int]]]:
    """The words of moves of the given steps (_steps), depth first: (key,
    vector) per word.

    A word picks one move at each step; its key is the sum of their keys,
    the product of their monomials, and its vector, (P^1, P^3, ...), is the
    product of their maps on P_0 = (1).  Distinct words have distinct
    monomials, read back from the top slot down, so over the words of all k
    steps P_k^{2s+1} is the sum of vector[s] times the word's monomial, one
    term per word.  A word whose vector vanishes gives no term and is
    dropped with its extensions: at step 0, the two moves with z_0, so no
    term holds z_0.  At most four words per step wait on the stack, and no
    level is kept.
    """
    stack = [(0, 0, [1])]
    while stack:
        j, key, vector = stack.pop()
        if j == len(steps):
            yield key, vector
            continue
        for move_key, band in steps[j]:
            moved = _banded(band, vector)
            if any(moved):
                stack.append((j + 1, key + move_key, moved))


def _z_sum(k: int, weights: Sequence[int], divisor: int = 1) -> MultiPoly:
    """sum_s weights[s] P_k^{2s+1} / divisor in the z_i, read off the words
    (_words) with the last step pulled back onto the weights: one row per
    move, its band on each basis vector summed with the weights, so a word
    of the other steps ends in each move by one dot product.  Each term is
    divided by a checked divmod (ArithmeticError), and zeros are dropped.
    Unit weights give one P_k^c: for k >= 1, exactly 2*4^(k-1) terms, with
    no exponent above 2.
    """
    steps = _steps(k)
    last = [(0, weights)]  # level 0 has no step
    if steps:
        basis = [[int(t == i) for t in range(k)] for i in range(k)]
        last = [(move_key, [sum(map(mul, weights, _banded(band, unit))) for unit in basis])
                for move_key, band in steps.pop()]
    terms = {}
    for key, vector in _words(steps):
        for move_key, row in last:
            value, rest = divmod(sum(map(mul, row, vector)), divisor)
            if rest:
                raise ArithmeticError(f"{divisor} does not divide a term of the level-{k} sum")
            if value:
                terms[key + move_key] = value
    return MultiPoly._raw(2 * k + 1, terms)


def _prefinal(packed: MultiPoly, num_vars: int) -> dict:
    """The z-coordinate polynomial in z0, z1, x2, ..., x_{num_vars-1}, as a
    term store: the conversion to x, but for slot 1, which _x_runs expands.

    Substitutes z_j = z_{j-1} + x_j one slot at a time from the top down to
    slot 2, each one pass of exact._moved, the expansion loop of
    MultiPoly.substitute, with a binomial moves table: z_j^a expands to
    C(a, b) x_j^b z_{j-1}^(a-b), and the copy is b = a.  A slot's exponent
    stays below num_vars, so no move carries, and the carry check and the
    powers of MultiPoly.substitute, the tests' oracle for this table, are
    skipped.
    """
    terms = packed._terms
    for j in range(num_vars - 1, 1, -1):
        shift = _shift(num_vars, j)
        # moving one unit of exponent from z_j to z_{j-1} adds `carry` to a key
        carry = (1 << _shift(num_vars, j - 1)) - (1 << shift)
        terms = _moved(terms, shift, [[((a - b) * carry, comb(a, b)) for b in range(a)]
                                      for a in range(num_vars)])
    return terms


def _x_runs(num_vars: int, store: dict, reverse: bool = False,
            offset: int = 0) -> Iterator[tuple]:
    """The x polynomial of a pre-final store, shifted by the key `offset`,
    as the renderers' runs, in ascending key order, or in descending order
    if `reverse`: the one expansion of slot 1.

    The store is in z0, z1, x2, ..., as _prefinal leaves it.  No P_k^c
    holds z0, so with one z0 exponent a in every term, z0^a z1^b expands
    to the terms x0^(a+i) x1^(b-i), i = 0..b, each with weight C(b, i),
    and no two terms of the store meet.  So the x terms with x0 exponent
    a+i, in key order, are the terms with b >= i of the sorted store,
    contiguous b-groups of it, each moved by one offset and weighted by
    one weight: one run per b-group.  The b+1 runs of a group share its
    keys and coefficient lists, and their offsets move x0 and x1 only.
    Raises ArithmeticError on a store whose z0 exponent is not uniform, or,
    for the descending order, which is the text renderer's graded order
    only when every term has one degree, on a store of several degrees.
    """
    keys = sorted(store)
    if not keys:
        return
    top = _shift(num_vars, 0)
    if keys[0] >> top != keys[-1] >> top:
        raise ArithmeticError("the pre-final store has terms of several z0 exponents")
    if reverse and not _one_degree(num_vars, keys):
        raise ArithmeticError("the pre-final store has terms of several degrees")
    coeffs = list(map(store.__getitem__, keys))
    # the sorted lists hold the terms from here on, and the groups' copies
    # of them after the split, so the store and then the lists are dropped
    # before the first run, and one copy of the terms is held at a time
    del store
    if num_vars == 1:
        # no slot 1: the store is already in x
        groups, carry = [(0, keys, coeffs)], 0
    else:
        shift = _shift(num_vars, 1)
        # one unit of exponent moved from z1 to x0 adds `carry` to a key
        carry = (1 << top) - (1 << shift)
        first, last = keys[0] >> shift, keys[-1] >> shift
        cuts = [0, *(bisect_left(keys, b << shift) for b in range(first + 1, last + 1)),
                len(keys)]
        groups = [(b & _EXP_MAX, keys[lo:hi], coeffs[lo:hi])
                  for b, lo, hi in zip(range(first, last + 1), cuts, cuts[1:]) if lo < hi]
        del keys, coeffs
    if reverse:
        for _, group_keys, group_coeffs in groups:
            group_keys.reverse()
            group_coeffs.reverse()
        groups.reverse()
    top_b = max(b for b, _, _ in groups)
    for i in range(top_b, -1, -1) if reverse else range(top_b + 1):
        for b, group_keys, group_coeffs in groups:
            if b >= i:
                yield group_keys, offset + i * carry, group_coeffs, comb(b, i)


def _store(num_vars: int, runs: Iterator[tuple]) -> MultiPoly:
    """The polynomial in num_vars variables of the runs of _x_runs, written
    into one x store."""
    terms: dict = {}
    for keys, offset, coeffs, weight in runs:
        # a run that neither moves nor weights its terms stores the ints it has
        if offset:
            keys = map(add, keys, repeat(offset))
        if weight != 1:
            coeffs = map(mul, coeffs, repeat(weight))
        terms.update(zip(keys, coeffs))
    return MultiPoly._raw(num_vars, terms)


class PFamily:
    """The polynomials P_k^c for one level, keyed by c in {1, 3, ..., 2k+1}.

    Only nonnegative c is stored; P_k^{-c} = P_k^c.  Treat the dict as
    read-only.
    """

    __slots__ = ("k", "polys")

    def __init__(self, k: int, polys: dict[int, MultiPoly]):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "polys", polys)

    def __setattr__(self, name, value):
        raise AttributeError("PFamily is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.k, self.polys) == (other.k, other.polys)

    __hash__ = None

    def __repr__(self) -> str:
        return f"PFamily(k={self.k!r})"

    def __getitem__(self, c: int) -> MultiPoly:
        if c % 2 == 0:
            raise ValueError(f"P_k^c is defined for odd c only, got c = {c}")
        c = abs(c)
        if c > 2 * self.k + 1:
            return MultiPoly.zero(2 * self.k + 1)
        return self.polys[c]


def p_family(k: int) -> PFamily:
    """The level-k family, read off the words of the three-term recursion:
    each P_k^c is the store of its runs in p_family_runs(k)."""
    return PFamily(k, {c: _store(2 * k + 1, runs) for c, runs in p_family_runs(k)})


def p_family_runs(k: int, reverse: bool = False) -> Iterator[tuple[int, Iterator[tuple]]]:
    """(c, the runs of P_k^c) for c = 1, 3, ..., 2k+1, in the order of
    _x_runs; each P_k^c's z sum and pre-final store are made when it is
    reached, so a caller that renders one at a time holds one."""
    num_vars = 2 * k + 1
    for s in range(k + 1):
        packed = _z_sum(k, [int(t == s) for t in range(k + 1)])
        yield 2 * s + 1, _x_runs(num_vars, _prefinal(packed, num_vars), reverse=reverse)


def reduced_tree_poly(k: int) -> MultiPoly:
    """Generating function of increasing trees on 0..2k by even-component counts.

    Homogeneous of degree 2k with nonnegative integer coefficients summing
    to (2k)!; linear in x_{2k}; depends on x0 and x1 only through x0 + x1.
    It is l_poly(k, 0).
    """
    return l_poly(k, 0)


def tree_poly(k: int) -> MultiPoly:
    """x0 times the reduced tree polynomial; homogeneous of degree 2k+1.

    The store of l_poly_runs(k, 0, times_x0=True): the reduced runs, each
    key moved by x0's, so nothing is multiplied.
    """
    return _store(2 * k + 1, l_poly_runs(k, 0, times_x0=True))


def _l_sum(k: int, n: int) -> MultiPoly:
    """4^-k sum (2s+1)^(2n) P_k^(2s+1), on the z level, with integer
    coefficients: the _z_sum of the weights (2s+1)^(2n), divided by 4^k.

    Every l_poly(k, n) has integer coefficients: the t^m/m! coefficients of
    sinh^2, sinh cosh and cosh^2 in the hyperbolic recursion of
    verify_g_recursion are integers, so integrality passes from level k to
    k+1.  The change to z is unimodular, so 4^k divides every z coefficient
    of the sum too, and the conversion to x runs on integers only.  Raises
    ArithmeticError on a z coefficient that 4^k does not divide.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _z_sum(k, [(2 * s + 1) ** (2 * n) for s in range(k + 1)], 4 ** k)


def l_poly(k: int, n: int) -> MultiPoly:
    """Tree generating function with 2n extra leaves: 4^-k sum (2s+1)^(2n) P_k^(2s+1).

    l_poly(k, 0) is the reduced tree polynomial; the coefficient sum is
    (2k)! (2k+1)^(2n).  The sum is _l_sum's, converted to x once: the
    store of l_poly_runs(k, n).
    """
    return _store(2 * k + 1, l_poly_runs(k, n))


def l_poly_runs(k: int, n: int, reverse: bool = False, times_x0: bool = False) -> Iterator[tuple]:
    """The runs of l_poly(k, n), or of x0 times it if `times_x0` (for n = 0,
    tree_poly(k)), in the order of _x_runs: the renderers print the
    polynomial from its pre-final store, and no x store is built."""
    num_vars = 2 * k + 1
    offset = 1 << _shift(num_vars, 0) if times_x0 else 0
    return _x_runs(num_vars, _prefinal(_l_sum(k, n), num_vars),
                   reverse=reverse, offset=offset)


def tree_value(values: Sequence[int]) -> int:
    """The full tree polynomial tree_poly(k) at an odd point of 2k+1 entries.

    The point route: the step of the level walk, _p_step, runs on exact
    integers at the partial sums z_j of the entries, so a level-k call costs
    O(k^2) multiply-adds at any k; no level is built.
    The 4^k comes out of the family's sum exactly, for the reason given at
    _l_sum, and a remainder raises ArithmeticError.  The verify checks
    oracle/reduced-tree-poly and oracle/cyclic-shuffles compare it with
    enumerated trees and words.
    """
    values = check_odd_tuple(values)
    k = (len(values) - 1) // 2
    z = list(accumulate(values))
    family = [1]  # family[s] is P_j^{2s+1} at the point
    for j in range(k):
        family = _p_step(family, *z[2 * j:2 * j + 3])
    reduced, rest = divmod(sum(family), 4 ** k)
    if rest:
        raise ArithmeticError(f"4^{k} does not divide the level-{k} sum at {values}")
    return values[0] * reduced


def q_eval(values: Sequence[int]) -> Fraction:
    """Average oriented sign sum over cyclic shuffles of the given alphabet.

    The tree value over the shuffle count z0 z1 ... z_{2k-1}, where z_j is
    the j-th partial sum of the entries: the kernel of the coefficient peel.
    """
    return Fraction(tree_value(values), prod(accumulate(values[:-1])))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def t_closed_ones(k: int, n: int, m: int) -> int:
    """Closed form for the tree polynomial at (n, 1, ..., 1, m).

    (2k-1)!! m n (n+1)(n+3)...(n+2k-1).  For k = 0 the first and last
    positions coincide, so n and m must agree and the value is n.
    """
    if n < 1 or n % 2 == 0 or m < 1 or m % 2 == 0:
        raise ValueError(f"n and m must be positive odd, got ({n}, {m})")
    if k == 0:
        if n != m:
            raise ValueError("at k = 0 the two distinguished positions merge; need n == m")
        return n
    value = double_factorial(2 * k - 1) * m * n
    for i in range(1, k + 1):
        value *= n + 2 * i - 1
    return value


def q_closed_ones(k: int, n: int) -> Fraction:
    """Closed form for the average sign sum at (n, 1, ..., 1): (2k-1)!! n!! / (n+2k-2)!!."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be positive odd, got {n}")
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return Fraction(
        double_factorial(2 * k - 1) * double_factorial(n), double_factorial(n + 2 * k - 2)
    )


def t_closed_main(k: int, p: int, q: int, r: int) -> int:
    """Closed form for the tree polynomial at (3, 1^p, 2r+1, 1^q) with p+q = 2k-1."""
    if k < 1 or p < 0 or q < 0 or r < 0:
        raise ValueError(f"need k >= 1 and p, q, r >= 0, got (k={k}, p={p}, q={q}, r={r})")
    if p + q != 2 * k - 1:
        raise ValueError(f"need p + q = 2k - 1, got p={p}, q={q}, k={k}")
    # the factor q!/(q-2s+1)! is an int except at s = 0, where it is 1/(q+1):
    # sum (q+1) times each term on ints and divide once, exactly
    total = 0
    for s in range((q + 1) // 2 + 1):
        bracket = (q - 2 * s + 1) * (2 * r + 2 * s + 1) - 2 * s * (2 * k - 2 * s + 3)
        total += (
            factorial(q + 1) // factorial(q - 2 * s + 1)
            * binomial(r - 1 + s, s)
            * factorial(2 * k - 2 * s)
            * 3
            * (k - s + 1)
            * bracket
        )
    value, rest = divmod(total, q + 1)
    if rest:
        raise ArithmeticError(f"closed form produced a non-integer: {total}/{q + 1}")
    return value


def xe_tables(variant: str, n: int, m: int) -> tuple[int, Fraction]:
    """Closed-form (X, E) for the three shuffle sign-sum families.

    X is the total oriented sign sum over the binomial(n+m, n) shuffles and
    E its average; E * binomial(n+m, n) equals X in every case.  Variant Xv
    has v = 0, 1 or 2 fixed a-letters, and each parity case of (n, m) is
    one formula in v.  With j = ceil(n/2), kk = ceil(m/2) and
    base = (2j-1)!! (2kk-1)!!, the factor f of each case is

        n, m even:      f = 2j + v,              X = f C(j+kk, j)
        n even, m odd:  f = 1 if v = 1 else 0,   X = f C(j+kk-1, j)
        n odd, m even:  f = 2j + 2kk - 1 + v,    X = f C(j+kk-1, kk)

    with E = f base / (2j+2kk-1)!! in all three, and for n, m odd,
    f = -1 for X2 and 1 otherwise, X = 2kk f C(j+kk-1, kk) and
    E = f base / (2j+2kk-3)!!.
    """
    if variant not in ("X0", "X1", "X2"):
        raise ValueError(f"unknown variant {variant!r}")
    if n < 0 or m < 0:
        raise ValueError(f"need n, m >= 0, got ({n}, {m})")
    v = int(variant[1])
    df = double_factorial
    j, kk = (n + 1) // 2, (m + 1) // 2
    base = df(2 * j - 1) * df(2 * kk - 1)
    if n % 2 == 0 and m % 2 == 0:
        factor = 2 * j + v
        return factor * comb(j + kk, j), Fraction(factor * base, df(2 * j + 2 * kk - 1))
    if n % 2 == 0:
        factor = v % 2  # only X1 is nonzero
        return factor * comb(j + kk - 1, j), Fraction(factor * base, df(2 * j + 2 * kk - 1))
    if m % 2 == 0:
        factor = 2 * j + 2 * kk - 1 + v
        return factor * comb(j + kk - 1, kk), Fraction(factor * base, df(2 * j + 2 * kk - 1))
    sign = -1 if v == 2 else 1
    return sign * 2 * kk * comb(j + kk - 1, kk), Fraction(sign * base, df(2 * j + 2 * kk - 3))


def double_sum_identity(k: int, r: int) -> tuple[Fraction, Fraction]:
    """Both sides of the split-position sum identity.

    lhs sums q_eval over (3, 1^p, 2r+1, 1^q) for all p + q = 2k - 1; rhs is
    3(2k+2r+3)/(2k+1) - 3 (2r+3)!! (2k-1)!! / (2k+2r+1)!!.  The two agree.
    """
    if k < 1 or r < 0:
        raise ValueError(f"need k >= 1 and r >= 0, got ({k}, {r})")
    lhs = Fraction(0)
    for p in range(2 * k):
        q = 2 * k - 1 - p
        lhs += q_eval((3,) + (1,) * p + (2 * r + 1,) + (1,) * q)
    rhs = Fraction(3 * (2 * k + 2 * r + 3), 2 * k + 1) - Fraction(
        3 * double_factorial(2 * r + 3) * double_factorial(2 * k - 1),
        double_factorial(2 * k + 2 * r + 1),
    )
    return lhs, rhs


def _hyperbolic(m: int) -> tuple[int, int, int]:
    """The t^m/m! coefficients of sinh^2 t, sinh t cosh t and cosh^2 t.

    sinh^2 = (cosh 2t - 1)/2, sinh cosh = sinh(2t)/2 and cosh^2 =
    (cosh 2t + 1)/2, so each is 2^(m-1) or 0 by the parity of m, and
    cosh^2 has 1 at m = 0.
    """
    if m == 0:
        return 0, 0, 1
    half = 2 ** (m - 1)
    return (0, half, 0) if m % 2 else (half, 0, half)


def verify_g_recursion(k: int, order: int) -> bool:
    """Check the hyperbolic recursion for the leaf generating function.

    g_k(t) = sum_n l_poly(k, n) t^(2n)/(2n)! satisfies g_0 = cosh t and

      g_{k+1} = g_k (z_{2k} z_{2k+2} sinh^2 t + z_{2k} y2)
              + g_k' z_{2k+1} (y1 + y2) sinh t cosh t
              + g_k'' y1 y2 cosh^2 t

    with z_j = x0+...+xj, y_i = x_{2k+i}.  Returns exact equality of the
    t^m/m! coefficients of both sides through the (even) truncation order,
    each an integer polynomial: the coefficient of a product is
    sum_j C(m, j) f_j h_(m-j), and g_k' and g_k'' shift g_k's coefficients
    by one and two.  Both sides vanish at odd m, so only even m are
    compared.  The comparison runs on the z level, the _l_sum of each
    level, where y1 = z_{2k+1} - z_{2k} and y2 = z_{2k+2} - z_{2k+1}; the
    change of variables is a bijection, so equality in z is equality in x.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if order < 2 or order % 2:
        raise ValueError(f"truncation order must be even and >= 2, got {order}")
    num_vars = 2 * k + 3
    # g_k'' reaches two orders past the truncation order
    g = [_l_sum(k, n).extended(num_vars) for n in range(order // 2 + 2)]
    z2k, z2k1, z2k2 = (MultiPoly.variable(num_vars, j) for j in range(2 * k, num_vars))
    y1, y2 = z2k1 - z2k, z2k2 - z2k1
    # the multipliers of g_k sinh^2, g_k' sinh cosh and g_k'' cosh^2
    multipliers = (z2k * z2k2, z2k1 * (y1 + y2), y1 * y2)
    for n in range(order // 2 + 1):
        m = 2 * n
        sums = [MultiPoly.zero(num_vars)] * 3
        for j in range(m + 1):
            for d, c in enumerate(_hyperbolic(m - j)):
                if c:
                    # c != 0 makes j + d even: the t^(j+d) coefficient of g_k
                    sums[d] = sums[d] + g[(j + d) // 2] * (comb(m, j) * c)
        rhs = g[n] * (z2k * y2)
        for total, multiplier in zip(sums, multipliers):
            rhs = rhs + total * multiplier
        if rhs != _l_sum(k + 1, n):
            return False
    return True
