"""Self-verification: every identity the package relies on, run as named
checks that compare an independent route against the production route.

Quick level covers the explicitly tabulated anchor values; full level
adds the exhaustive oracle equivalences and closed-form sweeps.  `CHECKS`
is the single registry of these identities: the `kcycles verify` command
and the acceptance suite both run it.  A check yields (label, production
value, independent value) triples and never raises on a mathematical
mismatch; the runner compares the two sides and reports the first unequal
triple so the caller can render a report and choose an exit code.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, prod
from typing import Callable, Iterable, Iterator, NamedTuple

from . import cache as cache_mod
from . import oracles
from .exact import (
    MultiPoly,
    double_factorial,
    normalize_partition,
    partitions_of,
    stirling_first_signed,
    stirling_second,
)
from .coeffs import (
    a_single,
    b_single,
    closed_a_pair,
    closed_b_pair,
    degenerate_a,
    degenerate_b,
    h_sequence,
    shared_table,
    sym_count,
    table_document,
)
from .treepoly import (
    _hyperbolic,
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


class CheckResult(NamedTuple):
    name: str
    ok: bool
    lhs: str
    rhs: str
    seconds: float


class VerifyReport(NamedTuple):
    level: str
    results: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def lines(self, timings: bool = False) -> list[str]:
        # timings are off by default so identical invocations print identical bytes
        out = []
        for r in self.results:
            status = "PASS" if r.ok else "FAIL"
            line = f"{status} {r.name}"
            if timings:
                line += f" ({r.seconds:.2f}s)"
            if not r.ok:
                line += f": lhs={r.lhs} rhs={r.rhs}"
            out.append(line)
        failed = sum(1 for r in self.results if not r.ok)
        summary = (
            f"{'OK' if failed == 0 else 'FAILED'}: {len(self.results) - failed}/"
            f"{len(self.results)} checks passed"
        )
        if timings:
            summary += f" in {sum(r.seconds for r in self.results):.1f}s"
        out.append(summary)
        return out


Triple = tuple[str, object, object]


def _compare(triples: Iterable[Triple]) -> tuple[bool, str, str]:
    count = 0
    for label, lhs, rhs in triples:
        count += 1
        if lhs != rhs:
            return False, f"{label}: {lhs!r}", f"{label}: {rhs!r}"
    return True, f"{count} comparisons", f"{count} comparisons"


def _odd_tuples(length: int, max_total: int) -> Iterator[tuple[int, ...]]:
    # the odd tuples of total length + 2m are the compositions of m, doubled
    # and moved up by one in every slot
    for m in range((max_total - length) // 2 + 1):
        for comp in oracles.compositions(m, length):
            yield tuple(2 * c + 1 for c in comp)


def _matrix_product(first: list[list], second: list[list]) -> list[list]:
    size = len(first)
    return [
        [sum(first[i][k] * second[k][j] for k in range(size)) for j in range(size)]
        for i in range(size)
    ]


def _identity(size: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]


def _closed_diagonal(lam: tuple[int, ...]) -> Fraction:
    """a_lam^lam in closed form: the product of the one-part a_i over Sym(lam)."""
    return Fraction(prod(a_single(part) for part in lam), sym_count(lam))


# ---------------------------------------------------------------------------
# quick checks: tabulated anchors
# ---------------------------------------------------------------------------

def check_reduced_polys() -> Iterator[Triple]:
    x = [MultiPoly.variable(3, i) for i in range(3)]
    y = [MultiPoly.variable(5, i) for i in range(5)]
    s01 = y[0] + y[1]
    expected2 = s01 * s01 * y[2] * y[4] + s01 * y[2] * y[2] * y[4] \
        + 2 * s01 * s01 * y[3] * y[4] + 5 * s01 * y[2] * y[3] * y[4]
    # each level is built once, for every comparison that reads it
    t0, t1, t2, t3 = map(reduced_tree_poly, range(4))
    yield "T~0", t0, MultiPoly.constant(1, 1)
    yield "T~1", t1, (x[0] + x[1]) * x[2]
    yield "T~2", t2, expected2
    yield ("T~2|x0=0", t2.substitute(0, MultiPoly.zero(5)),
           expected2.substitute(0, MultiPoly.zero(5)))
    yield "T~3[x1..x6]", t3.coefficient((0, 1, 1, 1, 1, 1, 1)), 61
    yield "T~3[x1x2x3^2x4x6]", t3.coefficient((0, 1, 1, 2, 1, 0, 1)), 5
    for k, level in enumerate((t0, t1, t2, t3)):
        yield f"total k={k}", level.coefficient_sum(), factorial(2 * k)


def check_coefficient_anchors() -> Iterator[Triple]:
    table = shared_table()
    yield "b_1^1", table.b_lambda_n((1,)), Fraction(1, 12)
    yield "b_11^2", table.b_lambda_n((1, 1)), Fraction(29, 720)
    yield "b_111^3", table.b_lambda_n((1, 1, 1)), Fraction(263, 6720)
    yield "b_1111^4", table.b_lambda_n((1, 1, 1, 1)), Fraction(23479, 403200)
    yield "b_21^3", table.b_lambda_n((2, 1)), Fraction(-19, 3360)
    yield "b_111^21", table.b_lambda_mu((1, 1, 1), (2, 1)), Fraction(29, 2880)
    yield "b_21^21", table.b_lambda_mu((2, 1), (2, 1)), Fraction(-1, 1440)
    yield "peel example", table.b_extend((1,), 1), Fraction(29, 720)
    yield "h(1)", h_sequence(1), Fraction(1, 3)
    yield "h(2)", h_sequence(2), Fraction(29, 90)
    yield "h(3)", h_sequence(3), Fraction(263, 630)
    yield "h(4)", h_sequence(4), Fraction(23479, 37800)
    yield "a_1", a_single(1), 12
    yield "a_3", a_single(3), 1680
    yield "b_2", b_single(2), Fraction(-1, 120)
    for n in range(1, 6):
        yield (f"b_1^{n} vs h", table.b_lambda_n((1,) * n),
               Fraction(factorial(n), 4 ** n) * h_sequence(n))


def check_witten_and_cup_anchors() -> Iterator[Triple]:
    table = shared_table()
    yield ("W*_111", table.witten_expansion((1, 1, 1)),
           {(1, 1, 1): 288, (2, 1): 4176, (3,): 20736})
    yield "W*_1", table.witten_expansion((1,)), {(1,): 12}
    yield "W*_empty", table.witten_expansion(()), {(): 1}
    yield "cup 1,1", table.cup_coeff((1,), (1,)), {(1, 1): 2, (2,): Fraction(29, 5)}
    yield "cup 1,empty", table.cup_coeff((1,), ()), {(1,): 1}


def check_pair_closed_anchors() -> Iterator[Triple]:
    table = shared_table()
    yield "b_pair(1,1)", closed_b_pair(1, 1), Fraction(29, 720)
    yield "b_pair(2,1)", closed_b_pair(2, 1), Fraction(-19, 3360)
    yield "b_pair(1,1) vs recursion", closed_b_pair(1, 1), table.b_lambda_n((1, 1))
    for n in range(1, 8):
        expected = Fraction(
            -12 * a_single(n) - (2 * n + 5) * a_single(n + 1), sym_count((n, 1))
        )
        yield f"a_pair({n},1)", closed_a_pair(n, 1), expected


def check_xe_anchors() -> Iterator[Triple]:
    for variant, n, m, expected in [
        ("X0", 2, 2, 4),
        ("X0", 2, 1, 0),
        ("X0", 4, 3, 0),
        ("X1", 2, 2, (2 + 1) * comb(2, 1)),
        ("X2", 1, 1, -2),
    ]:
        x_closed, _ = xe_tables(variant, n, m)
        yield f"{variant}({n},{m}) closed", x_closed, expected
        yield (f"{variant}({n},{m}) brute",
               oracles.shuffle_sign_sum_bruteforce(variant, n, m), expected)


def check_counting_anchors() -> Iterator[Triple]:
    for n, s, expected in [(3, 1, 1), (5, 2, 5), (4, 3, -16)]:
        yield f"brute({n},{s})", oracles.counting_identity_bruteforce(n, s), expected
        yield f"closed({n},{s})", oracles.counting_identity_closed(n, s), expected


def check_q_t_closed_anchors() -> Iterator[Triple]:
    yield "Q_2(3,1,1,1,1)", q_eval((3, 1, 1, 1, 1)), Fraction(3, 5)
    yield "q_closed(2,3)", q_closed_ones(2, 3), Fraction(3, 5)
    yield "Q_1(5,3,7)", q_eval((5, 3, 7)), 7
    yield "Q_0(9)", q_eval((9,)), 9
    yield "T_1(3,1,1)", t_closed_ones(1, 3, 1), 12
    yield "T_2(1,...,1)", t_closed_ones(2, 1, 1), 24
    yield "T_1 eval", tree_poly(1).eval((3, 1, 1)), 12


def check_l_poly_anchors() -> Iterator[Triple]:
    x0, x1, x2 = (MultiPoly.variable(3, i) for i in range(3))
    s01 = x0 + x1
    for n in range(4):
        expected = s01 * (2 * x2 + s01) * 3 ** (2 * n) + s01 * (2 * x2 - s01)
        yield f"4 L_1^{n}", 4 * l_poly(1, n), expected
    yield "L_0^3", l_poly(0, 3), MultiPoly.constant(1, 1)
    yield "L_2^1(1..1)", l_poly(2, 1).coefficient_sum(), factorial(4) * 25


def check_series_anchors() -> Iterator[Triple]:
    # the products of the exponential series of cosh (1 at even m) and sinh
    # (1 at odd m), coefficient by coefficient: sum_j C(m, j) f_j h_(m-j)
    def cosh(m):
        return int(m % 2 == 0)

    def sinh(m):
        return m % 2

    for m in range(9):
        products = tuple(sum(comb(m, j) * f(j) * h(m - j) for j in range(m + 1))
                         for f, h in ((sinh, sinh), (sinh, cosh), (cosh, cosh)))
        yield f"hyperbolic t^{m}/{m}!", _hyperbolic(m), products
    yield "g recursion k=0", verify_g_recursion(0, 4), True


def check_stirling() -> Iterator[Triple]:
    yield "s1(3,1)", stirling_first_signed(3, 1), 2
    yield "s1(4,2)", stirling_first_signed(4, 2), 11
    yield "S2(3,2)", stirling_second(3, 2), 3
    yield "S2(4,2)", stirling_second(4, 2), 7
    yield "5!!", double_factorial(5), 15
    yield "7!!", double_factorial(7), 105
    yield "(-1)!!", double_factorial(-1), 1
    for n in range(11):
        for m in range(11):
            lhs = sum(
                stirling_first_signed(n, k) * stirling_second(k, m) for k in range(n + 1)
            )
            yield f"duality({n},{m})", lhs, int(n == m)


def check_degenerate_anchors() -> Iterator[Triple]:
    for m in range(7):
        for n in range(7):
            expected = Fraction(factorial(n) * stirling_second(m, n), (-2) ** m)
            yield f"b_0^{m},{n}", degenerate_b((), m, (), n), expected
    for k in range(1, 4):
        yield (f"one zero, k={k}", degenerate_b((k,), 1, (k,), 0),
               Fraction(-(2 * k + 1), 2) * b_single(k))
    for m in range(5):
        for i in range(m + 1):
            expected = Fraction(stirling_first_signed(m, i) * (-2) ** i, factorial(m))
            yield f"a_0^{m},{i}", degenerate_a((), m, (), i), expected
    yield ("p=q=0", degenerate_b((2, 1), 0, (3,), 0),
           shared_table().b_lambda_mu((2, 1), (3,)))


def check_double_sum_anchors() -> Iterator[Triple]:
    for k, r in [(1, 0), (1, 1), (2, 0), (2, 1)]:
        lhs, rhs = double_sum_identity(k, r)
        yield f"double sum k={k} r={r}", lhs, rhs
    yield "value k=1 r=0", double_sum_identity(1, 0)[0], Fraction(2)
    yield "value k=1 r=1", double_sum_identity(1, 1)[0], Fraction(4)


def check_cache_consistency(cache_dir=None) -> Iterator[Triple]:
    """Every table document cached in `cache_dir` (None: the default cache
    directory) equals a fresh build, byte for byte.

    A file that `kcycles table` would not reuse fails without a build, so a
    name claiming a large weight costs nothing unless its header matches.
    """
    cache_dir = cache_mod.default_cache_dir() if cache_dir is None else cache_dir
    for weight, path in cache_mod.table_paths(cache_dir):
        equal = cache_mod.load_table(path, weight) is not None
        if equal:
            fresh = cache_mod.canonical_json(table_document(weight)).encode()
            equal = path.read_bytes() == fresh
        # a boolean keeps a failure line short; the documents can be large
        yield f"{path.name} equals a fresh build", equal, True


# ---------------------------------------------------------------------------
# full checks: oracle equivalences and sweeps
# ---------------------------------------------------------------------------

def check_oracle_reduced() -> Iterator[Triple]:
    # the levels, and the tree value at every odd tuple of total <= 17,
    # against the enumerated trees
    for k in range(6):
        brute = oracles.reduced_tree_poly_bruteforce(k)
        yield f"k={k}", reduced_tree_poly(k), brute
        for values in _odd_tuples(2 * k + 1, 17):
            yield f"Q{values}", tree_value(values), values[0] * brute.eval(values)


def check_p_family_coordinates() -> Iterator[Triple]:
    # the walk's z level converted to x against the step run in x on
    # MultiPoly: this covers the words of moves, the coordinates and the
    # conversion, and the brute-force checks cover the step
    for k in range(6):
        yield f"k={k}", p_family(k).polys, oracles.p_family_x(k).polys


def check_oracle_shuffles() -> Iterator[Triple]:
    for length in (1, 3, 5):
        poly = tree_poly((length - 1) // 2)
        for values in _odd_tuples(length, 9):
            brute = oracles.tree_poly_bruteforce(values)
            yield f"T{values}", brute, poly.eval(values)
            # the point route against words, not against the level walk it
            # shares its recursion step with
            yield f"Q{values}", tree_value(values), brute


def check_shuffle_counts() -> Iterator[Triple]:
    for length in (1, 3, 5, 7, 9, 11):
        for values in _odd_tuples(length, 11):
            count = sum(1 for _ in oracles.enumerate_cyclic_shuffles(values))
            yield f"count{values}", count, prod(accumulate(values[:-1]))


def check_xe_sweep() -> Iterator[Triple]:
    for variant in oracles.SIGN_SUM_VARIANTS:
        for n in range(11):
            for m in range(11 - n):
                brute = oracles.shuffle_sign_sum_bruteforce(variant, n, m)
                x_closed, e_closed = xe_tables(variant, n, m)
                yield f"{variant}({n},{m})", brute, x_closed
                yield f"{variant}({n},{m}) E", e_closed * comb(n + m, n), x_closed


def check_counting_sweep() -> Iterator[Triple]:
    for n in range(1, 7):
        for s in range(5):
            yield (f"({n},{s})", oracles.counting_identity_bruteforce(n, s),
                   oracles.counting_identity_closed(n, s))


def check_even_cycles() -> Iterator[Triple]:
    # histograms by full permutation enumeration up to degree 8, and the
    # x0-degree profile of the reduced polynomial through level 7, where no
    # enumeration reaches
    for k in range(1, 8):
        closed = oracles.even_cycle_closed_coeffs(2 * k)
        if k <= 4:
            yield f"2k={2 * k}", oracles.even_cycle_histogram(2 * k), closed
        by_x0: dict[int, int] = {}
        for exps, coeff in reduced_tree_poly(k).items():
            by_x0[exps[0]] = by_x0.get(exps[0], 0) + coeff
        yield f"T~{k}(x,1..1)", [by_x0.get(i, 0) for i in range(k + 1)], closed
        yield f"deg T~{k}(x,1..1)", max(by_x0), k
    # the profile through level 30 from points, with no level built.  x0
    # counts the root's even child subtrees, which share 2k vertices, so
    # T~_k(x, 1, ..., 1) has degree at most k in x, and its values at the
    # k+1 odd points n = 1, 3, ..., 2k+1 fix it; T = n T~_k at the point
    for k in range(1, 31):
        closed = oracles.even_cycle_closed_coeffs(2 * k)
        for n in range(1, 2 * k + 2, 2):
            yield (f"T~{k}({n},1..1)", tree_value((n,) + (1,) * (2 * k)),
                   n * sum(c * n ** i for i, c in enumerate(closed)))


def check_closed_ones_sweep() -> Iterator[Triple]:
    # q_eval reaches any level; the tree polynomials stop at the buildable ones
    for k in range(1, 13):
        for n in range(1, 10, 2):
            yield f"Q k={k} n={n}", q_eval((n,) + (1,) * (2 * k)), q_closed_ones(k, n)
    for k in range(1, 6):
        poly = tree_poly(k)
        for n in range(1, 10, 2):
            for m in range(1, 10, 2):
                values = (n,) + (1,) * (2 * k - 1) + (m,)
                yield f"T k={k} n={n} m={m}", poly.eval(values), t_closed_ones(k, n, m)
    # each one-slot line from the all-ones point through level 30, from
    # points: T~_k is homogeneous of degree 2k and T = x0 T~_k, so T has
    # degree at most 2k+1 in any one slot, and 2k+2 odd points fix it in n
    # (m = 1) and in m (n = 1)
    for k in range(1, 31):
        ones = (1,) * (2 * k - 1)
        for v in range(1, 4 * k + 4, 2):
            yield f"T k={k} n={v} m=1", tree_value((v, *ones, 1)), t_closed_ones(k, v, 1)
            yield f"T k={k} n=1 m={v}", tree_value((1, *ones, v)), t_closed_ones(k, 1, v)


def check_closed_main_sweep() -> Iterator[Triple]:
    for k in range(1, 5):
        poly = tree_poly(k)
        for r in range(5):
            for p in range(2 * k):
                q = 2 * k - 1 - p
                values = (3,) + (1,) * p + (2 * r + 1,) + (1,) * q
                yield f"k={k} r={r} p={p}", poly.eval(values), t_closed_main(k, p, q, r)
            lhs, rhs = double_sum_identity(k, r)
            yield f"double k={k} r={r}", lhs, rhs
    # in r through level 30, from points, at the first, middle and last
    # splits: T has degree at most 2k in the slot p+1, which holds 2r+1, and
    # the closed form has degree at most k+1 in r, so the 2k+2 values
    # r = 0, ..., 2k+1 fix both
    for k in range(1, 31):
        for p in sorted({0, k - 1, 2 * k - 1}):
            q = 2 * k - 1 - p
            for r in range(2 * k + 2):
                values = (3,) + (1,) * p + (2 * r + 1,) + (1,) * q
                yield f"k={k} r={r} p={p}", tree_value(values), t_closed_main(k, p, q, r)


def check_pair_closed_sweep() -> Iterator[Triple]:
    table = shared_table()
    for total in range(2, 15):
        for r in range(1, total):
            k = total - r
            yield f"b({r},{k})", table.b_lambda_n((r, k)), closed_b_pair(r, k)
            yield f"a({r},{k})", table.a_lambda_mu((r, k), (total,)), closed_a_pair(r, k)


def check_structural() -> Iterator[Triple]:
    for k in range(8):
        reduced = reduced_tree_poly(k)
        num_vars = 2 * k + 1
        yield f"homog k={k}", reduced.is_homogeneous(2 * k), True
        yield (f"nonneg int k={k}",
               all(isinstance(c, int) and c > 0 for _, c in reduced.items()), True)
        yield f"sum k={k}", reduced.coefficient_sum(), factorial(2 * k)
        yield f"linear last k={k}", tree_poly(k).degree_in(2 * k), 1
        if k >= 1:
            at_zero = reduced.substitute(0, MultiPoly.zero(num_vars))
            x0_plus_x1 = MultiPoly.variable(num_vars, 0) + MultiPoly.variable(num_vars, 1)
            yield f"x0+x1 k={k}", at_zero.substitute(1, x0_plus_x1), reduced


def check_l_poly_sweep() -> Iterator[Triple]:
    for k in range(5):
        for n in range(4):
            yield (f"L_{k}^{n}(1..1)", l_poly(k, n).coefficient_sum(),
                   factorial(2 * k) * (2 * k + 1) ** (2 * n))


def check_g_recursion_sweep() -> Iterator[Triple]:
    for k in range(7):
        yield f"k={k}", verify_g_recursion(k, 6), True


def check_matrix_duality() -> Iterator[Triple]:
    table = shared_table()
    for n in range(1, 7):
        a_rows = table.a_matrix(n)
        product = _matrix_product(table.b_matrix(n), a_rows)
        yield f"B.A weight {n}", product, _identity(len(a_rows))
        for idx, lam in enumerate(partitions_of(n)):
            yield f"diag {lam}", a_rows[idx][idx], _closed_diagonal(lam)
    # the a-rows against forward substitution over the whole weight matrix
    for n in range(15):
        yield (f"a weight {n}", table.a_matrix(n),
               oracles.invert_lower_triangular(table.b_matrix(n)))


def check_oracle_b_matrix() -> Iterator[Triple]:
    # every entry of the b-matrix by index subsets, none assumed zero,
    # against the triangular production matrix, and its Gauss-Jordan
    # inverse against the a-rows
    table = shared_table()
    memo: dict = {}
    for n in range(11):
        parts = partitions_of(n)
        full = [
            [oracles.b_lambda_mu_subsets(lam, mu, table.b_lambda_n, memo) for mu in parts]
            for lam in parts
        ]
        above = [(parts[i], parts[j]) for i in range(len(parts))
                 for j in range(i + 1, len(parts)) if full[i][j]]
        yield f"above diagonal weight {n}", above, []
        yield f"b weight {n}", table.b_matrix(n), full
        yield f"a weight {n}", table.a_matrix(n), oracles.invert_rational_matrix(full)


def check_next_coefficient() -> Iterator[Triple]:
    # merging two parts of lam gives a mu with no partition strictly between
    # them in the coarsening order, so a_lam^mu = -D_lam b_lam^mu D_mu with
    # the closed-form diagonal D, independent of the rest of the inverse
    table = shared_table()
    for n in range(2, 15):
        parts = partitions_of(n)
        index = {lam: i for i, lam in enumerate(parts)}
        a_rows = table.a_matrix(n)
        for i, lam in enumerate(parts):
            merged = {
                normalize_partition(lam[:x] + lam[x + 1:y] + lam[y + 1:] + (lam[x] + lam[y],))
                for x in range(len(lam)) for y in range(x + 1, len(lam))
            }
            for mu in sorted(merged, key=index.__getitem__):
                closed = -_closed_diagonal(lam) * table.b_lambda_mu(lam, mu) * _closed_diagonal(mu)
                yield f"{lam} -> {mu}", a_rows[i][index[mu]], closed


def check_order_independence() -> Iterator[Triple]:
    table = shared_table()
    for weight in range(2, 8):
        for lam in partitions_of(weight):
            if len(lam) < 2:
                continue
            default = table.b_lambda_n(lam)
            seen = set()
            for index, part in enumerate(lam):
                if part in seen:
                    continue  # identical peel, identical arguments
                seen.add(part)
                rest = lam[:index] + lam[index + 1:]
                yield f"{lam} peel {part}", table.b_extend(rest, part), default


def check_degenerate_inverses() -> Iterator[Triple]:
    table = shared_table()
    for weight in range(4):
        index = [(lam, pad) for lam in partitions_of(weight) for pad in range(4)]
        b_rows = [
            [table.degenerate_b(lam, p, mu, q) for (mu, q) in index]
            for (lam, p) in index
        ]
        a_rows = [
            [table.degenerate_a(lam, p, mu, q) for (mu, q) in index]
            for (lam, p) in index
        ]
        yield f"B.A weight {weight}", _matrix_product(b_rows, a_rows), _identity(len(index))
        yield f"A.B weight {weight}", _matrix_product(a_rows, b_rows), _identity(len(index))


def check_cup_symmetry() -> Iterator[Triple]:
    table = shared_table()
    for wl in range(6):
        for wm in range(6 - wl):
            for lam in partitions_of(wl):
                for mu in partitions_of(wm):
                    yield f"{lam}x{mu}", table.cup_coeff(lam, mu), table.cup_coeff(mu, lam)


CHECKS: tuple[tuple[str, str, Callable[..., Iterable[Triple]]], ...] = (
    ("anchors/reduced-polys", "quick", check_reduced_polys),
    ("anchors/coefficients", "quick", check_coefficient_anchors),
    ("anchors/witten-cup", "quick", check_witten_and_cup_anchors),
    ("anchors/pair-closed", "quick", check_pair_closed_anchors),
    ("anchors/xe-tables", "quick", check_xe_anchors),
    ("anchors/counting", "quick", check_counting_anchors),
    ("anchors/q-t-closed", "quick", check_q_t_closed_anchors),
    ("anchors/l-poly", "quick", check_l_poly_anchors),
    ("anchors/series", "quick", check_series_anchors),
    ("anchors/stirling", "quick", check_stirling),
    ("anchors/degenerate", "quick", check_degenerate_anchors),
    ("anchors/double-sum", "quick", check_double_sum_anchors),
    ("cache/tables", "quick", check_cache_consistency),
    ("oracle/reduced-tree-poly", "full", check_oracle_reduced),
    ("oracle/p-family-coordinates", "full", check_p_family_coordinates),
    ("oracle/cyclic-shuffles", "full", check_oracle_shuffles),
    ("oracle/shuffle-counts", "full", check_shuffle_counts),
    ("oracle/xe-sweep", "full", check_xe_sweep),
    ("oracle/counting-sweep", "full", check_counting_sweep),
    ("oracle/even-cycles", "full", check_even_cycles),
    ("sweep/closed-ones", "full", check_closed_ones_sweep),
    ("sweep/closed-main", "full", check_closed_main_sweep),
    ("sweep/pair-closed", "full", check_pair_closed_sweep),
    ("struct/reduced-poly", "full", check_structural),
    ("struct/l-poly", "full", check_l_poly_sweep),
    ("struct/g-recursion", "full", check_g_recursion_sweep),
    ("matrix/duality", "full", check_matrix_duality),
    ("oracle/b-matrix", "full", check_oracle_b_matrix),
    ("matrix/next-coefficient", "full", check_next_coefficient),
    ("matrix/order-independence", "full", check_order_independence),
    ("degenerate/inverses", "full", check_degenerate_inverses),
    ("cup/symmetry", "full", check_cup_symmetry),
)


def run_checks(names: Iterable[str], cache_dir=None) -> list[CheckResult]:
    """Run the named registry checks in the given order; `cache_dir` goes to
    the cache check."""
    registry = {name: func for name, _, func in CHECKS}
    results = []
    for name in names:
        func = registry[name]
        start = time.perf_counter()
        # the cache check is the one check that reads state outside the process
        triples = func(cache_dir) if func is check_cache_consistency else func()
        ok, lhs, rhs = _compare(triples)
        results.append(CheckResult(name, ok, lhs, rhs, time.perf_counter() - start))
    return results


def run_verify(level: str = "quick", cache_dir=None) -> VerifyReport:
    """Run all checks at the requested level ("quick" or "full")."""
    if level not in ("quick", "full"):
        raise ValueError(f"unknown level {level!r}; choose quick or full")
    wanted = ("quick",) if level == "quick" else ("quick", "full")
    names = [name for name, check_level, _ in CHECKS if check_level in wanted]
    return VerifyReport(level, run_checks(names, cache_dir))
