"""Tests for the coefficient pipeline: b/a tables, cup products, degenerate case."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from kcycles import coeffs, oracles
from kcycles.coeffs import (
    CoeffTable,
    a_single,
    b_single,
    closed_a_pair,
    closed_b_pair,
    degenerate_a,
    degenerate_b,
    h_sequence,
    partition_key,
    shared_table,
    sym_count,
    table_document,
)
from kcycles.exact import partition_order, partitions_of, stirling_second
from kcycles.oracles import (
    b_lambda_mu_subsets,
    invert_lower_triangular,
    invert_rational_matrix,
    peel_by_compositions,
)


@pytest.fixture(scope="module")
def table():
    return shared_table()


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def test_singles():
    assert a_single(1) == 12
    assert a_single(2) == -120
    assert a_single(3) == 1680
    assert b_single(2) == Fraction(-1, 120)
    assert b_single(3) == Fraction(1, 1680)
    assert a_single(4) * b_single(4) == 1
    with pytest.raises(ValueError):
        a_single(0)


def test_sym_count():
    assert sym_count((1, 1)) == 2
    assert sym_count((2, 1)) == 1
    assert sym_count((3, 3, 3, 1)) == 6
    assert sym_count(()) == 1


def test_h_sequence():
    assert h_sequence(0) == 1
    assert h_sequence(1) == Fraction(1, 3)
    assert h_sequence(2) == Fraction(29, 90)
    assert h_sequence(3) == Fraction(263, 630)
    assert h_sequence(4) == Fraction(23479, 37800)


# ---------------------------------------------------------------------------
# the b recursion
# ---------------------------------------------------------------------------

def test_b_lambda_n_anchors(table):
    assert table.b_lambda_n((1,)) == Fraction(1, 12)
    assert table.b_lambda_n((1, 1)) == Fraction(29, 720)
    assert table.b_lambda_n((1, 1, 1)) == Fraction(263, 6720)
    assert table.b_lambda_n((1, 1, 1, 1)) == Fraction(23479, 403200)
    assert table.b_lambda_n((2, 1)) == Fraction(-19, 3360)


def test_b_extend_examples(table):
    assert table.b_extend((1,), 1) == Fraction(29, 720)
    assert table.b_extend((1,), 2) == Fraction(-19, 3360)
    # peeling the only part from the empty partition reproduces b_single
    for n in range(1, 5):
        assert table.b_extend((), n) == b_single(n)


def test_b_h_relation(table):
    for n in range(1, 6):
        assert table.b_lambda_n((1,) * n) == Fraction(factorial(n), 4 ** n) * h_sequence(n)


def test_b_lambda_mu_examples(table):
    assert table.b_lambda_mu((1, 1, 1), (2, 1)) == Fraction(29, 2880)
    assert table.b_lambda_mu((2, 1), (2, 1)) == Fraction(-1, 1440)
    for n in range(1, 5):
        assert table.b_lambda_mu((n,), (n,)) == b_single(n)
    # no surjection: superscript with more parts than the subscript
    assert table.b_lambda_mu((2,), (1, 1)) == 0
    assert table.b_lambda_mu((), ()) == 1
    with pytest.raises(ValueError):
        table.b_lambda_mu((2,), (1,))


@pytest.mark.parametrize(
    "lam",
    [
        (1,) * 8, (2, 2, 2, 1, 1), (3, 3, 1, 1, 1, 1), (4, 2, 2, 1, 1, 1, 1),
        # weight 15, past the weights the matrix checks of verify reach
        (3, 3, 2, 2, 1, 1), (5, 4, 3, 2, 1),
    ],
)
def test_sub_multiset_blocks_match_index_subsets(lam):
    # repeated parts are where a block stands for several slot subsets
    fresh = CoeffTable()
    memo = {}
    multi = [mu for mu in partitions_of(sum(lam)) if len(mu) > 1]
    for mu in multi:
        assert fresh.b_lambda_mu(lam, mu) == b_lambda_mu_subsets(lam, mu, fresh.b_lambda_n, memo)
    assert any(fresh.b_lambda_mu(lam, mu) for mu in multi if mu != lam)


def test_b_diagonal_is_sym_times_product(table):
    for lam in [(1, 1), (2, 1), (2, 2), (3, 1, 1)]:
        expected = Fraction(sym_count(lam))
        for part in lam:
            expected *= b_single(part)
        assert table.b_lambda_mu(lam, lam) == expected


def test_order_independence_small(table):
    for lam in [(2, 1), (3, 1), (2, 2), (2, 1, 1), (3, 2), (2, 2, 1)]:
        values = {table.b_extend(lam[:i] + lam[i + 1:], lam[i]) for i in range(len(lam))}
        assert len(values) == 1
        assert values.pop() == table.b_lambda_n(lam)


def peels_through(weight):
    # every distinct peel (rest, part) of a partition of weight <= `weight`
    return sorted({(lam[:i] + lam[i + 1:], lam[i]) for w in range(1, weight + 1)
                   for lam in partitions_of(w) for i in range(len(lam))})


def test_peel_kernel_matches_the_composition_oracle(monkeypatch):
    # the kernel regroups the sum over every composition by the partition of
    # its nonzero slots; the oracle walks every composition, zero b-entries
    # included.  q_eval is a pure function, so the oracle may memoize it
    monkeypatch.setattr(oracles, "q_eval", lru_cache(maxsize=None)(oracles.q_eval))
    fresh = CoeffTable()
    peels = peels_through(10)
    assert len(peels) == 284
    for rest, part in peels:
        assert fresh.b_extend(rest, part) == peel_by_compositions(rest, part, fresh.b_lambda_mu)


def test_peel_kernel_evaluates_each_key_once(monkeypatch):
    # a key (mu, k) owns the compositions with nonzero slots mu in 2k+1 slots,
    # so no point is evaluated twice when each key is evaluated once
    calls = Counter()
    production = coeffs.q_eval

    def counting(point):
        calls[point] += 1
        return production(point)

    monkeypatch.setattr(coeffs, "q_eval", counting)
    fresh = CoeffTable()
    table_document(8, fresh)
    assert len(fresh._kernels) == 44
    assert sum(calls.values()) == len(calls) == 244
    # peeling every part, not only the smallest, adds keys but repeats none
    for rest, part in peels_through(8):
        fresh.b_extend(rest, part)
    assert len(fresh._kernels) > 44 and max(calls.values()) == 1


def test_closed_pairs(table):
    assert closed_b_pair(1, 1) == Fraction(29, 720)
    assert closed_b_pair(2, 1) == Fraction(-19, 3360)
    assert closed_a_pair(1, 1) == 348
    for r in range(1, 4):
        for k in range(1, r + 1):
            assert table.b_lambda_n((r, k)) == closed_b_pair(r, k)
            # the (n, 1) form
            if k == 1:
                expected = Fraction(
                    -12 * a_single(r) - (2 * r + 5) * a_single(r + 1), sym_count((r, 1))
                )
                assert closed_a_pair(r, 1) == expected


def test_closed_a_pair_is_an_int(monkeypatch):
    # 2^(n+1) divides every a_n and Sym(r, k) <= 2, so the quotient is exact;
    # a divisor that leaves a remainder raises rather than round
    assert all(type(closed_a_pair(r, k)) is int for r in range(1, 40) for k in range(1, 40))
    monkeypatch.setattr(coeffs, "sym_count", lambda values: 7)
    with pytest.raises(ArithmeticError, match="divide"):
        closed_a_pair(1, 1)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_invert_rational_matrix():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = invert_rational_matrix(m)
    assert inv == [[1, -1], [-1, 2]]
    with pytest.raises(ValueError):
        invert_rational_matrix([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    with pytest.raises(ValueError):
        invert_rational_matrix([[Fraction(1), Fraction(0)]])


def test_invert_lower_triangular():
    m = [
        [Fraction(2), Fraction(0), Fraction(0)],
        [Fraction(1), Fraction(1, 3), Fraction(0)],
        [Fraction(0), Fraction(-4), Fraction(5)],
    ]
    inv = invert_lower_triangular(m)
    assert inv == [
        [Fraction(1, 2), 0, 0],
        [Fraction(-3, 2), 3, 0],
        [Fraction(-6, 5), Fraction(12, 5), Fraction(1, 5)],
    ]
    assert inv == invert_rational_matrix(m)
    assert invert_lower_triangular([]) == []
    with pytest.raises(ValueError, match="matrix is singular"):
        invert_lower_triangular([[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]])
    with pytest.raises(ValueError):
        invert_lower_triangular([[Fraction(1), Fraction(0)]])
    with pytest.raises(ValueError):
        invert_lower_triangular([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]])


def test_a_rows_are_integers_times_sym():
    # a row holds Sym(lam) a_lam^mu as ints, and the public values divide it back
    fresh = CoeffTable()
    for lam in partitions_of(8):
        row = fresh._a_row(lam)
        assert all(type(value) is int and value for value in row.values())
        assert list(row) == sorted(row, key=partition_order)
        assert fresh.witten_expansion(lam) == {
            mu: Fraction(value, sym_count(lam)) for mu, value in row.items()}
    # a-rows built before their b-rows pull the b one-part entries themselves,
    # a path verify never takes: the forward-substitution oracle checks it
    for n in range(11):
        assert fresh.a_matrix(n) == invert_lower_triangular(fresh.b_matrix(n))


def test_row_memos_share_one_key_per_partition():
    # the b-rows and a-rows, and the memos over them, key each partition by
    # one tuple object per table
    fresh = CoeffTable()
    table_document(10, fresh)
    keys = {}
    for memo in (fresh._brows, fresh._arows):
        for lam, row in memo.items():
            for key in (lam, *row):
                assert keys.setdefault(key, key) is key
    for key in fresh._scales:
        assert keys.setdefault(key, key) is key
    assert len(keys) == sum(len(partitions_of(w)) for w in range(1, 11))


def test_non_integral_a_row_raises(monkeypatch, tmp_path, capsys):
    # a 7 in the scales prod_i a_{mu_i} puts one into the one-part b entries
    # b_mu^(n) that the a.b = 1 dot product divides by: the integer division
    # raises rather than round, and the table command exits 6 having printed
    # and cached nothing
    from kcycles import cli

    production = CoeffTable._scale

    def sevenfold(self, lam):
        a_scale, df_scale = production(self, lam)
        return 7 * a_scale, df_scale

    monkeypatch.setattr(CoeffTable, "_scale", sevenfold)
    with pytest.raises(ArithmeticError, match=r"Sym\(1, 1\) a\(1, 1\)\^\(2,\) is not an integer"):
        CoeffTable().a_lambda_mu((1, 1), (2,))
    monkeypatch.setattr(coeffs, "_shared", CoeffTable())
    cache = tmp_path / "cache"
    assert cli.main(["--cache-dir", str(cache), "table", "--weight", "4"]) == cli.EXIT_ARITH
    out, err = capsys.readouterr()
    assert out == "" and "not an integer" in err
    assert not cache.exists() or not any(cache.iterdir())


def test_non_integral_b_row_raises(monkeypatch, tmp_path, capsys):
    # q_eval / 7 puts a 7 into every peel kernel's denominator, so the
    # scaled one-part b entries leave a remainder: the checked division
    # raises rather than round, and the table command exits 6 having printed
    # and cached nothing
    from kcycles import cli

    production = coeffs.q_eval
    monkeypatch.setattr(coeffs, "q_eval", lambda point: production(point) / 7)
    with pytest.raises(ArithmeticError, match=r"the scaled b\(1, 1\)\^\(2,\) is not an integer"):
        CoeffTable().b_lambda_mu((1, 1), (2,))
    monkeypatch.setattr(coeffs, "_shared", CoeffTable())
    cache = tmp_path / "cache"
    assert cli.main(["--cache-dir", str(cache), "table", "--weight", "4"]) == cli.EXIT_ARITH
    out, err = capsys.readouterr()
    assert out == "" and "is not an integer" in err
    assert not cache.exists() or not any(cache.iterdir())


def test_int_b_rows_match_the_fraction_route():
    # every b-row of weight <= 14 holds ints, and divided by its scale it is
    # the row of the Fraction route that the int route replaced, entry by entry
    fresh, rows, kernels = CoeffTable(), {}, {}
    count = 0
    for w in range(15):
        for lam in partitions_of(w):
            row = fresh._b_row(lam)
            assert all(type(value) is int for value in row.values())
            a_scale = fresh._scale(lam)[0]
            assert {nu: Fraction(value, a_scale * fresh._scale(nu)[1])
                    for nu, value in row.items()} == oracles.b_row_fractions(lam, rows, kernels)
            count += 1
    assert count == 508


def test_matrix_weight_one(table):
    assert table.b_matrix(1) == [[Fraction(1, 12)]]
    assert table.a_matrix(1) == [[12]]


def test_matrix_duality(table):
    for n in range(1, 6):
        b = table.b_matrix(n)
        a = table.a_matrix(n)
        size = len(b)
        for i in range(size):
            for j in range(size):
                entry = sum(b[i][k] * a[k][j] for k in range(size))
                assert entry == (1 if i == j else 0)


def test_matrix_triangular_by_parts(table):
    # b vanishes whenever the superscript has more parts than the subscript
    for n in range(1, 6):
        parts = partitions_of(n)
        b = table.b_matrix(n)
        for i, lam in enumerate(parts):
            for j, mu in enumerate(parts):
                if len(mu) > len(lam):
                    assert b[i][j] == 0


def test_a_diagonal_leading_coefficient(table):
    for n in range(1, 6):
        parts = partitions_of(n)
        a = table.a_matrix(n)
        for i, lam in enumerate(parts):
            expected = Fraction(1, sym_count(lam))
            for part in lam:
                expected *= a_single(part)
            assert a[i][i] == expected


def test_witten_expansion(table):
    assert table.witten_expansion((1, 1, 1)) == {
        (1, 1, 1): 288,
        (2, 1): 4176,
        (3,): 20736,
    }
    assert table.witten_expansion((2,)) == {(2,): -120}
    assert table.witten_expansion(()) == {(): 1}
    assert table.witten_expansion((1, 1)) == {(1, 1): 72, (2,): 348}
    # two-part rows match the closed pair form
    for r, k in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        row = table.witten_expansion((r, k))
        assert row[(r + k,)] == closed_a_pair(r, k)
        assert row[tuple(sorted((r, k), reverse=True))] == Fraction(
            a_single(r) * a_single(k), sym_count((r, k))
        )


# ---------------------------------------------------------------------------
# cup products
# ---------------------------------------------------------------------------

def test_cup_anchor(table):
    assert table.cup_coeff((1,), (1,)) == {(1, 1): 2, (2,): Fraction(29, 5)}


def test_cup_identity_and_symmetry(table):
    assert table.cup_coeff((1,), ()) == {(1,): 1}
    assert table.cup_coeff((), (2,)) == {(2,): 1}
    for lam, mu in [((1,), (2,)), ((1, 1), (1,)), ((2,), (2,))]:
        assert table.cup_coeff(lam, mu) == table.cup_coeff(mu, lam)


def test_cup_weights(table):
    terms = table.cup_coeff((1,), (2,))
    assert terms
    assert all(sum(nu) == 3 for nu in terms)


def test_cup_consistency_with_kappa_expansion(table):
    # recompute the cup terms from scratch through the kappa expansion:
    # expand both factors, multiply the kappa-monomials, convert back via b;
    # repeated parts are where a factor's Sym is not 1
    for lam, mu in [((1,), (2,)), ((1, 1), (1,)), ((2, 2), (1, 1, 1))]:
        recovered = {}
        for alpha, a1 in table.witten_expansion(lam).items():
            for beta, a2 in table.witten_expansion(mu).items():
                joined = tuple(sorted(alpha + beta, reverse=True))
                for nu in partitions_of(sum(lam) + sum(mu)):
                    val = table.b_lambda_mu(joined, nu)
                    if val:
                        recovered[nu] = recovered.get(nu, Fraction(0)) + a1 * a2 * val
        assert {k: v for k, v in recovered.items() if v} == table.cup_coeff(lam, mu)


# ---------------------------------------------------------------------------
# degenerate case
# ---------------------------------------------------------------------------

def test_degenerate_pure_zero():
    for m in range(7):
        for n in range(7):
            expected = Fraction(factorial(n) * stirling_second(m, n), (-2) ** m)
            assert degenerate_b((), m, (), n) == expected


def test_degenerate_examples(table):
    for k in range(1, 4):
        assert degenerate_b((k,), 1, (k,), 0) == Fraction(-(2 * k + 1), 2) * b_single(k)
    assert degenerate_b((2, 1), 0, (3,), 0) == table.b_lambda_mu((2, 1), (3,))
    assert degenerate_b((1,), 1, (1,), 2) == 0  # q > p
    assert degenerate_a((), 0, (), 0) == 1
    assert degenerate_a((1,), 0, (1,), 0) == 12
    assert degenerate_a((1,), 1, (1,), 2) == 0  # i > m
    with pytest.raises(ValueError):
        degenerate_b((1,), 1, (2,), 0)


def test_degenerate_methods_on_a_fresh_table():
    fresh = CoeffTable()
    for weight in range(4):
        index = [(lam, p) for lam in partitions_of(weight) for p in range(4)]
        for lam, p in index:
            for mu, q in index:
                assert fresh.degenerate_b(lam, p, mu, q) == degenerate_b(lam, p, mu, q)
                assert fresh.degenerate_a(lam, p, mu, q) == degenerate_a(lam, p, mu, q)
    # a weight mismatch raises even where the padding alone gives zero
    for table in (fresh, shared_table()):
        with pytest.raises(ValueError, match="weight mismatch"):
            table.degenerate_b((1,), 2, (2,), 3)  # q > p
        with pytest.raises(ValueError, match="weight mismatch"):
            table.degenerate_a((1,), 1, (2,), 2)  # i > m


def test_degenerate_a_pure_zero():
    from kcycles.exact import stirling_first_signed

    for m in range(6):
        for i in range(m + 1):
            expected = Fraction(stirling_first_signed(m, i) * (-2) ** i, factorial(m))
            assert degenerate_a((), m, (), i) == expected


@pytest.mark.parametrize("weight", [0, 1, 2, 3])
def test_degenerate_mutual_inverse(weight, table):
    pad = 3
    index = [(lam, p) for lam in partitions_of(weight) for p in range(pad + 1)]
    size = len(index)
    b = [[table.degenerate_b(l, p, m, q) for (m, q) in index] for (l, p) in index]
    a = [[table.degenerate_a(l, p, m, q) for (m, q) in index] for (l, p) in index]
    for i in range(size):
        for j in range(size):
            ba = sum(b[i][k] * a[k][j] for k in range(size))
            ab = sum(a[i][k] * b[k][j] for k in range(size))
            assert ba == (1 if i == j else 0)
            assert ab == (1 if i == j else 0)


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

def test_table_document():
    doc = table_document(1)
    assert doc == {
        "version": 1,
        "weight": 1,
        "order": [[1]],
        "b": [["1/12"]],
        "a": [["12"]],
    }
    doc3 = table_document(3)
    parts = doc3["order"]
    assert parts == [[3], [2, 1], [1, 1, 1]]
    row = parts.index([1, 1, 1])
    assert doc3["b"][row][parts.index([3])] == "263/6720"
    assert doc3["a"][row] == ["20736", "4176", "288"]
    assert partition_key((1, 2)) == "2,1"  # the key form of exported documents


def test_isolated_table_instance():
    fresh = CoeffTable()
    assert fresh.b_lambda_n((1, 1)) == Fraction(29, 720)


def b_memo_entries(table):
    # every stored b value, none of them zero
    values = [v for row in table._brows.values() for v in row.values()]
    assert all(values)
    return len(values)


def test_single_a_coefficient_reads_its_coarsenings_only():
    # a_(9,9)^(18) needs the rows of (9,9) and (18) only, not the weight-18
    # matrix; `coeff a --lambda 9,9` prints this value
    fresh = CoeffTable()
    value = fresh.a_lambda_mu((9, 9), (18,))
    assert value == closed_a_pair(9, 9) == 83841549449967559011041280000
    assert b_memo_entries(fresh) < 100
    # 2^9 has 30 coarsenings; a memo keyed by every (lam, mu) asked held 6,665
    fresh = CoeffTable()
    assert fresh.a_lambda_mu((2,) * 9, (18,))
    assert b_memo_entries(fresh) < 1000


def test_concurrent_table_access():
    # the recursive b-row memo and a-row memo fill from many threads at once,
    # switching often
    import sys
    import threading

    serial = CoeffTable()
    expected = (serial.a_matrix(7), serial.b_matrix(7))
    fresh = CoeffTable()
    results = []

    def worker():
        results.append((fresh.a_matrix(7), fresh.b_matrix(7)))

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
    assert len(results) == 8
    assert all(rows == expected for rows in results)


# sha256 of canonical_json(table_document(w)) for w = 0..14: the exported
# bytes that no change to how the tables are computed may alter
TABLE_DIGESTS = [
    "370a3796c58f6b89a5ef3f42851dc6cf2ed7539651912fb086beea603e4116f0",
    "fc3b8cefd98f6173480e4f4eba8ed20d965d3424c5d2f9c5bd725be7e2fcee5a",
    "46168d1f4401dc82ef424c56e4e03f5f8a807d5155021d481b42ce8aa1eabf4a",
    "9100e739e8a8834e50db8dd61037c8bae62587d3c306793b1f6cd03634d6ffd3",
    "048d89ed7782ac44e9c3e04ea7e87f155bc14f7c6f30aef54d2df4507dec1172",
    "e64be020d3f3e82bc3f1e18b2bacd52c27d3a0b7ea77fcb8eb380e1a030c95b1",
    "333b2e4223d8a8665123274903a14395bbb018aee4dac6a052d1d1a86eee5a8d",
    "68fd2f4cfb48cdcb2dd322c11d267928e8c6a7d618b1450a2e6dfc87d4fa92ee",
    "db1d05d10ccb9e99b22ecd561d928facc86a79c5f4f9c791f7937898c48fedde",
    "5631e434b1c173c0fd4a2fd550b24d2fbe25daa91285892002ea70f9000a3fda",
    "0969832d5366e978d57c9f279051ee2f76321406f5fd7ca1c8e31cd523ab22d0",
    "c1028ac739b8535bc5e4e6bbcefcec101f3b8cc5ef4e1cefb761ec08eb882c8e",
    "a832d0bbe0c0ae92321745bc14be1fa9e8dcc55b1d030ee5a9684db60a12d794",
    "51aed20fb2f1f498d34f376a6373e97e2651a380b8571a5ac286869f92b3e8f9",
    "4a7786a8a5a015fbc75ee345ec0cde473292bcf6b9c8779a7b2b25f551cfb5e5",
]


def test_table_document_bytes_pinned():
    from hashlib import sha256

    from kcycles.cache import canonical_json

    fresh = CoeffTable()
    digests = [
        sha256(canonical_json(table_document(w, fresh)).encode()).hexdigest()
        for w in range(len(TABLE_DIGESTS))
    ]
    assert digests == TABLE_DIGESTS
