"""Exhaustive enumeration oracles: increasing trees, cyclic shuffles,
ordinary shuffle sign sums, permutation cycle statistics and
compositions, plus the routes the production code replaced and which now
check it: the P-family recursion on MultiPoly in z and in x coordinates,
the b sum over index subsets, the peel over every composition, the
b-rows over the rationals, and Gauss-Jordan and whole-matrix forward
substitution over the rationals.

The enumerations are deliberately written from first definitions
(explicit words, inversion counts, full enumeration) so they can serve as
an independent check on the closed forms and recursions elsewhere in the
package.  Costs are factorial; caps guard every enumeration and exceeding
one raises EnumerationCapError rather than truncating silently.

Sign conventions.  A word is scored against the canonical letter order
that lists kinds in increasing order and, inside a kind, indices in
increasing order.  The orientation of a word is its parity as a
permutation of that canonical order; a selected sign (one letter chosen
per kind) is the parity of the chosen letters' appearance order relative
to the kind order.  These conventions are pinned down empirically by three
redundant identities that the test suite enforces: the shuffle sum equals
the first kind size times the increasing-tree generating function, the
three-kind sum factors as n0*(n0+n1)*n2, and the all-ones total is (2k)!.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .caps import (
    DEFAULT_COUNTING_CAP,
    DEFAULT_CYCLE_CAP,
    DEFAULT_LETTER_CAP,
    DEFAULT_SHUFFLE_CAP,
    DEFAULT_TREE_CAP,
    SIGN_SUM_VARIANTS,
    EnumerationCapError,
)
from .coeffs import _surjection_sums, b_single
from .exact import (
    Coeff, MultiPoly, arrangements, check_odd_tuple, double_factorial, normalize_partition,
)
from .treepoly import PFamily, _p_step, q_eval


# ---------------------------------------------------------------------------
# increasing trees
# ---------------------------------------------------------------------------

def enumerate_increasing_trees(k: int, cap: int | None = None) -> Iterator[tuple]:
    """All increasing trees on vertices 0..2k as parent tuples.

    A tree is the tuple (None, p1, ..., p_{2k}) with parent p_i < i; vertex
    i chooses its parent among 0..i-1 independently, so there are exactly
    (2k)! trees.
    """
    cap = DEFAULT_TREE_CAP if cap is None else cap
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if k > cap:
        raise EnumerationCapError("tree level k =", k, cap, "--cap-trees/KCYCLES_CAPS")
    if k == 0:
        yield (None,)
        return
    for parents in itertools.product(*[range(i) for i in range(1, 2 * k + 1)]):
        yield (None,) + parents


def tree_monomial(tree: Sequence) -> tuple[int, ...]:
    """Exponent vector of the tree: entry i counts even-sized components of T - {i}.

    Removing vertex i splits the tree into its child subtrees plus (for
    i != 0) the complement of the subtree under i.  Each edge therefore
    feeds exactly one component, and with an odd vertex total exactly one
    side of each edge is even, so the exponents sum to the edge count 2k.
    """
    n = len(tree)
    sizes = [1] * n
    for v in range(n - 1, 0, -1):
        sizes[tree[v]] += sizes[v]
    exps = [0] * n
    for v in range(1, n):
        if sizes[v] % 2 == 0:
            exps[tree[v]] += 1  # subtree under v is the even component at its parent
        else:
            exps[v] += 1        # complement of the subtree is even at v itself
    return tuple(exps)


def reduced_tree_poly_bruteforce(k: int, cap: int | None = None) -> MultiPoly:
    """Sum of tree monomials over all (2k)! increasing trees on 0..2k."""
    store: dict[tuple[int, ...], int] = {}
    for tree in enumerate_increasing_trees(k, cap):
        exps = tree_monomial(tree)
        store[exps] = store.get(exps, 0) + 1
    return MultiPoly(2 * k + 1, store)


# ---------------------------------------------------------------------------
# cyclic shuffles
# ---------------------------------------------------------------------------

def enumerate_cyclic_shuffles(
    kinds: Sequence[int], cap: int | None = None
) -> Iterator[tuple[tuple[int, int], ...]]:
    """All cyclic shuffles of the given alphabet as words of (kind, index) letters.

    The word starts as the kind-0 letters in order; each later kind is
    inserted as one contiguous block after any existing letter (later
    blocks may land inside earlier ones).  The insertion process yields
    each word exactly once, n0*(n0+n1)*...*(n0+...+n_{2k-1}) in total.
    Any positive sizes enumerate; parity only matters to the sign theory.
    """
    cap = DEFAULT_LETTER_CAP if cap is None else cap
    kinds = tuple(kinds)
    if not kinds or any(not isinstance(n, int) or n < 1 for n in kinds):
        raise ValueError(f"kind sizes must be positive integers, got {kinds}")
    total = sum(kinds)
    if total > cap:
        raise EnumerationCapError(
            "total letter count", total, cap, "--cap-letters/KCYCLES_CAPS"
        )

    def insert_from(word: tuple, kind: int) -> Iterator[tuple]:
        if kind == len(kinds):
            yield word
            return
        block = tuple((kind, i) for i in range(1, kinds[kind] + 1))
        for pos in range(1, len(word) + 1):
            yield from insert_from(word[:pos] + block + word[pos:], kind + 1)

    first = tuple((0, i) for i in range(1, kinds[0] + 1))
    yield from insert_from(first, 1)


def _inversion_sign(seq: Sequence[int]) -> int:
    inversions = 0
    for a in range(len(seq)):
        sa = seq[a]
        for b in range(a + 1, len(seq)):
            if sa > seq[b]:
                inversions += 1
    return -1 if inversions % 2 else 1


def oriented_sign_sum(word: Sequence[tuple[int, int]], kinds: Sequence[int]) -> int:
    """Orientation of the word times the sum of all selected signs.

    The sum ranges over every way of selecting one letter per kind; it has
    prod(kinds) terms and is divisible by the last kind size, because a
    selected sign never depends on which last-kind letter was chosen.
    """
    kinds = tuple(kinds)
    offsets = [0]
    for n in kinds:
        offsets.append(offsets[-1] + n)
    canonical = [offsets[kind] + index - 1 for kind, index in word]
    orientation = _inversion_sign(canonical)

    positions: list[list[int]] = [[] for _ in kinds]
    for pos, (kind, _) in enumerate(word):
        positions[kind].append(pos)
    sign_sum = 0
    for selection in itertools.product(*positions):
        sign_sum += _inversion_sign(selection)
    return orientation * sign_sum


def tree_poly_bruteforce(kinds: Sequence[int], cap: int | None = None) -> int:
    """Sum of oriented sign sums over every cyclic shuffle of the alphabet."""
    kinds = check_odd_tuple(kinds)
    return sum(
        oriented_sign_sum(word, kinds) for word in enumerate_cyclic_shuffles(kinds, cap)
    )


def _p_family_by_multipoly(k: int, in_x: bool) -> list[MultiPoly]:
    # _p_step on MultiPoly values, one level at a time; element s is
    # P_k^{2s+1}, in the partial sums z_i or, if in_x, in x with z_i = x0 +
    # ... + x_i as sums of variables
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    family = [MultiPoly.constant(1, 1)]
    for j in range(k):
        n = 2 * j + 3
        z = [MultiPoly.variable(n, i) for i in range(n)]
        if in_x:
            z = list(itertools.accumulate(z))
        family = _p_step([p.extended(n) for p in family], *z[-3:])
    return family


def p_family_x(k: int) -> PFamily:
    """The level-k P-family by the recursion run directly in x coordinates:
    _p_step on MultiPoly values, with z_i = x0 + ... + x_i as sums of
    variables.  The oracle of the walk's change of coordinates (see
    verify.check_p_family_coordinates); nothing is cached.
    """
    return PFamily(k, {2 * s + 1: p for s, p in enumerate(_p_family_by_multipoly(k, True))})


def p_family_z(k: int) -> list[MultiPoly]:
    """The level-k P-family in partial-sum coordinates by MultiPoly
    arithmetic: _p_step on the variables z_i, one level at a time, element s
    P_k^{2s+1}.  The oracle of treepoly._z_sum, which reads the level off
    its words of moves; nothing is cached.
    """
    return _p_family_by_multipoly(k, False)


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------

def compositions(m: int, slots: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of `slots` nonnegative ints summing to m; the
    oracle of exact.arrangements.

    Deterministic order: first slot descending, then recursively the rest.
    Yields binomial(m + slots - 1, slots - 1) tuples.
    """
    if m < 0 or slots < 1:
        raise ValueError(f"need m >= 0 and slots >= 1, got m={m}, slots={slots}")
    if slots == 1:
        yield (m,)
        return
    for first in range(m, -1, -1):
        for rest in compositions(m - first, slots - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# conversion coefficients
# ---------------------------------------------------------------------------

def b_lambda_mu_subsets(
    lam: Sequence[int],
    mu: Sequence[int],
    one_part: Callable[[tuple[int, ...]], Fraction],
    memo: dict,
) -> Fraction:
    """b_lam^mu by the sum over all 2^n - 1 nonempty index subsets of the n
    part slots of lam as the block sent to mu[0].

    Equal parts in distinct slots count separately, and no entry is assumed
    to vanish.  One-part superscripts come from one_part(lam), the value
    b_lam^|lam|; `memo` keeps multi-part values between calls.
    """
    lam = normalize_partition(lam)
    mu = normalize_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"weight mismatch: |{lam}| != |{mu}|")

    def b(lam: tuple[int, ...], mu: tuple[int, ...]) -> Fraction:
        if not mu:
            return Fraction(1)
        if len(mu) == 1:
            return one_part(lam)
        if (lam, mu) not in memo:
            value = Fraction(0)
            n = len(lam)
            for bits in range(1, 1 << n):
                block = tuple(lam[i] for i in range(n) if bits >> i & 1)
                if sum(block) != mu[0]:
                    continue
                factor = b(block, mu[:1])
                if factor:
                    rest = tuple(lam[i] for i in range(n) if not bits >> i & 1)
                    value += factor * b(rest, mu[1:])
            memo[lam, mu] = value
        return memo[lam, mu]

    return b(lam, mu)


def peel_by_compositions(
    lam: Sequence[int], k: int, b_entry: Callable[[tuple[int, ...], tuple[int, ...]], Fraction]
) -> Fraction:
    """The peel b of lam + {k} with one-part superscript, as one sum over
    every composition (m0..m_{2k}) of sum(lam) into 2k+1 slots of
    b_entry(lam, mu) (2m0+1)/(2m0+3) q_eval(2m0+3, 2m1+1, ..., 2m_{2k}+1),
    mu the partition of the nonzero slots, divided by (-2)^(k+1) (2k-1)!!.

    This is the per-lam sum that the peel kernel of coeffs regroups by mu;
    no entry b_lam^mu is assumed to vanish.
    """
    if k < 1:
        raise ValueError(f"need a peeled part k >= 1, got {k}")
    lam = normalize_partition(lam)
    total = Fraction(0)
    for comp in compositions(sum(lam), 2 * k + 1):
        mu = normalize_partition(x for x in comp if x)
        point = (2 * comp[0] + 3,) + tuple(2 * x + 1 for x in comp[1:])
        total += b_entry(lam, mu) * Fraction(2 * comp[0] + 1, 2 * comp[0] + 3) * q_eval(point)
    return total / ((-2) ** (k + 1) * double_factorial(2 * k - 1))


def b_row_fractions(
    lam: tuple[int, ...], rows: dict, kernels: dict
) -> dict[tuple[int, ...], Fraction]:
    """lam's b-row over the rationals, nonzero entries only, by the route
    that coeffs.CoeffTable._b_row replaced, and its oracle.

    The entry at nu = (n) is b_n if lam = (n), else the peel of the
    smallest part k off lam = rest + {k}: the Fraction sum over rest's row
    of b_rest^mu K(mu, k), with each peel kernel K(mu, k) a Fraction sum of
    q_eval values, divided by (-2)^(k+1) (2k-1)!!.  The other entries are
    coeffs._surjection_sums of these rows.  `rows` and `kernels` keep the
    rows and kernels built so far between calls.
    """
    row = rows.get(lam)
    if row is None:
        if len(lam) < 2:
            acc = {lam: b_single(lam[0]) if lam else Fraction(1)}
        else:
            rest, k = lam[:-1], lam[-1]
            total = Fraction(0)
            for mu, value in b_row_fractions(rest, rows, kernels).items():
                if len(mu) <= 2 * k + 1:
                    if (mu, k) not in kernels:
                        kernels[mu, k] = sum(
                            (Fraction(2 * comp[0] + 1, 2 * comp[0] + 3)
                             * q_eval((2 * comp[0] + 3,) + tuple(2 * x + 1 for x in comp[1:]))
                             for comp in arrangements(mu, 2 * k + 1)),
                            Fraction(0))
                    total += value * kernels[mu, k]
            acc = {(sum(lam),): total / ((-2) ** (k + 1) * double_factorial(2 * k - 1))}
        acc.update(_surjection_sums(lam, lambda part: b_row_fractions(part, rows, kernels)))
        row = rows[lam] = {nu: value for nu, value in acc.items() if value}
    return row


def invert_rational_matrix(rows: Sequence[Sequence[Coeff]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination over the rationals."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    work = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col]), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [x / pivot for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                scale = work[r][col]
                work[r] = [x - scale * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def invert_lower_triangular(rows: Sequence[Sequence[Coeff]]) -> list[list[Fraction]]:
    """Exact inverse of a lower-triangular matrix by forward substitution.

    Row i of the inverse is (e_i - sum over k < i of rows[i][k] times row k
    of the inverse) / rows[i][i], summed over the nonzero entries only.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    if any(rows[i][j] for i in range(n) for j in range(i + 1, n)):
        raise ValueError("matrix must be lower triangular")
    inverse: list[list[Fraction]] = []
    for i, row in enumerate(rows):
        pivot = row[i]
        if not pivot:
            raise ValueError("matrix is singular")
        acc = [Fraction(0)] * n
        acc[i] = Fraction(1)
        for k in range(i):
            scale = row[k]
            if scale:
                for j, value in enumerate(inverse[k][: k + 1]):
                    if value:
                        acc[j] -= scale * value
        inverse.append([x / pivot for x in acc])
    return inverse


# ---------------------------------------------------------------------------
# plain shuffles of two letters
# ---------------------------------------------------------------------------

def _shuffle_words(n: int, m: int) -> Iterator[tuple[str, ...]]:
    # interleavings of n 'a's with m 'b's, both in fixed internal order
    for a_slots in itertools.combinations(range(n + m), n):
        chosen = set(a_slots)
        yield tuple("a" if p in chosen else "b" for p in range(n + m))


def _oriented_a_sum(word: Sequence[str]) -> int:
    """sgn(word) * sum over a-letters of the sign of (that a, all the b's)."""
    # parity vs the canonical order a1..an b1..bm: one inversion per (b, a) pair;
    # the selected sign of an a-letter is (-1)^(number of b's before it)
    inversions = 0
    selected = 0
    b_seen = 0
    for t in word:
        if t == "b":
            b_seen += 1
        else:
            inversions += b_seen
            selected += -1 if b_seen % 2 else 1
    return (-1 if inversions % 2 else 1) * selected


def shuffle_sign_sum_bruteforce(
    variant: str, n: int, m: int, cap: int | None = None
) -> int:
    """Exact oriented sign sum over a family of two-letter shuffles.

    X0 shuffles a1..an with b1..bm; X1 adds a fixed leading a-letter; X2
    adds a fixed leading and a fixed trailing a-letter.  In each case the
    inner sum selects one a-letter together with all the b's.
    """
    cap = DEFAULT_SHUFFLE_CAP if cap is None else cap
    if variant not in SIGN_SUM_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {SIGN_SUM_VARIANTS}")
    if n < 0 or m < 0:
        raise ValueError(f"need n, m >= 0, got ({n}, {m})")
    if n + m > cap:
        raise EnumerationCapError("shuffle size n + m =", n + m, cap,
                                  "cap= of kcycles.oracles.shuffle_sign_sum_bruteforce")
    total = 0
    for core in _shuffle_words(n, m):
        if variant == "X0":
            word = core
        elif variant == "X1":
            word = ("a",) + core
        else:
            word = ("a",) + core + ("a",)
        total += _oriented_a_sum(word)
    return total


# ---------------------------------------------------------------------------
# counting identity and cycle statistics
# ---------------------------------------------------------------------------

def counting_identity_bruteforce(n: int, s: int, cap: int | None = None) -> int:
    """Sum over z in {1..n}^s of (-1)^(z1+...+zs) * (B(z) - A(z)).

    For j in 1..n let c(j) be the number of indices i with j <= z_i; A
    counts the j with c(j) odd and B those with c(j) even.
    """
    cap = DEFAULT_COUNTING_CAP if cap is None else cap
    if n < 1 or s < 0:
        raise ValueError(f"need n >= 1 and s >= 0, got ({n}, {s})")
    if n ** s > cap:
        raise EnumerationCapError("grid size n**s =", n ** s, cap,
                                  "cap= of kcycles.oracles.counting_identity_bruteforce")
    total = 0
    for z in itertools.product(range(1, n + 1), repeat=s):
        balance = 0
        for j in range(1, n + 1):
            c = sum(1 for zi in z if j <= zi)
            balance += -1 if c % 2 else 1  # B - A, one j at a time
        total += balance if sum(z) % 2 == 0 else -balance
    return total


def counting_identity_closed(n: int, s: int) -> int:
    """Closed form of the counting identity.

    For s = 0 the grid is the single empty tuple and the value is n
    regardless of parity (every count c(j) is 0, hence even); for s >= 1
    it is 1 when s and n are both odd, n when s is even and n odd, and
    (n/2)*(-2)^s when n is even.
    """
    if n < 1 or s < 0:
        raise ValueError(f"need n >= 1 and s >= 0, got ({n}, {s})")
    if s == 0:
        return n
    if n % 2 == 0:
        return (n // 2) * (-2) ** s
    return 1 if s % 2 else n


def even_cycle_histogram(two_k: int, cap: int | None = None) -> list[int]:
    """Entry i counts the permutations of {1..2k} with exactly i even-length cycles.

    The counts are the coefficients of (2k-1)!! (x+1)(x+3)...(x+2k-1), so
    they sum to (2k)!.
    """
    cap = DEFAULT_CYCLE_CAP if cap is None else cap
    if two_k < 0 or two_k % 2:
        raise ValueError(f"need an even degree >= 0, got {two_k}")
    if two_k > cap:
        raise EnumerationCapError("permutation degree", two_k, cap,
                                  "cap= of kcycles.oracles.even_cycle_histogram")
    counts = [0] * (two_k // 2 + 1)
    for perm in itertools.permutations(range(two_k)):
        seen = [False] * two_k
        even_cycles = 0
        for start in range(two_k):
            if seen[start]:
                continue
            length = 0
            v = start
            while not seen[v]:
                seen[v] = True
                v = perm[v]
                length += 1
            if length % 2 == 0:
                even_cycles += 1
        counts[even_cycles] += 1
    return counts


def even_cycle_closed_coeffs(two_k: int) -> list[int]:
    """Coefficient list of (2k-1)!! (x+1)(x+3)...(x+2k-1), constant term first."""
    if two_k < 0 or two_k % 2:
        raise ValueError(f"need an even degree >= 0, got {two_k}")
    coeffs = [double_factorial(two_k - 1)]
    for i in range(1, two_k // 2 + 1):
        shift = 2 * i - 1
        nxt = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j] += shift * c
            nxt[j + 1] += c
        coeffs = nxt
    return coeffs


__all__ = [
    "DEFAULT_TREE_CAP",
    "DEFAULT_LETTER_CAP",
    "DEFAULT_SHUFFLE_CAP",
    "DEFAULT_CYCLE_CAP",
    "DEFAULT_COUNTING_CAP",
    "SIGN_SUM_VARIANTS",
    "EnumerationCapError",
    "enumerate_increasing_trees",
    "tree_monomial",
    "reduced_tree_poly_bruteforce",
    "enumerate_cyclic_shuffles",
    "oriented_sign_sum",
    "tree_poly_bruteforce",
    "p_family_x",
    "p_family_z",
    "compositions",
    "b_lambda_mu_subsets",
    "peel_by_compositions",
    "b_row_fractions",
    "invert_rational_matrix",
    "invert_lower_triangular",
    "shuffle_sign_sum_bruteforce",
    "counting_identity_bruteforce",
    "counting_identity_closed",
    "even_cycle_histogram",
    "even_cycle_closed_coeffs",
]
