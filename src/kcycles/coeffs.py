"""Conversion coefficients between the dual Kontsevich cycle basis and
monomials in the adjusted Miller-Morita-Mumford classes.

Both bases are indexed by partitions of equal weight; the change-of-basis
matrices b (kappa-monomials expanded in dual cycles) and a (its inverse)
are exact rationals.  One-part coefficients are explicit:

    a_n = (-2)^(n+1) (2n+1)!!,   b_n = 1/a_n.

b_lambda^mu vanishes unless mu coarsens lambda, and a coarsening has
fewer parts or is lambda itself, so in partitions_of order (part count
first) the b-matrix is lower triangular and so is its inverse a.  One
surjection rule (CoeffTable._a_row) builds the rows of both from their
one-part entries: b_extend peels a part through a peel kernel on the b
side, and an integer dot product reads a.b = 1 on the a side.  Zero parts
(the degenerate weight-0 class) extend both matrices by Stirling-number
factors; see CoeffTable.degenerate_b and degenerate_a.

Both sides are built in ints.  An a-row holds Sym(lambda) a_lambda^mu.
A b-row holds b_lambda^nu prod_i a_{lambda_i} prod_j ((2nu_j+1)!!)^2, and
the public readers divide by that scale once.  That the scaled one-part
entries are integers is observed, for every lambda of weight <= 22, not
proven: the peel that builds each one divides with a checked divmod
(CoeffTable._b_row), as the a side's dot product does, and a remainder
raises ArithmeticError (exit 6 on the command line).

Every coefficient, the degenerate ones included, is a CoeffTable method,
and a CoeffTable memoizes everything behind a re-entrant lock.  The module
keeps one shared table, and the free names (b_lambda_mu, a_matrix,
cup_coeff, degenerate_b, ...) are its bound methods.
"""

from __future__ import annotations

import threading
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, gcd, lcm, prod
from typing import Callable, Iterable, Iterator, Sequence

from .cache import SCHEMA_VERSION
from .exact import (
    arrangements,
    double_factorial,
    format_rational,
    normalize_partition,
    partition_order,
    partitions_of,
    stirling_first_signed,
    stirling_second,
)
from .treepoly import q_eval

_ZERO = Fraction(0)


def a_single(n: int) -> int:
    """a_n = (-2)^(n+1) (2n+1)!!, the one-part expansion coefficient."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return (-2) ** (n + 1) * double_factorial(2 * n + 1)


def b_single(n: int) -> Fraction:
    """b_n = 1/a_n."""
    return Fraction(1, a_single(n))


def sym_count(values: Iterable[int]) -> int:
    """Number of permutations fixing the multiset: product of multiplicity factorials."""
    return prod(map(factorial, Counter(values).values()))


@lru_cache(maxsize=None)
def h_sequence(n: int) -> Fraction:
    """h(0) = 1 and h(n+1) = sum over a+b+c = n of h(a)h(b)h(c)(2a+1)(2c+1)/((2a+3)(n+1)).

    Normalizes the all-ones coefficients: b over the partition 1^n equals
    4^-n n! h(n).
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n == 0:
        return Fraction(1)
    prev = n - 1
    total = Fraction(0)
    for a in range(prev + 1):
        for b in range(prev + 1 - a):
            c = prev - a - b
            total += (
                h_sequence(a)
                * h_sequence(b)
                * h_sequence(c)
                * Fraction((2 * a + 1) * (2 * c + 1), (2 * a + 3) * (prev + 1))
            )
    return total


def closed_b_pair(r: int, k: int) -> Fraction:
    """Two-part closed form: b over (r,k) with superscript r+k is b_r b_k (2r+2k+3) + b_{r+k}."""
    if r < 1 or k < 1:
        raise ValueError(f"need r, k >= 1, got ({r}, {k})")
    return b_single(r) * b_single(k) * (2 * r + 2 * k + 3) + b_single(r + k)


def closed_a_pair(r: int, k: int) -> int:
    """Two-part closed form on the a side: -(a_r a_k + (2r+2k+3) a_{r+k}) / Sym(r, k).

    An int: 2^(n+1) divides every a_n and Sym(r, k) is 1 or 2, so the
    quotient is exact; raises ArithmeticError on a remainder.
    """
    if r < 1 or k < 1:
        raise ValueError(f"need r, k >= 1, got ({r}, {k})")
    value, rest = divmod(-(a_single(r) * a_single(k) + (2 * r + 2 * k + 3) * a_single(r + k)),
                         sym_count((r, k)))
    if rest:
        raise ArithmeticError(f"Sym({r}, {k}) does not divide the a_pair numerator")
    return value


def _same_weight(lam: Sequence[int], mu: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """lam and mu as partitions; ValueError unless they have one weight."""
    lam, mu = normalize_partition(lam), normalize_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"weight mismatch: |{lam}| != |{mu}|")
    return lam, mu


class CoeffTable:
    """Memoized b-rows and a-rows, both assembled by one surjection rule
    (_a_row), peel kernels (b_extend) and the b scale of each partition
    (_scale), one lock per table.

    Both kinds of row hold ints: an a-row holds Sym(lam) times a, and a
    b-row holds b times a scale that depends on the two partitions of the
    entry (_b_row).  Every public reader divides by that factor once, so
    it returns the same rationals.  Every b reader walks or indexes a
    b-row, and every a reader an a-row.  Reads after a memo is filled are
    cheap dictionary hits; filling takes the re-entrant lock, so a table
    can be shared between threads.  The memos key every partition by one
    tuple object per table.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._partitions: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._scales: dict[tuple[int, ...], tuple[int, int]] = {}
        self._brows: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        self._arows: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        self._kernels: dict[tuple[tuple[int, ...], int], tuple[int, int]] = {}

    # -- the b side ----------------------------------------------------------

    def _scale(self, lam: tuple[int, ...]) -> tuple[int, int]:
        """(prod_i a_{lam_i}, prod_i ((2 lam_i + 1)!!)^2), memoized per
        partition: b_lam^nu is scaled by the first of lam's pair times the
        second of nu's.  The caller holds the lock."""
        scale = self._scales.get(lam)
        if scale is None:
            scale = (prod(map(a_single, lam)),
                     prod(double_factorial(2 * part + 1) for part in lam) ** 2)
            self._scales[self._partitions.setdefault(lam, lam)] = scale
        return scale

    def _b_row(self, lam: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """The nonzero ints B_lam^nu = b_lam^nu prod_i a_{lam_i} prod_j ((2nu_j+1)!!)^2.

        The scale is a product over the slots of lam and of nu, so it splits
        along every map f of _a_row's rule, and the multi-part entries are
        _surjection_sums of the int rows of the blocks as they stand.  At
        nu = (n) the entry is ((2n+1)!!)^2 if lam = (n), else the peel of
        the smallest part k off lam = rest + {k}: (2k+1) ((2n+1)!!)^2 times
        the sum over rest's b-row of B_rest^mu K(mu, k) / prod_j
        ((2mu_j+1)!!)^2, one dot product over the lcm of its denominators
        (_peel_sum).  That this peel is an integer is observed (for every
        lam of weight <= 22), not proven, so its division is a checked
        divmod, and a remainder raises ArithmeticError.
        oracles.b_row_fractions builds the same rows over the rationals and
        is the oracle of this route.  The caller holds the lock and must
        not mutate the row.
        """
        row = self._brows.get(lam)
        if row is None:
            if len(lam) < 2:
                acc = {lam: self._scale(lam)[1]}
            else:
                one, k = (sum(lam),), lam[-1]
                num, den = self._peel_sum(lam[:-1], k)
                acc = {one: _quotient((2 * k + 1) * self._scale(one)[1] * num, den,
                                      "the scaled b{0}^{1}", lam, one)}
            acc.update(_surjection_sums(lam, self._b_row))
            key = self._partitions.setdefault
            row = {key(nu, nu): value for nu, value in acc.items() if value}
            self._brows[key(lam, lam)] = row
        return row

    def _peel_kernel(self, mu: tuple[int, ...], k: int) -> tuple[int, int]:
        # K(mu, k), the sum over the compositions with nonzero slots mu of
        # (2m0+1)/(2m0+3) q_eval(2m0+3, 2m1+1, ..., 2m_{2k}+1), as a reduced
        # (numerator, denominator), summed in ints over a running lcm; the
        # caller holds the lock
        key = mu, k
        value = self._kernels.get(key)
        if value is None:
            num, den = 0, 1
            for comp in arrangements(mu, 2 * k + 1):
                q_num, q_den = q_eval((2 * comp[0] + 3,) + tuple(2 * x + 1 for x in comp[1:])
                                      ).as_integer_ratio()
                q_den *= 2 * comp[0] + 3
                common = lcm(den, q_den)
                num = num * (common // den) + (2 * comp[0] + 1) * q_num * (common // q_den)
                den = common
            divisor = gcd(num, den)
            value = self._kernels[key] = (num // divisor, den // divisor)
        return value

    def _peel_sum(self, lam: tuple[int, ...], k: int) -> tuple[int, int]:
        # the sum over lam's b-row of B_lam^mu K(mu, k) / prod_j ((2mu_j+1)!!)^2
        # over the entries with at most 2k+1 parts, as (numerator, lcm of the
        # denominators); the caller holds the lock
        terms = []
        for mu, value in self._b_row(lam).items():
            if len(mu) <= 2 * k + 1:
                num, den = self._peel_kernel(mu, k)
                terms.append((value * num, den * self._scale(mu)[1]))
        den = lcm(*(den for _, den in terms))
        return sum(num * (den // term_den) for num, term_den in terms), den

    def b_extend(self, lam: Sequence[int], k: int) -> Fraction:
        """Peel step: the b-coefficient of lam + {k} with one-part superscript.

        Sums b_lam^mu * (2m0+1)/(2m0+3) * q_eval(2m0+3, 2m1+1, ..., 2m_{2k}+1)
        over all compositions (m0..m_{2k}) of sum(lam) into 2k+1 slots, where
        mu is the partition of the nonzero slots, then divides by
        (-2)^(k+1) (2k-1)!!.  The compositions of one mu add up to the peel
        kernel K(mu, k), which does not depend on lam and is memoized per
        table, so the peel is sum over lam's b-row of b_lam^mu K(mu, k) over
        the entries with at most 2k+1 parts, read off the int row and
        divided by its scale once.  oracles.peel_by_compositions is the sum
        over every composition, and the oracle of this one.
        """
        if k < 1:
            raise ValueError(f"need a peeled part k >= 1, got {k}")
        lam = normalize_partition(lam)
        with self._lock:
            num, den = self._peel_sum(lam, k)
            return Fraction(num, den * self._scale(lam)[0]
                            * (-2) ** (k + 1) * double_factorial(2 * k - 1))

    def b_lambda_n(self, lam: Sequence[int]) -> Fraction:
        """b of the partition lam with the one-part superscript sum(lam).

        This is the memoized b_lambda_mu(lam, (sum(lam),)), which peels the
        smallest part.  Peeling any other part k is b_extend of the rest and
        k; the order-independence checks compare those peels with this value
        rather than assume they agree.
        """
        lam = normalize_partition(lam)
        if not lam:
            raise ValueError("b_lambda_n needs a nonempty partition")
        return self.b_lambda_mu(lam, (sum(lam),))

    def b_lambda_mu(self, lam: Sequence[int], mu: Sequence[int]) -> Fraction:
        """One entry of lam's b-row, zero unless mu coarsens lam; a first
        query builds the whole row."""
        lam, mu = _same_weight(lam, mu)
        with self._lock:
            value = self._b_row(lam).get(mu)
            return _ZERO if value is None else Fraction(
                value, self._scale(lam)[0] * self._scale(mu)[1])

    # -- the a side and everything built on it --------------------------------

    def _a_row(self, lam: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """The ints A_lam^mu = Sym(lam) a_lam^mu in canonical order, nonzero entries only.

        b is the matrix of an algebra map, so its inverse a is one too, and
        both follow one rule over the maps f of lam's slots onto nu's slots
        whose blocks B_j sum to the parts nu_j: b_lam^nu = sum_f prod_j
        b_{B_j}^(nu_j) and Sym(nu) A_lam^nu = sum_f prod_j A_{B_j}^(nu_j).
        _surjection_sums assembles both.  Its rest rows hold A^rho, not
        Sym(rho) A^rho, so the a side divides each sum by Sym(nu)/Sym(rho),
        the multiplicity of nu[0] in nu.  At nu = (n) the entry is a_n if lam
        = (n), else row lam of a.b = 1: -a_n sum_{mu != (n)} A_lam^mu
        b_mu^(n), with b_mu^(n) = B_mu^(n) / (prod_i a_{mu_i} ((2n+1)!!)^2)
        read off the int b-rows (_b_row), one int dot product over the lcm
        of the prod_i a_{mu_i}.  A remainder in either division raises
        ArithmeticError.
        The checks matrix/duality and oracle/b-matrix compare the rows with
        forward substitution and Gauss-Jordan elimination over the rationals.
        The caller holds the lock and must not mutate the row.
        """
        row = self._arows.get(lam)
        if row is None:
            key = self._partitions.setdefault
            if len(lam) < 2:
                row = {key(lam, lam): a_single(lam[0]) if lam else 1}
            else:
                entry = "Sym{0} a{0}^{1}"
                acc = {nu: _quotient(value, nu.count(nu[0]), entry, lam, nu)
                       for nu, value in _surjection_sums(lam, self._a_row).items()}
                one = (sum(lam),)
                terms = []
                for mu, value in acc.items():
                    num, den = self._b_row(mu).get(one, 0), self._scale(mu)[0]
                    g = gcd(num, den)
                    terms.append((value, num // g, den // g))
                scale = lcm(*(den for _, _, den in terms))
                dot = sum(value * num * (scale // den) for value, num, den in terms)
                acc[one] = _quotient(-a_single(one[0]) * dot, scale * self._scale(one)[1],
                                     entry, lam, one)
                # partition_order (part count, then parts descending), with no key call per entry
                row = {key(mu, mu): acc[mu]
                       for mu in sorted(sorted(acc, reverse=True), key=len) if acc[mu]}
            self._arows[key(lam, lam)] = row
        return row

    def _a_values(self, lam: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
        # a_lam^mu = A_lam^mu / Sym(lam) by mu, in canonical order; the caller
        # holds the lock
        sym = sym_count(lam)
        return {mu: Fraction(value, sym) for mu, value in self._a_row(lam).items()}

    def b_matrix(self, n: int) -> list[list[Fraction]]:
        """Matrix of b over partitions of n, rows and columns in partitions_of
        order: row i is the b-row of the i-th partition of n, lower triangular
        because a coarsening has fewer parts or is the partition itself."""
        parts = partitions_of(n)
        with self._lock:
            rows = [(self._b_row(lam), self._scale(lam)[0]) for lam in parts]
            columns = [(mu, self._scale(mu)[1]) for mu in parts]
        return [[_ZERO if (value := row.get(mu)) is None else Fraction(value, scale * den)
                 for mu, den in columns] for row, scale in rows]

    def a_matrix(self, n: int) -> list[list[Fraction]]:
        """Exact inverse of b_matrix(n), lower triangular like it: row i is the
        a-row of the i-th partition of n."""
        parts = partitions_of(n)
        with self._lock:
            rows = [self._a_values(lam) for lam in parts]
        return [[row.get(mu, _ZERO) for mu in parts] for row in rows]

    def a_lambda_mu(self, lam: Sequence[int], mu: Sequence[int]) -> Fraction:
        """a_lam^mu, the coefficient of the kappa-monomial mu in the dual cycle
        of lam: one entry of lam's a-row, zero unless mu coarsens lam."""
        lam, mu = _same_weight(lam, mu)
        with self._lock:
            value = self._a_row(lam).get(mu)
        return _ZERO if value is None else Fraction(value, sym_count(lam))

    def witten_expansion(self, lam: Sequence[int]) -> dict[tuple[int, ...], Fraction]:
        """Row of the a-matrix for lam: the dual-cycle class expanded in
        kappa-monomials, nonzero entries only, in partitions_of order."""
        lam = normalize_partition(lam)
        with self._lock:
            return self._a_values(lam)

    def cup_coeff(
        self, lam: Sequence[int], mu: Sequence[int]
    ) -> dict[tuple[int, ...], Fraction]:
        """Structure constants of the dual-cycle basis under cup product.

        m_{lam,mu}^nu = sum over alpha, beta of a_lam^alpha a_mu^beta times
        b of the concatenation alpha+beta with superscript nu, read off the
        b-row of alpha+beta, summed in ints over the lcm of the b scales of
        the alphas and of the betas, and divided once.  The nonzero terms
        come back in partitions_of order.
        """
        lam = normalize_partition(lam)
        mu = normalize_partition(mu)

        def over_lcm(row: dict) -> tuple[list, int]:
            # each A^alpha times L / prod_i a_{alpha_i}, and L, the lcm of
            # those products; the caller holds the lock
            den = lcm(*(self._scale(alpha)[0] for alpha in row))
            return [(alpha, value * (den // self._scale(alpha)[0]))
                    for alpha, value in row.items()], den

        out: dict[tuple[int, ...], int] = {}
        with self._lock:
            (left, left_den), (right, right_den) = (over_lcm(self._a_row(p)) for p in (lam, mu))
            for alpha, a_left in left:
                for beta, a_right in right:
                    scale = a_left * a_right
                    for nu, factor in self._b_row(normalize_partition(alpha + beta)).items():
                        out[nu] = out.get(nu, 0) + scale * factor
            # the b scale of alpha + beta is the product of those of alpha and
            # beta, and the a-rows hold Sym times a; divide by both once
            den = sym_count(lam) * sym_count(mu) * left_den * right_den
            return {nu: Fraction(out[nu], den * self._scale(nu)[1])
                    for nu in sorted(out, key=partition_order) if out[nu]}

    # -- degenerate (zero-padded) extension ------------------------------------

    def degenerate_b(self, lam: Sequence[int], p: int, mu: Sequence[int], q: int) -> Fraction:
        """b with p zero parts appended below and q above.

        Equals b_lam^mu times sum over m of C(p, m) q! S2(p-m, q) (2n+r)^m / (-2)^p,
        where n is the common weight and r the part count of the superscript mu
        (each zero attached to a part of size mu_j contributes 2*mu_j + 1, and
        summing over the attachment point gives 2n + r per zero).  Zero when
        q > p: every appended zero above needs its own zero below.
        """
        if p < 0 or q < 0:
            raise ValueError(f"need p, q >= 0, got ({p}, {q})")
        base = self.b_lambda_mu(lam, mu)  # first, so a weight mismatch raises even if q > p
        if q > p or not base:
            return Fraction(0)
        n, r = sum(mu), len(mu)
        total = sum(
            comb(p, m) * factorial(q) * stirling_second(p - m, q) * (2 * n + r) ** m
            for m in range(p - q + 1)
        )
        return Fraction(total, (-2) ** p) * base

    def degenerate_a(self, lam: Sequence[int], m: int, mu: Sequence[int], i: int) -> Fraction:
        """a with m zero parts appended below and i above.

        Equals (1/m!) sum_{j=i}^{m} S1(m, j) C(j, i) (-2n-r)^(j-i) (-2)^i a_lam^mu,
        with n the weight and r the part count of the subscript lam.  Zero when
        i > m.  Padded a- and b-matrices over (partition, zero count) pairs are
        exact mutual inverses.
        """
        if m < 0 or i < 0:
            raise ValueError(f"need m, i >= 0, got ({m}, {i})")
        base = self.a_lambda_mu(lam, mu)  # first, so a weight mismatch raises even if i > m
        if i > m or not base:
            return Fraction(0)
        n, r = sum(lam), len(lam)
        total = sum(
            stirling_first_signed(m, j) * comb(j, i) * (-2 * n - r) ** (j - i)
            for j in range(i, m + 1)
        )
        return Fraction(total, factorial(m)) * (-2) ** i * base


def _surjection_sums(lam: tuple[int, ...], row: Callable[[tuple[int, ...]], dict]) -> dict:
    """lam's undivided multi-part entries: nu = (s,) + rho sums count *
    row(block)[(s,)] * row(rest)[rho] over the blocks of lam (_sub_multisets)."""
    acc: dict = {}
    for block, rest, count in _sub_multisets(lam):
        s = sum(block)
        if s < rest[0]:
            continue  # every coarsening rho of rest has rho[0] >= rest[0]
        factor = count * row(block).get((s,), 0)
        for rho, value in row(rest).items():
            if rho[0] <= s:
                nu = (s,) + rho
                acc[nu] = acc.get(nu, 0) + factor * value
    return acc


def _quotient(numerator: int, divisor: int, entry: str,
              lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """numerator / divisor, which must be exact: a remainder raises
    ArithmeticError naming the entry, entry.format(lam, mu), that is not
    an integer."""
    value, rest = divmod(numerator, divisor)
    if rest:
        raise ArithmeticError(f"{entry.format(lam, mu)} is not an integer")
    return value


def _sub_multisets(lam: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """The nonempty proper sub-multisets of the weakly decreasing lam.

    Yields (block, rest, count): block takes t_i of the m_i copies of each
    distinct part, rest takes the others, both weakly decreasing, and
    count = prod C(m_i, t_i) is the number of slot subsets of lam giving
    this block.
    """
    groups = [(part, lam.count(part)) for part in sorted(set(lam), reverse=True)]
    for takes in product(*(range(mult + 1) for _, mult in groups)):
        block, rest, count = (), (), 1
        for (part, mult), t in zip(groups, takes):
            block += (part,) * t
            rest += (part,) * (mult - t)
            count *= comb(mult, t)
        if block and rest:
            yield block, rest, count


def __getattr__(name: str):
    # perfbench/layers.py imports the Gauss-Jordan oracle from here; it loads
    # on that first use, so the commands that build tables never load oracles
    if name == "invert_rational_matrix":
        from .oracles import invert_rational_matrix

        return invert_rational_matrix
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- shared table and document export ------------------------------------------

_shared = CoeffTable()


def shared_table() -> CoeffTable:
    """The process-wide memoized table used by the free functions and the CLI."""
    return _shared


b_extend = _shared.b_extend
b_lambda_n = _shared.b_lambda_n
b_lambda_mu = _shared.b_lambda_mu
a_lambda_mu = _shared.a_lambda_mu
b_matrix = _shared.b_matrix
a_matrix = _shared.a_matrix
witten_expansion = _shared.witten_expansion
cup_coeff = _shared.cup_coeff
degenerate_b = _shared.degenerate_b
degenerate_a = _shared.degenerate_a


def partition_key(parts: Sequence[int]) -> str:
    """Comma-joined descending parts, the map key used in exported documents."""
    return ",".join(str(p) for p in normalize_partition(parts))


def table_document(n: int, table: CoeffTable | None = None) -> dict:
    """Versioned export of the weight-n b/a matrices in canonical order."""
    table = table if table is not None else _shared
    parts = partitions_of(n)
    return {
        "version": SCHEMA_VERSION,
        "weight": n,
        "order": [list(p) for p in parts],
        "b": [[format_rational(x) for x in row] for row in table.b_matrix(n)],
        "a": [[format_rational(x) for x in row] for row in table.a_matrix(n)],
    }

