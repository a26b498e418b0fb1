"""Exact arithmetic core: sparse multivariate polynomials, integer
partitions and compositions, and classical counting sequences.

Conventions used throughout the package:

* rationals, the values of `coeffs`, are `fractions.Fraction`; plain
  `int` is accepted anywhere a rational is expected, and an integral one
  may be either (the two compare and hash equal, so mixing is safe, and
  `format_rational` prints them alike);
* a partition is a tuple of positive ints sorted weakly decreasing, the
  empty tuple being the empty partition, and `partition_order` is the
  canonical order of partitions;
* an exponent vector is a tuple of nonnegative ints, one per variable.

MultiPoly is the one polynomial type, with int coefficients and packed
int keys (see MultiPoly).  Polynomials render from runs of packed keys,
by `term_pieces` for text and LaTeX and `json_pieces` for JSON, one piece
per chunk of terms; _rendered explains how the keys of the runs are
rendered by parts.

All values are immutable after construction and every operation is a pure
function, so everything here can be shared freely across threads.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, repeat, starmap
from math import factorial, prod
from operator import add, and_, mod, mul, or_, rshift, sub
from typing import Iterable, Iterator, Mapping

Coeff = int | Fraction


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

def format_rational(value: Coeff) -> str:
    """Canonical string form: "p/q" with q > 0 and gcd 1, or plain "p" if integral."""
    return str(value) if type(value) in (int, Fraction) else str(Fraction(value))


def latex_rational(value: Coeff) -> str:
    """LaTeX form of |value|: "\\frac{p}{q}", or plain "p" if integral."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(abs(value.numerator))
    return f"\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


def signed_join(chunks: list[tuple[str, str]]) -> str:
    """Render (sign, body) terms, sign "+" or "-", as "a - b + c"; no terms is "0"."""
    if not chunks:
        return "0"
    (first_sign, first_body), rest = chunks[0], chunks[1:]
    head = "-" + first_body if first_sign == "-" else first_body
    # head, sign, body, sign, body, ... joined by spaces is "head + body - body"
    return " ".join([head, *chain.from_iterable(rest)])


def check_odd_tuple(values: Iterable[int]) -> tuple[int, ...]:
    """The values as a tuple, checked to be an odd number of positive odd ints.

    Such tuples are the alphabets of cyclic shuffles and the points at
    which the tree polynomials are evaluated.
    """
    values = tuple(values)
    if len(values) % 2 == 0:
        raise ValueError(f"need an odd number of entries, got {len(values)}")
    if any(v < 1 or v % 2 == 0 for v in values):
        raise ValueError(f"entries must be positive odd integers, got {values}")
    return values


# ---------------------------------------------------------------------------
# counting sequences
# ---------------------------------------------------------------------------

def double_factorial(n: int) -> int:
    """n!! = n(n-2)(n-4)... down to 1 or 2, with (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial needs n >= -1, got {n}")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def binomial(n: int, k: int) -> int:
    """Binomial coefficient extended to negative n via the falling factorial."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    return num // factorial(k)


@lru_cache(maxsize=None)
def _stirling1_row(n: int) -> tuple[int, ...]:
    # coefficients of v(v-1)...(v-n+1) in powers of v
    row = [1]
    for m in range(n):
        row = [
            (row[j - 1] if j > 0 else 0) - m * (row[j] if j < len(row) else 0)
            for j in range(m + 2)
        ]
    return tuple(row)


def stirling_first_signed(n: int, i: int) -> int:
    """Signed Stirling number of the first kind: sum_i s(n,i) v^i = v(v-1)...(v-n+1)."""
    if n < 0 or i < 0 or i > n:
        raise ValueError(f"need 0 <= i <= n, got n={n}, i={i}")
    return _stirling1_row(n)[i]


@lru_cache(maxsize=None)
def _stirling2_row(m: int) -> tuple[int, ...]:
    row = [1]
    for _ in range(m):
        row = [
            (row[j - 1] if j > 0 else 0) + j * (row[j] if j < len(row) else 0)
            for j in range(len(row) + 1)
        ]
    return tuple(row)


def stirling_second(m: int, n: int) -> int:
    """Stirling number of the second kind: partitions of an m-set into n blocks."""
    if m < 0 or n < 0:
        raise ValueError(f"need m, n >= 0, got m={m}, n={n}")
    if n > m:
        return 0
    return _stirling2_row(m)[n]


# ---------------------------------------------------------------------------
# partitions and compositions
# ---------------------------------------------------------------------------

def normalize_partition(parts: Iterable[int]) -> tuple[int, ...]:
    """Canonical form: weakly decreasing tuple of positive ints."""
    out = tuple(sorted(parts, reverse=True))
    if out and out[-1] < 1:
        raise ValueError(f"partition parts must be positive: {out}")
    return out


def partition_order(parts: tuple[int, ...]) -> tuple:
    """Sort key of the canonical partition order: by number of parts
    ascending, then lexicographically descending.

    The order is part of the interface: emitted tables and cached files
    index rows and columns by it.
    """
    return len(parts), tuple(-x for x in parts)


def partitions_of(n: int) -> list[tuple[int, ...]]:
    """All partitions of n in canonical order, the order of partition_order."""
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, largest: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, largest), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    out.sort(key=partition_order)
    return out


def arrangements(parts: Iterable[int], slots: int) -> Iterator[tuple[int, ...]]:
    """The distinct orderings of `parts` padded with zeros to `slots` entries.

    These are the compositions whose nonzero entries are a rearrangement of
    `parts`.  Over the partitions of m with at most `slots` parts they give
    every composition of m into `slots` slots exactly once.
    """
    parts = tuple(parts)
    if len(parts) > slots or any(p < 1 for p in parts):
        raise ValueError(f"need at most {slots} positive parts, got {parts}")
    # the arrangements come in the order of these keys, 0 first
    counts = Counter((0,) * (slots - len(parts)) + parts)

    def rec(left: int) -> Iterator[tuple[int, ...]]:
        if left == 0:
            yield ()
            return
        for value in counts:
            if counts[value]:
                counts[value] -= 1
                for rest in rec(left - 1):
                    yield (value,) + rest
                counts[value] += 1

    yield from rec(slots)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------

# bits per variable of a packed key (see MultiPoly)
_EXP_BITS = 8
_EXP_MAX = (1 << _EXP_BITS) - 1


def _shift(num_vars: int, index: int) -> int:
    """The bit position of variable `index`'s field in a key of `num_vars`
    variables."""
    return _EXP_BITS * (num_vars - 1 - index)


def _pack(num_vars: int, exps: tuple[int, ...]) -> int | None:
    """The packed key of an exponent vector, or None if it is not a vector
    of `num_vars` exponents in 0.._EXP_MAX."""
    if len(exps) != num_vars or not all(0 <= e <= _EXP_MAX for e in exps):
        return None
    return int.from_bytes(bytes(exps), "big")


def _vectors(num_vars: int, keys: Iterable[int]) -> Iterator[bytes]:
    """The exponent vectors of packed keys as `bytes`, one per variable with
    x0 first."""
    return map(int.to_bytes, keys, repeat(num_vars), repeat("big"))


def _bounds(num_vars: int, keys: Iterable[int]) -> bytes:
    """Per variable, a bound on the exponents of the packed keys: the
    fields of their OR, which is at least each exponent."""
    return reduce(or_, keys, 0).to_bytes(num_vars, "big")


def _require_no_carry(num_vars: int, left: Iterable[int], right: Iterable[int]) -> None:
    """Raise ValueError unless adding a key of `left` to one of `right`
    keeps every exponent within 0.._EXP_MAX, so that no variable's field
    can carry into the next one's."""
    if any(a + b > _EXP_MAX for a, b in zip(_bounds(num_vars, left), _bounds(num_vars, right))):
        raise ValueError(f"an exponent would exceed {_EXP_MAX}")


def _moved(terms: dict[int, int], shift: int,
           moves: list[list[tuple[int, int]]]) -> dict[int, int]:
    """A copy of the term store with every term's moves added, zeros dropped.

    A term (key, coeff) whose field at `shift` holds the exponent a adds
    coeff * weight at key + move for each (move, weight) of moves[a]; the
    copy is the move of every term by 0 with weight 1, so an expansion that
    keeps the whole term lists no move for it.  The caller has checked that
    no move carries out of a field.
    """
    store = dict(terms)
    get = store.get
    for key, coeff in terms.items():
        for move, weight in moves[key >> shift & _EXP_MAX]:
            moved = key + move
            store[moved] = get(moved, 0) + coeff * weight
    # an expansion can cancel heavily, and the zeros go in place, with no
    # second store
    for key in [key for key, coeff in store.items() if not coeff]:
        del store[key]
    return store


class _Memo(dict):
    """The values of a one-argument function by argument, each computed on
    first use; `known` seeds values that need no call."""

    def __init__(self, function, known: Mapping | Iterable = ()):
        super().__init__(known)
        self.function = function

    def __missing__(self, key):
        self[key] = value = self.function(key)
        return value


# keys rendered per flat pass: the text in flight is one chunk's
_CHUNK = 2048


def _part_memos(sizes: list[int], renders: list) -> list[tuple]:
    """Consecutive parts of the packed keys of sum(sizes) variables, x0's
    part first, `sizes[i]` variables in part i, each as (memo, shift,
    mask): the part is key >> shift, & mask after x0's part, and the memo
    holds renders[i](first variable, vector) of each distinct value of the
    part, the value decoded to its `bytes` vector once."""
    parts, start = [], 0
    for size, render in zip(sizes, renders):
        memo = _Memo(lambda part, size=size, first=start, render=render:
                     render(first, part.to_bytes(size, "big")))
        # x0's part is all the bits above its shift
        mask = (1 << _EXP_BITS * size) - 1 if start else None
        start += size
        parts.append((memo, _EXP_BITS * (sum(sizes) - start), mask))
    return parts


def _looked_up(part: tuple, keys: Iterable[int]) -> Iterator:
    """The memo's values of one part of the packed keys."""
    memo, shift, mask = part
    if shift:
        keys = map(rshift, keys, repeat(shift))
    if mask is not None:
        keys = map(and_, keys, repeat(mask))
    return map(memo.__getitem__, keys)


def _rendered(num_vars: int, runs: Iterable[tuple], renders: list) -> Iterator[tuple]:
    """The terms of the runs, _CHUNK at a time, as (highs, lows1, lows2,
    values): the renderings, by `renders`, of three parts of their keys,
    x0 and x1, then x2, x3, ... in two halves, and their coefficients.

    Each distinct value of a part is rendered once per call, in a memo.  A
    run's offset and weight apply per chunk.  An offset moves x0 and x1
    only, as every run of treepoly._x_runs and a MultiPoly's one run
    (offset 0) do, so it leaves a key's two low parts alone: a keys list's
    lows are looked up on its first run, as two lists of references into
    the memos, and its later runs reuse them, as the b+1 runs of one
    b-group of _x_runs do.  Raises ArithmeticError on a run whose offset
    moves x2, x3, ....  A chunk whose keys share one (x0, x1) part, as
    every chunk of a b-group's run does, looks that part up once.  So what
    is in flight is one chunk's text, the memos and the keys lists' lows.
    """
    low = max(num_vars - 2, 0)
    high, low1, low2 = _part_memos([num_vars - low, (low + 1) // 2, low // 2], renders)
    high_memo, low_shift, _ = high
    low_mask = (1 << low_shift) - 1
    # per keys list, the list itself, which keeps its id, and per chunk the
    # (x0, x1) part shared by its keys, or each key's, and the lows
    shared: dict[int, tuple] = {}

    def parts(keys: list[int]) -> tuple:
        top = min(keys) >> low_shift
        if top != max(keys) >> low_shift:
            top = list(map(rshift, keys, repeat(low_shift)))
        return top, list(_looked_up(low1, keys)), list(_looked_up(low2, keys))

    for keys, offset, coeffs, weight in runs:
        if offset & low_mask:
            raise ArithmeticError("a run's offset moves x2, x3, ...; only x0 and x1 can move")
        starts = range(0, len(keys), _CHUNK)
        if id(keys) not in shared:
            shared[id(keys)] = keys, [parts(keys[start:start + _CHUNK]) for start in starts]
        chunks, lift = shared[id(keys)][1], offset >> low_shift
        for start, (top, lows1, lows2) in zip(starts, chunks):
            values = coeffs[start:start + _CHUNK]
            if weight != 1:
                values = list(map(mul, values, repeat(weight)))
            if type(top) is int:
                highs = repeat(high_memo[top + lift])
            else:
                highs = map(high_memo.__getitem__, map(add, top, repeat(lift)))
            yield highs, lows1, lows2, values


def _one_degree(num_vars: int, keys: list[int]) -> bool:
    """Whether the packed keys share one total degree.

    256 is 1 modulo 255, so a key is its degree modulo 255: while the
    exponents' bounds sum below 255, one residue is one degree, and only
    larger exponents need each key's degree."""
    if sum(_bounds(num_vars, keys)) < _EXP_MAX:
        return len(set(map(mod, keys, repeat(_EXP_MAX)))) <= 1
    return len(set(map(sum, _vectors(num_vars, keys)))) <= 1


def _graded_lex(num_vars: int, keys: Iterable[int]) -> list[int]:
    """Packed keys in graded-lex order with x0 most significant, leading key
    first: the descending lex order, then, where the total degrees differ,
    a stable sort of it by descending degree."""
    ordered = sorted(keys, reverse=True)
    if not _one_degree(num_vars, ordered):
        ordered.sort(key=lambda e: sum(e.to_bytes(num_vars, "big")), reverse=True)
    return ordered


def json_pieces(num_vars: int, runs: Iterable[tuple], depth: int = 0) -> Iterator[str]:
    """`json.dumps` of the JSON term list, indent 2, in pieces, one per chunk.

    `runs` are (keys, offset, coeffs, weight) tuples, in ascending key
    order: the terms key + offset with coefficient coeff * weight, for the
    packed keys and nonzero coefficients of two parallel lists, and an
    offset that moves x0 and x1 only; ArithmeticError on any other.  A
    MultiPoly is the one run of its sorted keys.  A list is read as it is
    when first seen.  The pieces join to the list of `MultiPoly.to_obj` as
    it appears nested `depth` levels deep in an indent-2 `json.dumps`
    document, so a caller can write a large polynomial without holding its
    rendering.
    """
    item = "\n" + "  " * (depth + 1)
    field = item + "  "
    number = "," + field + "  "
    # a term is five strings: its (x0, x1) part's (the object's opening and
    # the exponent lines of x0 and x1), its two low parts' (the other
    # exponent lines, then the coefficient's opening), the coefficient, and
    # the object's close
    def lines(first: int, vector: bytes) -> str:
        return "".join([number + str(e) for e in vector])

    renders = [
        lambda first, vector: "," + item + "{" + field + '"exp": [' + number[1:]
        + number.join(map(str, vector)),
        lines,
        lambda first, vector: lines(first, vector) + field + "]," + field + '"coeff": "']
    close = '"' + item + "}"

    def render(highs, lows1, lows2, values: list) -> str:
        return "".join(chain.from_iterable(zip(
            highs, lows1, lows2, map(str, values), repeat(close))))

    pieces = starmap(render, _rendered(num_vars, runs, renders))
    first = next(pieces, None)
    if first is None:
        yield "[]"
        return
    yield "[" + first[1:]
    yield from pieces
    yield item[:-2] + "]"


def term_pieces(num_vars: int, runs: Iterable[tuple], latex: bool = False) -> Iterator[str]:
    """Text (or LaTeX) rendering of runs in pieces, one per chunk.

    `runs` are as for json_pieces, but in graded-lex order with x0 most
    significant, leading term first.  The first piece starts with the
    leading term, every later one with " + " or " - "; no terms is the
    single piece "0".  A chunk's coefficients are formatted by one
    `map(str, ...)`, with no memo per coefficient: a term is written
    " + c" and its powers, and the chunk's text is fixed up once for the
    signs and the unit coefficients.
    """
    if latex:
        names, open_, close = [f"x_{{{i}}}" for i in range(num_vars)], "^{", "}"
        times = " "
    else:
        names, open_, close = [f"x{i}" for i in range(num_vars)], "^", ""
        times = "*"
    # each power is rendered with the `times` before it, and the last part
    # ends with the next term's " + ", so a term is its coefficient's str
    # and its parts' strings, and the constant term, last in graded-lex
    # order, is its coefficient's str alone
    powers = [_Memo(lambda e, name=name: f"{times}{name}{open_}{e}{close}",
                    {0: "", 1: times + name})
              for name in names]

    def part(first: int, vector: bytes) -> str:
        return "".join(map(dict.__getitem__, powers[first:first + len(vector)], vector))

    def render(highs, lows1, lows2, values: list) -> str:
        text = "".join(chain([" + "], chain.from_iterable(zip(
            map(str, values), highs, lows1, lows2))))[:-3]
        # a sign is followed by a coefficient's str, and that by `times`
        # exactly when a power follows it: drop a 1 there
        return text.replace(" + -", " - ").replace(" 1" + times, " ")

    pieces = starmap(render, _rendered(
        num_vars, runs, [part, part, lambda first, vector: part(first, vector) + " + "]))
    first = next(pieces, None)
    if first is None:
        yield "0"
        return
    yield ("-" if first[1] == "-" else "") + first[3:]
    yield from pieces


class MultiPoly:
    """Sparse polynomial in variables x0..x(N-1) with int coefficients.

    Terms are a map from packed key to nonzero int, so two polynomials are
    equal exactly when their term maps are equal.  A key packs an exponent
    vector into one int, 8 bits per variable with x0 in the high byte:
    multiplying two monomials is one integer add, and keys of one arity
    compare as ints as their exponent tuples do, so a plain sort puts them
    in exponent order.  An exponent above 255 raises ValueError, at
    construction and in any product or substitution whose operands could
    carry into the next variable's field.  The constructor and
    `coefficient` take exponent tuples, and `items` yields them.  Any
    coefficient but an int, and multiplying by anything but an int, raises
    TypeError.  The variable count is fixed at construction; arithmetic
    between different arities raises instead of coercing (silent
    broadcasting hides indexing bugs).  Instances are immutable.
    """

    __slots__ = ("num_vars", "_terms")

    def __init__(self, num_vars: int, terms: Mapping[tuple[int, ...], int] | Iterable = ()):
        if num_vars < 1:
            raise ValueError(f"need at least one variable, got {num_vars}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        store: dict[int, int] = {}
        for exps, coeff in items:
            exps = tuple(exps)
            key = _pack(num_vars, exps)
            if key is None:
                raise ValueError(f"bad exponent vector {exps} for {num_vars} variables "
                                 f"(exponents lie in 0..{_EXP_MAX})")
            if not isinstance(coeff, int):
                raise TypeError(f"coefficients must be int, got {coeff!r}")
            coeff = store.get(key, 0) + coeff
            if coeff:
                store[key] = coeff
            else:
                store.pop(key, None)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "_terms", store)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def _raw(cls, num_vars: int, store: dict[int, int]) -> "MultiPoly":
        # internal: store is already canonical (packed keys that fit the
        # arity, nonzero int coefficients)
        self = object.__new__(cls)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "_terms", store)
        return self

    @classmethod
    def zero(cls, num_vars: int) -> "MultiPoly":
        return cls._raw(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, value: int) -> "MultiPoly":
        return cls(num_vars, [((0,) * num_vars, value)])

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "MultiPoly":
        if not 0 <= index < num_vars:
            raise ValueError(f"variable index {index} out of range for {num_vars} variables")
        return cls._raw(num_vars, {1 << _shift(num_vars, index): 1})

    # -- inspection ---------------------------------------------------------

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """(exponent tuple, coefficient) pairs, each tuple decoded as it is read."""
        return zip(map(tuple, _vectors(self.num_vars, self._terms)), self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficient(self, exps: Iterable[int]) -> int:
        """The coefficient of x^exps: 0 for an exponent outside 0..255, which
        no term has; ValueError for a vector of the wrong length."""
        exps = tuple(exps)
        if len(exps) != self.num_vars:
            raise ValueError(f"{len(exps)} exponents for {self.num_vars} variables")
        key = _pack(self.num_vars, exps)
        return 0 if key is None else self._terms.get(key, 0)

    def coefficient_sum(self) -> int:
        """Sum of all coefficients, i.e. the value at the all-ones point."""
        return sum(self._terms.values())

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max(map(sum, _vectors(self.num_vars, self._terms)), default=0)

    def degree_in(self, index: int) -> int:
        if not 0 <= index < self.num_vars:
            raise ValueError(f"variable index {index} out of range")
        shift = _shift(self.num_vars, index)
        return max((e >> shift & _EXP_MAX for e in self._terms), default=0)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degrees = set(map(sum, _vectors(self.num_vars, self._terms)))
        if degree is not None:
            return degrees <= {degree}
        return len(degrees) <= 1

    # -- arithmetic ---------------------------------------------------------

    def _require_same_arity(self, other: "MultiPoly") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"mismatched variable counts: {self.num_vars} vs {other.num_vars}"
            )

    def _combine(self, other, op):
        # self op other for op add or sub, in one pass over other's terms
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._require_same_arity(other)
        store = dict(self._terms)
        get = store.get
        for exps, coeff in other._terms.items():
            total = op(get(exps, 0), coeff)
            if total:
                store[exps] = total
            else:
                del store[exps]
        return MultiPoly._raw(self.num_vars, store)

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        return MultiPoly._raw(self.num_vars, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._require_same_arity(other)
            _require_no_carry(self.num_vars, self._terms, other._terms)
            small, big = sorted((self._terms, other._terms), key=len)
            if len(small) == 1:
                # a monomial moves every key by the same amount, so no two
                # products meet
                ((e2, c2),) = small.items()
                store = {e1 + e2: c1 * c2 for e1, c1 in big.items()}
            else:
                store = {}
                get = store.get
                for e2, c2 in small.items():
                    for e1, c1 in big.items():
                        exps = e1 + e2
                        total = get(exps, 0) + c1 * c2
                        if total:
                            store[exps] = total
                        else:
                            del store[exps]
            return MultiPoly._raw(self.num_vars, store)
        if isinstance(other, int):
            if not other:
                return MultiPoly.zero(self.num_vars)
            return MultiPoly._raw(self.num_vars, {e: c * other for e, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.num_vars == other.num_vars and self._terms == other._terms

    __hash__ = None  # dict-backed; use serialized form as a key if needed

    # -- structural operations ----------------------------------------------

    def substitute(self, index: int, replacement: "MultiPoly") -> "MultiPoly":
        """Replace variable `index` by `replacement` and re-expand.

        The expansion is _moved's, with moves[a] taking x_index^a to the
        terms of replacement^a: each moves a key by the power's key less
        a in the field of x_index, and the move by 0 loses the weight 1 of
        _moved's copy.
        """
        if not 0 <= index < self.num_vars:
            raise ValueError(f"variable index {index} out of range")
        self._require_same_arity(replacement)
        powers = [MultiPoly.constant(self.num_vars, 1)]
        for _ in range(self.degree_in(index)):
            powers.append(powers[-1] * replacement)
        shift = _shift(self.num_vars, index)
        rest = ~(_EXP_MAX << shift)  # clears the substituted variable's field
        _require_no_carry(self.num_vars, [reduce(or_, self._terms, 0) & rest],
                          chain.from_iterable(p._terms for p in powers))
        moves = []
        for a, power in enumerate(powers):
            weights = dict(power._terms)
            weights[a << shift] = weights.get(a << shift, 0) - 1
            moves.append([(key - (a << shift), weight)
                          for key, weight in weights.items() if weight])
        return MultiPoly._raw(self.num_vars, _moved(self._terms, shift, moves))

    def eval(self, point: Iterable[Coeff]) -> Coeff:
        """Exact value at the point (one coordinate per variable): an int at
        an int point."""
        coords = tuple(point)
        if len(coords) != self.num_vars:
            raise ValueError(
                f"point has {len(coords)} coordinates, polynomial has {self.num_vars} variables"
            )
        # each distinct half of a key, the first ceil(n/2) variables and the
        # rest, is evaluated once
        middle = (self.num_vars + 1) // 2
        head, tail = (_looked_up(part, self._terms) for part in _part_memos(
            [middle, self.num_vars - middle],
            [lambda first, vector: prod(map(pow, coords[first:], vector))] * 2))
        return sum(map(mul, self._terms.values(), map(mul, head, tail)))

    def extended(self, num_vars: int) -> "MultiPoly":
        """Same polynomial viewed in a larger variable set, with the new
        variables after the old ones."""
        if num_vars < self.num_vars:
            raise ValueError(f"cannot shrink from {self.num_vars} to {num_vars} variables")
        if num_vars == self.num_vars:
            return self
        # the new variables' fields come in below x_(n-1)'s
        shift = _EXP_BITS * (num_vars - self.num_vars)
        return MultiPoly._raw(num_vars, {e << shift: c for e, c in self._terms.items()})

    # -- serialization and rendering -----------------------------------------

    def to_obj(self) -> list[dict]:
        """JSON form: [{"exp": [...], "coeff": "c"}, ...] sorted by exponents,
        each coefficient the string of its int."""
        keys = sorted(self._terms)
        return [
            {"exp": list(exps), "coeff": str(self._terms[key])}
            for key, exps in zip(keys, _vectors(self.num_vars, keys))
        ]

    def _run(self, keys: list[int]) -> list[tuple]:
        # the renderers' one run of the terms, in the order of `keys`
        return [(keys, 0, list(map(self._terms.__getitem__, keys)), 1)]

    def json_pieces(self, depth: int = 0) -> Iterator[str]:
        """`json.dumps(self.to_obj(), indent=2)` in pieces; see json_pieces."""
        return json_pieces(self.num_vars, self._run(sorted(self._terms)), depth)

    def term_pieces(self, latex: bool = False) -> Iterator[str]:
        """Text (or LaTeX) rendering in pieces; see term_pieces."""
        return term_pieces(self.num_vars, self._run(_graded_lex(self.num_vars, self._terms)),
                           latex)

    def text(self) -> str:
        return "".join(self.term_pieces())

    def __repr__(self) -> str:
        return f"MultiPoly({self.num_vars}, {self.text()!r})"
