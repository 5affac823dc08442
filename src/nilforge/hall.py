"""Exact arithmetic in free nilpotent groups of class at most three.

A group is described by an ordered Hall basis of basic commutators.  Every
element has a unique normal form ``s_1^{e_1} * s_2^{e_2} * ... * s_n^{e_n}``
with the symbols in basis order and arbitrary integer exponents; `collect`
rewrites any word of basis letters into that form.

The only rewriting data a class-<=3 basis needs is, per out-of-order symbol
pair ``(a, b)`` with ``a`` after ``b``, the bracket ``t = [a, b]`` together
with ``u = [t, b]`` and ``v = [t, a]``.  Conjugation then has the closed form

    (a^m) ^ (b^n)  =  a^m * t^(n*m) * u^(C(n,2)*m) * v^(C(m,2)*n)

because ``u`` and ``v`` are central and ``t`` commutes with both.  The rule
tables are derived from the defining brackets of the basis, never entered by
hand, and each table is checked against the truncated-series oracle when the
basis is built (see `nilforge.series`).

`_collect_letters` is collection from the left (M. R. Vaughan-Lee,
"Collection from the left", J. Symbolic Comput. 9 (1990) 725-733): the
collected prefix is an exponent vector, and the next letter ``b^n`` moves
left past the non-central tail ``a_1^m_1 ... a_k^m_k`` above it in one step,
by the closed form applied to each ``a_i^m_i``; the conjugated tail goes on a
stack of pending letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

__all__ = [
    "BasisError",
    "BasisSymbol",
    "NilpotentBasis",
    "GroupWord",
    "FreeNilElement",
    "FreeEndomorphism",
    "IntMatrix",
    "builtin_basis",
    "collect",
    "multiply",
    "inverse",
    "power",
    "commutator",
    "abelianization_matrix",
]


class BasisError(ValueError):
    """Raised for malformed bases or words over the wrong basis."""


def _comb2(n: int) -> int:
    # n*(n-1)/2, exact for negative n as well: C(-1,2) = 1, C(-2,2) = 3, ...
    return n * (n - 1) // 2


@dataclass(frozen=True)
class BasisSymbol:
    """One basis entry: a generator (weight 1) or a basic commutator.

    ``bracket`` is ``None`` for weight-1 generators and otherwise the pair of
    earlier symbol indices ``(hi, lo)`` meaning this symbol equals
    ``[s_hi, s_lo]`` with the convention ``[a, b] = a^-1 b^-1 a b``.
    """

    name: str
    weight: int
    bracket: tuple[int, int] | None = None


class NilpotentBasis:
    """An ordered Hall basis plus derived collection rules.

    Instances are immutable after construction and safe to share; the two
    supported shapes are produced by `builtin_basis`.
    """

    def __init__(self, name: str, rank: int, nilpotency_class: int,
                 symbols: Sequence[BasisSymbol], _verify: bool = True):
        if nilpotency_class < 1 or nilpotency_class > 3:
            raise BasisError("only classes 1..3 are supported")
        if rank < 1:
            raise BasisError("rank must be positive")
        self.name = name
        self.rank = rank
        self.nilpotency_class = nilpotency_class
        self.symbols = tuple(symbols)
        self._validate()
        self._swap = self._derive_swap_rules()
        # weights never decrease, so the central symbols (full weight) are a
        # suffix of the order, starting at _central_from
        self._central_from = next(
            (i for i, s in enumerate(self.symbols) if s.weight == nilpotency_class),
            len(self.symbols))
        self._left_rows = self._derive_left_rows()
        self.identity = FreeNilElement(self, (0,) * len(self.symbols))
        self._series_cache: dict[int, object] = {}
        if _verify:
            self._verify_rules()

    # -- construction helpers -------------------------------------------------

    def _validate(self) -> None:
        syms = self.symbols
        if len(syms) < self.rank:
            raise BasisError("fewer symbols than rank")
        for i, s in enumerate(syms):
            if i < self.rank:
                if s.weight != 1 or s.bracket is not None:
                    raise BasisError(f"symbol {i} must be a plain generator")
            else:
                if s.bracket is None:
                    raise BasisError(f"symbol {i} needs a defining bracket")
                hi, lo = s.bracket
                if not (0 <= lo < hi < i):
                    raise BasisError(f"bracket of {s.name} must use earlier symbols")
                if s.weight != syms[hi].weight + syms[lo].weight:
                    raise BasisError(f"weight of {s.name} inconsistent with bracket")
            if i and s.weight < syms[i - 1].weight:
                raise BasisError("weights must be non-decreasing along the order")
            if s.weight > self.nilpotency_class:
                raise BasisError(f"symbol {s.name} exceeds the class")

    def bracket_entries(self, hi: int, lo: int) -> tuple[tuple[int, int], ...]:
        """Sparse exponent form of ``[s_hi, s_lo]``; empty when they commute."""
        whi = self.symbols[hi].weight
        wlo = self.symbols[lo].weight
        if whi + wlo > self.nilpotency_class:
            return ()
        for i, s in enumerate(self.symbols):
            if s.bracket == (hi, lo):
                return ((i, 1),)
        raise BasisError(
            f"bracket [{self.symbols[hi].name},{self.symbols[lo].name}] is not a "
            "basis symbol; this basis shape is not supported")

    def _derive_swap_rules(self):
        rules = {}
        n = len(self.symbols)
        for hi in range(n):
            for lo in range(hi):
                t = self.bracket_entries(hi, lo)
                if not t:
                    continue  # commuting pair, plain swap
                u: dict[int, int] = {}
                v: dict[int, int] = {}
                for sym, coef in t:
                    for s2, c2 in self.bracket_entries(sym, lo):
                        u[s2] = u.get(s2, 0) + coef * c2
                    for s2, c2 in self.bracket_entries(sym, hi):
                        v[s2] = v.get(s2, 0) + coef * c2
                rules[(hi, lo)] = (
                    t,
                    tuple((s, c) for s, c in sorted(u.items()) if c),
                    tuple((s, c) for s, c in sorted(v.items()) if c),
                )
        return rules

    def _derive_left_rows(self):
        # row s: (t, T, U, V) for each non-central t after s, where T, U, V
        # are the swap-rule parts of (t, s), empty when t and s commute
        none = ((), (), ())
        return tuple(
            tuple((t, *self._swap.get((t, s), none))
                  for t in range(s + 1, self._central_from))
            for s in range(len(self.symbols)))

    def _verify_rules(self) -> None:
        # Check every swap rule, and every commuting pair, against truncated
        # series arithmetic for a spread of exponent pairs.
        from . import series

        pairs = [(1, 1), (1, -1), (-1, 1), (-1, -1), (2, 1), (1, 2), (-2, 3)]
        n = len(self.symbols)
        for hi in range(n):
            for lo in range(hi):
                s_hi = series.symbol_series(self, hi)
                s_lo = series.symbol_series(self, lo)
                for m, nn in pairs:
                    lhs = (s_lo ** (-nn)) * (s_hi ** m) * (s_lo ** nn)
                    rhs = s_hi ** m
                    rule = self._swap.get((hi, lo))
                    if rule is not None:
                        t, u, v = rule
                        for part, coef in ((t, nn * m), (u, _comb2(nn) * m),
                                           (v, _comb2(m) * nn)):
                            for sym, k in part:
                                if k * coef:
                                    rhs = rhs * series.symbol_series(self, sym) ** (k * coef)
                    if lhs != rhs:
                        raise BasisError(
                            f"derived rule for ({self.symbols[hi].name},"
                            f"{self.symbols[lo].name}) fails the series check")

    # -- basic queries ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.symbols)

    def weights(self) -> tuple[int, ...]:
        return tuple(s.weight for s in self.symbols)

    def element(self, exponents: Sequence[int]) -> "FreeNilElement":
        exps = tuple(int(e) for e in exponents)
        if len(exps) != len(self.symbols):
            raise BasisError("exponent vector has the wrong length")
        return FreeNilElement(self, exps)

    def generator(self, i: int) -> "FreeNilElement":
        if not 0 <= i < len(self.symbols):
            raise BasisError("symbol index out of range")
        exps = [0] * len(self.symbols)
        exps[i] = 1
        return FreeNilElement(self, tuple(exps))

    def gens(self) -> tuple["FreeNilElement", ...]:
        """The weight-1 generators."""
        return tuple(self.generator(i) for i in range(self.rank))

    def __repr__(self) -> str:
        return f"NilpotentBasis({self.name}, rank={self.rank}, class={self.nilpotency_class})"


@dataclass(frozen=True)
class GroupWord:
    """A word over a basis: a sequence of (symbol index, exponent) letters."""

    letters: tuple[tuple[int, int], ...]

    def validate(self, basis: NilpotentBasis) -> None:
        for sym, exp in self.letters:
            if not 0 <= sym < basis.size:
                raise BasisError(f"letter index {sym} invalid for basis {basis.name}")
            if exp == 0:
                raise BasisError("letters must carry nonzero exponents")


def _collect_letters(basis: NilpotentBasis, letters) -> tuple[int, ...]:
    return _collect_onto(basis, basis.identity.exponents, letters)


def _collect_onto(basis: NilpotentBasis, start: tuple[int, ...],
                  letters) -> tuple[int, ...]:
    """Normal form of the normal form ``start`` times the word ``letters``.

    Collection from the left.  ``hi`` bounds the last nonzero non-central
    symbol of the vector, so a letter ``s^e`` with ``s >= hi`` is just added.
    Otherwise each nonzero non-central ``t^k`` after ``s`` is cleared and,
    conjugated by ``s^e``, pushed back as ``t^k T^(e*k) U^(C(e,2)*k)
    V^(C(k,2)*e)`` ahead of the remaining letters.  Central exponents stay
    in place: they commute with every letter.

    The loop ends by construction.  The letters pushed back for ``s^e`` lie
    on symbols after s (a weight-ordered basis of class at most 3), and the
    stack runs them before anything beneath, so by induction down from the
    last symbol each letter, with all it pushes, takes finitely many steps.
    """
    exps = list(start)
    rows = basis._left_rows
    top = basis._central_from
    hi = top - 1
    while hi > 0 and not exps[hi]:
        hi -= 1
    stack = list(letters)
    stack.reverse()
    while stack:
        s, e = stack.pop()
        if s >= hi:
            exps[s] += e
            if s < top:
                hi = s
            continue
        moved = []
        for t, T, U, V in rows[s]:
            k = exps[t]
            if k:
                exps[t] = 0
                moved.append((t, k))
                for part, c in ((T, e * k), (U, _comb2(e) * k), (V, _comb2(k) * e)):
                    if c:
                        for sym, a in part:
                            moved.append((sym, a * c))
        moved.reverse()
        stack += moved
        exps[s] += e
        hi = s
    return tuple(exps)


class FreeNilElement:
    """A group element in Hall normal form: one exponent per basis symbol."""

    __slots__ = ("basis", "exponents")

    def __init__(self, basis: NilpotentBasis, exponents: tuple[int, ...]):
        self.basis = basis
        self.exponents = exponents

    def letters(self) -> list[tuple[int, int]]:
        return [(i, e) for i, e in enumerate(self.exponents) if e]

    def is_identity(self) -> bool:
        return not any(self.exponents)

    def weight1_part(self) -> tuple[int, ...]:
        return self.exponents[: self.basis.rank]

    def __mul__(self, other: "FreeNilElement") -> "FreeNilElement":
        return multiply(self, other)

    def __pow__(self, n: int) -> "FreeNilElement":
        return power(self, n)

    def inverse(self) -> "FreeNilElement":
        return inverse(self)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FreeNilElement)
                and self.basis is other.basis
                and self.exponents == other.exponents)

    def __hash__(self) -> int:
        return hash((id(self.basis), self.exponents))

    def __repr__(self) -> str:
        if self.is_identity():
            return "1"
        return " ".join(
            f"{self.basis.symbols[i].name}^{e}" if e != 1 else self.basis.symbols[i].name
            for i, e in self.letters())


def collect(basis: NilpotentBasis, word) -> FreeNilElement:
    """Normal form of a word (a GroupWord or an iterable of letter pairs)."""
    if isinstance(word, GroupWord):
        word.validate(basis)
        letters = word.letters
    else:
        letters = [(int(s), int(e)) for s, e in word]
        for s, _e in letters:
            if not 0 <= s < basis.size:
                raise BasisError(f"letter index {s} invalid for basis {basis.name}")
    return FreeNilElement(basis, _collect_letters(basis, letters))


def _same_basis(a: FreeNilElement, b: FreeNilElement) -> NilpotentBasis:
    if a.basis is not b.basis:
        raise BasisError("elements live over different bases")
    return a.basis


def multiply(a: FreeNilElement, b: FreeNilElement) -> FreeNilElement:
    basis = _same_basis(a, b)
    return FreeNilElement(basis, _collect_onto(basis, a.exponents, b.letters()))


def inverse(a: FreeNilElement) -> FreeNilElement:
    letters = [(s, -e) for s, e in reversed(a.letters())]
    return FreeNilElement(a.basis, _collect_letters(a.basis, letters))


def power(a: FreeNilElement, n: int) -> FreeNilElement:
    if n == 0:
        return a.basis.identity
    if n < 0:
        return power(inverse(a), -n)
    result = None
    square = a
    while n:
        if n & 1:
            result = square if result is None else multiply(result, square)
        n >>= 1
        if n:
            square = multiply(square, square)
    return result


def commutator(a: FreeNilElement, b: FreeNilElement) -> FreeNilElement:
    basis = _same_basis(a, b)
    letters = ([(s, -e) for s, e in reversed(a.letters())]
               + [(s, -e) for s, e in reversed(b.letters())]
               + a.letters() + b.letters())
    return FreeNilElement(basis, _collect_letters(basis, letters))


class FreeEndomorphism:
    """An endomorphism of the free group, given by images of the generators."""

    __slots__ = ("basis", "images", "_symbol_images")

    def __init__(self, images: Sequence[FreeNilElement]):
        if not images:
            raise BasisError("at least one generator image required")
        basis = images[0].basis
        if len(images) != basis.rank:
            raise BasisError(f"expected {basis.rank} images, got {len(images)}")
        for im in images:
            if im.basis is not basis:
                raise BasisError("images live over different bases")
        self.basis = basis
        self.images = tuple(images)
        # Images of the higher symbols follow from the defining brackets.
        full: list[FreeNilElement] = list(self.images)
        for i in range(basis.rank, basis.size):
            hi, lo = basis.symbols[i].bracket
            full.append(commutator(full[hi], full[lo]))
        self._symbol_images = tuple(full)

    def __call__(self, a: FreeNilElement) -> FreeNilElement:
        if a.basis is not self.basis:
            raise BasisError("element not over the endomorphism's basis")
        letters: list[tuple[int, int]] = []
        for s, e in a.letters():
            letters.extend(power(self._symbol_images[s], e).letters())
        return FreeNilElement(self.basis, _collect_letters(self.basis, letters))

    def compose(self, other: "FreeEndomorphism") -> "FreeEndomorphism":
        """self after other."""
        return FreeEndomorphism(tuple(self(im) for im in other.images))

    def matrix(self) -> "IntMatrix":
        return abelianization_matrix(self.images)


class IntMatrix:
    """A small square integer matrix with its exact determinant."""

    __slots__ = ("entries", "det")

    def __init__(self, entries: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        self.entries = rows
        self.det = _det(rows)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        n = len(self.entries)
        if len(other.entries) != n:
            raise ValueError("dimension mismatch")
        return IntMatrix(tuple(
            tuple(sum(self.entries[i][k] * other.entries[k][j] for k in range(n))
                  for j in range(n))
            for i in range(n)))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({list(map(list, self.entries))}, det={self.det})"


def _det(rows: Sequence[Sequence[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    total = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in rows[1:])
        term = rows[0][j] * _det(minor)
        total += term if j % 2 == 0 else -term
    return total


def abelianization_matrix(images: Sequence[FreeNilElement]) -> IntMatrix:
    """Matrix of the induced map on the free abelianization.

    Column j holds the weight-1 exponents of the image of generator j.
    """
    if not images:
        raise BasisError("no images given")
    basis = images[0].basis
    if len(images) != basis.rank:
        raise BasisError(f"expected {basis.rank} images, got {len(images)}")
    r = basis.rank
    return IntMatrix(tuple(
        tuple(images[j].exponents[i] for j in range(r)) for i in range(r)))


@lru_cache(maxsize=None)
def builtin_basis(name: str) -> NilpotentBasis:
    """The two built-in bases.

    ``F23``: rank two, class three, symbols x, y, [y,x], [y,x,x], [y,x,y].
    ``F32``: rank three, class two, symbols x, y, z, [y,x], [z,x], [z,y].
    """
    if name == "F23":
        symbols = (
            BasisSymbol("x", 1),
            BasisSymbol("y", 1),
            BasisSymbol("[y,x]", 2, (1, 0)),
            BasisSymbol("[y,x,x]", 3, (2, 0)),
            BasisSymbol("[y,x,y]", 3, (2, 1)),
        )
        return NilpotentBasis("F23", 2, 3, symbols)
    if name == "F32":
        symbols = (
            BasisSymbol("x", 1),
            BasisSymbol("y", 1),
            BasisSymbol("z", 1),
            BasisSymbol("[y,x]", 2, (1, 0)),
            BasisSymbol("[z,x]", 2, (2, 0)),
            BasisSymbol("[z,y]", 2, (2, 1)),
        )
        return NilpotentBasis("F32", 3, 2, symbols)
    raise BasisError(f"unknown builtin basis {name!r} (expected 'F23' or 'F32')")
