"""Truncated noncommutative power series: the independent arithmetic oracle.

Each weight-1 generator ``g_i`` is sent to ``1 + X_i`` in the ring of integer
series in noncommuting variables, truncated beyond the nilpotency class.
That map is injective on normal forms for free nilpotent groups of class
at most three, and it is multiplicative by construction, so equality of
series is an oracle for equality of group elements that never touches the
collection machinery.

Monomials are tuples of letter indices; storage order is
length-lexicographic.
"""

from __future__ import annotations

from .hall import BasisError, FreeNilElement, NilpotentBasis

__all__ = ["TruncatedSeries", "magnus_embed", "word_series", "symbol_series"]


class TruncatedSeries:
    """An integer series in ``rank`` noncommuting letters, truncated in degree."""

    __slots__ = ("rank", "degree", "terms")

    def __init__(self, rank: int, degree: int, terms=None):
        self.rank = rank
        self.degree = degree
        self.terms = {m: c for m, c in (terms or {}).items() if c and len(m) <= degree}

    @classmethod
    def one(cls, rank: int, degree: int) -> "TruncatedSeries":
        return cls(rank, degree, {(): 1})

    @classmethod
    def generator(cls, rank: int, degree: int, i: int) -> "TruncatedSeries":
        if not 0 <= i < rank:
            raise ValueError("letter index out of range")
        return cls(rank, degree, {(): 1, (i,): 1})

    def constant_term(self) -> int:
        return self.terms.get((), 0)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.rank != other.rank or self.degree != other.degree:
            raise ValueError("series shapes differ")
        deg = self.degree
        acc: dict[tuple[int, ...], int] = {}
        for m1, c1 in self.terms.items():
            room = deg - len(m1)
            for m2, c2 in other.terms.items():
                if len(m2) <= room:
                    key = m1 + m2
                    acc[key] = acc.get(key, 0) + c1 * c2
        return TruncatedSeries(self.rank, deg, acc)

    def inverse(self) -> "TruncatedSeries":
        return self ** -1

    def __pow__(self, n: int) -> "TruncatedSeries":
        """(1 + u)^n = sum_k C(n, k) u^k with u = self - 1, a finite sum for
        every integer n because u^k vanishes beyond the degree."""
        if self.constant_term() != 1:
            raise ValueError("only series with constant term 1 have powers")
        u = TruncatedSeries(self.rank, self.degree,
                            {m: c for m, c in self.terms.items() if m})
        acc = {(): 1}
        uk = TruncatedSeries.one(self.rank, self.degree)
        binom = 1
        for k in range(1, self.degree + 1):
            binom = binom * (n - k + 1) // k  # exact: C(n, k-1) * (n-k+1) / k
            if not binom:
                break  # C(n, k) = 0 for 0 <= n < k
            uk = uk * u
            for m, c in uk.terms.items():
                acc[m] = acc.get(m, 0) + binom * c
        return TruncatedSeries(self.rank, self.degree, acc)

    def items_sorted(self):
        """(monomial, coefficient) pairs in length-lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncatedSeries)
                and self.rank == other.rank
                and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.rank, self.degree, tuple(self.items_sorted())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        names = "XYZWVU"
        parts = []
        for mono, coef in self.items_sorted():
            word = "".join(names[i] for i in mono) or "1"
            parts.append(f"{coef}*{word}" if word != "1" else f"{coef}")
        return " + ".join(parts)


def symbol_series(basis: NilpotentBasis, index: int) -> TruncatedSeries:
    """Series of one basis symbol; brackets expand recursively."""
    cached = basis._series_cache.get(index)
    if cached is not None:
        return cached
    sym = basis.symbols[index]
    if sym.bracket is None:
        out = TruncatedSeries.generator(basis.rank, basis.nilpotency_class, index)
    else:
        hi, lo = sym.bracket
        a = symbol_series(basis, hi)
        b = symbol_series(basis, lo)
        out = a.inverse() * b.inverse() * a * b
    basis._series_cache[index] = out
    return out


def word_series(basis: NilpotentBasis, letters) -> TruncatedSeries:
    """Series of an arbitrary word, multiplied out letter by letter."""
    out = TruncatedSeries.one(basis.rank, basis.nilpotency_class)
    for s, e in letters:
        if e:
            out = out * symbol_series(basis, s) ** e
    return out


def magnus_embed(a: FreeNilElement) -> TruncatedSeries:
    """Series of a normal form."""
    if a.basis.nilpotency_class > 3:
        raise BasisError("embedding supported for class <= 3 only")
    return word_series(a.basis, a.letters())
