"""Finite quotients of the free nilpotent groups by normal closures.

`make_quotient` reads a power-commutator style rule table off one object,
the reduced echelon of the normal closure N in the Hall coordinates of F
(`_echelon`): the relators, their conjugates by the generators and the
commutators of pivots are sifted into one pivot per leading symbol, with
equal leading symbols merged by exact integer gcd combinations.  Symbol s
gets the modulus m_s of its pivot and a tail on the symbols after s;
modulus 1 marks a symbol that is rewritten away entirely.  That the tail of
every symbol lies on the later symbols is the one invariant of a rule
table, and the `FiniteQuotient` constructor refuses a table without it,
whether it comes from `make_quotient`, a payload or a direct call.

Canonical representatives are exponent vectors with each entry in
``[0, modulus)``; `FiniteQuotient.reduce` maps any element onto its
representative in one pass down the symbols, at most one collection per
symbol, and only ever multiplies by members of the normal closure, so
cosets are preserved by construction (Sims, Computation with Finitely
Presented Groups, ch. 9).
`consistency_check` then proves, exactly, that |F/N| = n: the echelon bounds
|F/N| <= n and shows that every rule lies in N, and the dense tables are
the law of a group of order n that is an image of F/N.  Last, it proves that
index i of the tables is the normal form `decode(i)`, so the tables agree
with `reduce` on every product.  Nothing is sampled.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .hall import (
    BasisError,
    FreeNilElement,
    NilpotentBasis,
    _collect_letters,
    _collect_onto,
    builtin_basis,
    collect,
    commutator,
    inverse,
    multiply,
    power,
)

__all__ = [
    "QuotientError",
    "InfiniteIndexError",
    "RelatorSet",
    "PcElement",
    "FiniteQuotient",
    "standard_relators",
    "make_quotient",
    "standard_quotient",
    "consistency_check",
    "ConsistencyReport",
    "is_prime",
]


class QuotientError(RuntimeError):
    """An inconsistent or malformed rule table; never silently patched."""


class InfiniteIndexError(QuotientError):
    """The normal closure does not have finite index."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


@dataclass(frozen=True)
class RelatorSet:
    """Normal-closure generators over an ambient basis, with a campaign tag."""

    basis: NilpotentBasis
    relators: tuple[FreeNilElement, ...]
    label: str

    def __post_init__(self):
        for rel in self.relators:
            if rel.basis is not self.basis:
                raise BasisError("relator over the wrong basis")


def standard_relators(kind: str, p: int, r: int | None = None) -> RelatorSet:
    """The named relator families.

    ``N_r``  in F23: x^(p^2), y^p, x^(-rp)*[y,x,x], [y,x,y]
    ``K``    in F23: x^(p^2), y^p, [y,x,y]
    ``M``    in F23: x^p, y
    ``DH_M_r`` in F32: the p-th powers of the three brackets, the three mixed
    relators x^(rp)*[y,x], y^(rp)*[z,x], z^(rp)*[z,x]^-1*[z,y], and the
    p^2-th powers of the generators.  The p^2-th powers are forced by the
    quotient's exponent; without them the subgroup would depend on the
    integer r rather than on r mod p and the index would be r^3 * p^6.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if kind in ("N_r", "K", "M"):
        if p <= 3:
            raise ValueError(f"kind {kind} needs a prime greater than 3")
        basis = builtin_basis("F23")
        x, y = basis.gens()
        d = basis.generator(3)
        e = basis.generator(4)
        if kind == "K":
            rels = (power(x, p * p), power(y, p), e)
            return RelatorSet(basis, rels, f"K(p={p})")
        if kind == "M":
            rels = (power(x, p), y)
            return RelatorSet(basis, rels, f"M(p={p})")
        if r is None or not 1 <= r <= p - 1:
            raise ValueError("r must satisfy 1 <= r <= p-1")
        rels = (power(x, p * p), power(y, p),
                multiply(power(x, -r * p), d), e)
        return RelatorSet(basis, rels, f"N_r(p={p},r={r})")
    if kind == "DH_M_r":
        if p == 2:
            raise ValueError("kind DH_M_r needs an odd prime")
        if r is None or not 1 <= r <= p - 1:
            raise ValueError("r must satisfy 1 <= r <= p-1")
        basis = builtin_basis("F32")
        x, y, z = basis.gens()
        c1, c2, c3 = (basis.generator(i) for i in (3, 4, 5))
        rels = (
            power(x, p * p), power(y, p * p), power(z, p * p),
            power(c1, p), power(c2, p), power(c3, p),
            multiply(power(x, r * p), c1),
            multiply(power(y, r * p), c2),
            multiply(multiply(power(z, r * p), inverse(c2)), c3),
        )
        return RelatorSet(basis, rels, f"M_r(p={p},r={r})")
    raise ValueError(f"unknown relator kind {kind!r}")


# ---------------------------------------------------------------------------
# quotient construction
# ---------------------------------------------------------------------------

def _leading(elem: FreeNilElement) -> tuple[int, int]:
    return next((s, e) for s, e in enumerate(elem.exponents) if e)


def _sift(pivots: dict[int, FreeNilElement], elem: FreeNilElement) -> FreeNilElement:
    """Left-multiply ``elem`` by powers of pivots while its leading exponent
    is a multiple of the pivot's; what is left is the identity exactly when
    ``elem`` lies in the subgroup an induced echelon generates."""
    while not elem.is_identity():
        s, e = _leading(elem)
        piv = pivots.get(s)
        if piv is None or e % piv.exponents[s]:
            break
        elem = multiply(power(piv, -(e // piv.exponents[s])), elem)
    return elem


def _sift_in(pivots: dict[int, FreeNilElement], elem: FreeNilElement) -> list[int]:
    """Sift ``elem`` into the echelon, merging equal leading symbols by an
    xgcd combination; returns the symbols whose pivots changed.  The pivot
    and the element are replaced by two elements that generate the same
    subgroup: they do so modulo its derived subgroup, and that suffices in a
    nilpotent group."""
    changed = []
    while not (elem := _sift(pivots, elem)).is_identity():
        s, e = _leading(elem)
        changed.append(s)
        piv = pivots.get(s)
        if piv is None:
            pivots[s] = elem if e > 0 else inverse(elem)
            break
        m = piv.exponents[s]
        g, a, b = _xgcd(m, e)
        pivots[s] = multiply(power(piv, a), power(elem, b))
        elem = multiply(power(piv, -(e // g)), power(elem, m // g))
    return changed


def _reduce_pivots(pivots: dict[int, FreeNilElement]) -> list[int]:
    """Bring every coordinate of every pivot that has a pivot of its own
    into [0, m_t), by left multiplication with a power of that pivot;
    returns the symbols whose pivots changed.  The bases are ordered by
    weight, so a left factor from <g_t, g_t+1, ...> moves coordinate t by
    its own leading exponent and leaves the earlier coordinates alone."""
    changed = []
    for s in sorted(pivots):
        piv = pivots[s]
        for t in sorted(t for t in pivots if t > s):
            k = piv.exponents[t] // pivots[t].exponents[t]
            if k:
                piv = multiply(power(pivots[t], -k), piv)
        if piv is not pivots[s]:
            pivots[s] = piv
            changed.append(s)
    return changed


def _echelon(relset: RelatorSet) -> dict[int, FreeNilElement]:
    """The reduced echelon of the normal closure N of the relators in the
    Hall coordinates of F, as {symbol: pivot}; the pivot of s has leading
    symbol s with exponent m_s > 0.

    Only the arithmetic of F is used, with no rule, table or rewriting, so
    every pivot is a product of conjugates of relators and lies in N.  Each changed pivot
    re-queues its conjugates by the generators and their inverses, and its
    commutators with the other pivots (Sims, Computation with Finitely
    Presented Groups, ch. 9: the condition for an induced sequence).  When
    the queue is empty the pivots generate N and every element of N sifts
    to the identity.  So when every symbol has a pivot, |F/N| is the
    product of the m_s, and the reduced echelon is unique: it depends on N
    alone, not on the order of the work.  The loop ends because each
    re-queue follows a new pivot or a smaller m_s.
    """
    basis = relset.basis
    pivots: dict[int, FreeNilElement] = {}
    queue = deque(relset.relators)
    seen: set[tuple[int, ...]] = set()
    while queue:
        elem = queue.popleft()
        if elem.exponents in seen:
            continue
        seen.add(elem.exponents)
        changed = _sift_in(pivots, elem)
        if not changed:
            continue
        for s in sorted(set(changed).union(_reduce_pivots(pivots))):
            piv = pivots[s]
            for g in range(basis.rank):
                for sign in (1, -1):
                    queue.append(collect(basis, [(g, -sign)] + piv.letters() + [(g, sign)]))
            queue.extend(commutator(piv, other) for t, other in pivots.items() if t != s)
    return pivots


def make_quotient(relset: RelatorSet) -> "FiniteQuotient":
    """The rule table of F/N read off the reduced echelon of N: symbol s
    gets the modulus m_s of its pivot and, as tail, the inverse of the rest
    of the pivot.  Every tail lives on symbols after s, as the constructor
    requires."""
    basis = relset.basis
    pivots = _echelon(relset)
    missing = [basis.symbols[s].name for s in range(basis.size) if s not in pivots]
    if missing:
        raise InfiniteIndexError(
            f"no modulus for symbol(s) {', '.join(missing)}: "
            f"the normal closure of {relset.label} has infinite index")
    moduli = tuple(pivots[s].exponents[s] for s in range(basis.size))
    tails = [inverse(FreeNilElement(basis, (0,) * (s + 1) + pivots[s].exponents[s + 1:]))
             for s in range(basis.size)]
    raw = FiniteQuotient(basis, relset, moduli, tuple(t.exponents for t in tails))
    # canonical tails, so the rule table serializes deterministically
    quotient = FiniteQuotient(basis, relset, moduli,
                              tuple(raw.reduce(t).vector for t in tails))
    for src in relset.relators:
        if not quotient.reduce(src).is_identity():
            raise QuotientError(
                f"inconsistent rule table for {relset.label}: relator "
                f"{src!r} does not reduce to the identity")
    return quotient


class PcElement:
    """A canonical representative in a finite quotient."""

    __slots__ = ("quotient", "vector")

    def __init__(self, quotient: "FiniteQuotient", vector: tuple[int, ...]):
        self.quotient = quotient
        self.vector = vector

    def letters(self) -> list[tuple[int, int]]:
        return [(i, e) for i, e in enumerate(self.vector) if e]

    def lift(self) -> FreeNilElement:
        return FreeNilElement(self.quotient.basis, self.vector)

    def is_identity(self) -> bool:
        return not any(self.vector)

    def index(self) -> int:
        return self.quotient.encode(self.vector)

    def __mul__(self, other: "PcElement") -> "PcElement":
        return self.quotient.pc_multiply(self, other)

    def __pow__(self, n: int) -> "PcElement":
        return self.quotient.pc_power(self, n)

    def inverse(self) -> "PcElement":
        return self.quotient.pc_inverse(self)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PcElement)
                and self.quotient is other.quotient
                and self.vector == other.vector)

    def __hash__(self) -> int:
        return hash((id(self.quotient), self.vector))

    def __repr__(self) -> str:
        if self.is_identity():
            return "1"
        basis = self.quotient.basis
        return " ".join(
            f"{basis.symbols[i].name}^{e}" if e != 1 else basis.symbols[i].name
            for i, e in self.letters())


class FiniteQuotient:
    """A finite quotient presented by per-symbol moduli and rewrite tails.

    ``moduli[s] == 1`` marks an eliminated symbol whose occurrences are
    replaced by ``tails[s]``; otherwise ``s^moduli[s]`` rewrites to
    ``tails[s]``.  The group order is the product of the moduli.  Every
    tail must lie on the symbols after its own, or the table is refused.
    """

    def __init__(self, basis: NilpotentBasis, relator_set: RelatorSet,
                 moduli: tuple[int, ...], tails: tuple[tuple[int, ...], ...]):
        if (len(moduli) != basis.size or len(tails) != basis.size
                or any(len(t) != basis.size for t in tails)):
            raise QuotientError("rule table shape mismatch")
        self.basis = basis
        self.relator_set = relator_set
        self.label = relator_set.label
        self.moduli = tuple(int(m) for m in moduli)
        self.tails = tuple(tuple(int(e) for e in t) for t in tails)
        if any(m < 1 for m in self.moduli):
            raise QuotientError(f"moduli {self.moduli} must all be at least 1")
        for s, tail in enumerate(self.tails):
            if any(tail[:s + 1]):
                name = basis.symbols[s].name
                raise QuotientError(f"{self.label}: the tail of {name} has a "
                                    f"coordinate on {name} or an earlier symbol")
        self.order = 1
        for m in self.moduli:
            self.order *= m
        self.pc_symbols = tuple(s for s, m in enumerate(self.moduli) if m > 1)
        strides = [0] * basis.size
        acc = 1
        for s in reversed(self.pc_symbols):
            strides[s] = acc
            acc *= self.moduli[s]
        self._strides = tuple(strides)
        self._rules = tuple(
            (self.moduli[s], FreeNilElement(basis, self.tails[s]))
            for s in range(basis.size))
        self.identity = PcElement(self, (0,) * basis.size)

    @cached_property
    def dense(self):
        """The `lab.DenseGroup` tables of this quotient, built on first use."""
        from .lab import DenseGroup

        return DenseGroup(self)

    # -- prime of a p-group quotient ----------------------------------------

    @property
    def prime(self) -> int:
        n = self.order
        if n == 1:
            raise QuotientError("trivial quotient has no prime")
        p = 2
        while n % p:
            p += 1
        while n % p == 0:
            n //= p
        if n != 1:
            raise QuotientError(f"order {self.order} is not a prime power")
        return p

    # -- reduction -----------------------------------------------------------

    def reduce(self, elem: FreeNilElement) -> PcElement:
        """The normal form of ``elem``, in one pass down the symbols.

        At symbol s with e_s outside [0, m_s), ``s^e_s`` is ``s^rem *
        (s^m_s)^q`` and ``s^m_s`` is rewritten to its tail.  The tail power
        and the letters after s lie on the later symbols, so collecting them
        onto the prefix leaves coordinates <= s alone: each symbol is
        settled once, and only members of the normal closure are dropped.
        """
        if elem.basis is not self.basis:
            raise BasisError("element over the wrong basis")
        vec = elem.exponents
        for s, (m, tail) in enumerate(self._rules):
            e = vec[s]
            if 0 <= e < m:
                continue
            q, rem = divmod(e, m)
            suffix = vec[s + 1:]
            if tail.is_identity():
                vec = vec[:s] + (rem,) + suffix
                continue
            letters = power(tail, q).letters()
            letters += [(t, k) for t, k in enumerate(suffix, s + 1) if k]
            vec = _collect_onto(self.basis, vec[:s] + (rem,) + (0,) * len(suffix),
                                letters)
        return PcElement(self, vec)

    def reduce_letters(self, letters) -> PcElement:
        elem = FreeNilElement(self.basis, _collect_letters(self.basis, letters))
        return self.reduce(elem)

    def membership(self, elem: FreeNilElement) -> bool:
        return self.reduce(elem).is_identity()

    # -- canonical arithmetic --------------------------------------------------

    def element(self, vector: Sequence[int]) -> PcElement:
        vec = tuple(int(v) for v in vector)
        if len(vec) != self.basis.size:
            raise QuotientError("vector length mismatch")
        return self.reduce(FreeNilElement(self.basis, vec))

    def pc_multiply(self, a: PcElement, b: PcElement) -> PcElement:
        if a.quotient is not self or b.quotient is not self:
            raise QuotientError("elements from a different quotient")
        return self.reduce(FreeNilElement(
            self.basis, _collect_onto(self.basis, a.vector, b.letters())))

    def pc_inverse(self, a: PcElement) -> PcElement:
        letters = [(s, -e) for s, e in reversed(a.letters())]
        return self.reduce_letters(letters)

    def pc_power(self, a: PcElement, n: int) -> PcElement:
        if n == 0:
            return self.identity
        base = a if n > 0 else self.pc_inverse(a)
        n = abs(n)
        result = None
        while n:
            if n & 1:
                result = base if result is None else self.pc_multiply(result, base)
            n >>= 1
            if n:
                base = self.pc_multiply(base, base)
        return result

    def generator_image(self, s: int) -> PcElement:
        return self.reduce(self.basis.generator(s))

    # -- dense indexing --------------------------------------------------------

    def encode(self, vector: Sequence[int]) -> int:
        idx = 0
        for s in self.pc_symbols:
            idx += vector[s] * self._strides[s]
        return idx

    def decode(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.order:
            raise QuotientError(
                f"index {index} outside [0, {self.order}) in {self.label}")
        vec = [0] * self.basis.size
        for s in self.pc_symbols:
            vec[s], index = divmod(index, self._strides[s])
        return tuple(vec)

    # -- serialization ---------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "format": "nilforge-quotient/1",
            "basis": self.basis.name,
            "label": self.label,
            "moduli": list(self.moduli),
            "tails": [list(t) for t in self.tails],
            "relators": [list(r.exponents) for r in self.relator_set.relators],
            "order": str(self.order),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FiniteQuotient":
        if payload.get("format") != "nilforge-quotient/1":
            raise QuotientError("unknown quotient payload format")
        basis = builtin_basis(payload["basis"])
        relators = tuple(FreeNilElement(basis, tuple(map(int, r)))
                         for r in payload["relators"])
        relset = RelatorSet(basis, relators, payload["label"])
        q = cls(basis, relset, tuple(map(int, payload["moduli"])),
                tuple(tuple(map(int, t)) for t in payload["tails"]))
        if str(q.order) != payload["order"]:
            raise QuotientError("stored order does not match the moduli")
        return q

    def __repr__(self) -> str:
        return f"FiniteQuotient({self.label}, order={self.order})"


def standard_quotient(kind: str, p: int, r: int | None = None) -> FiniteQuotient:
    """A freshly built quotient for one of the standard relator families.
    Nothing is memoized: the caller owns the quotient and its tables."""
    return make_quotient(standard_relators(kind, p, r))


# ---------------------------------------------------------------------------
# consistency checking
# ---------------------------------------------------------------------------

@dataclass
class ConsistencyReport:
    label: str
    order: int
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _name, ok, _d in self.checks)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.checks if not ok]


def consistency_check(q: FiniteQuotient) -> ConsistencyReport:
    """Prove, exactly and at every order, that the tables of a quotient are
    F/N in its normal forms.

    `order-bound` shows |F/N| <= n and that every rule holds in F/N (see
    `_order_bound`); `group-certificate` shows that the dense tables are the
    law of a group of order n that is an image of F/N (see
    `_group_certificate`); `normal-forms` shows that index i of the tables
    is the normal form `decode(i)` (see `_normal_forms`).  Nothing is
    sampled.  A table that `lab.DenseGroup` refuses to build is recorded as
    a failed `table-build`, not raised.
    """
    rep = ConsistencyReport(q.label, q.order)
    rep.record("order-bound", *_order_bound(q))
    try:
        dense = q.dense
    except QuotientError as ex:
        rep.record("table-build", False, f"the dense tables were not built: {ex}")
        return rep
    ok, detail = _group_certificate(q, dense)
    rep.record("group-certificate", ok, detail)
    if ok:
        rep.record("normal-forms", *_normal_forms(q, dense))
    return rep


def _order_bound(q: FiniteQuotient) -> tuple[bool, str]:
    """Exact proof that |F/N| <= n and that every rule of the table holds
    in F/N, from the relators alone: no rule, table or rewriting is used.

    Every pivot of `_echelon` lies in N.  Left multiplication by a power of
    the pivot of s moves coordinate s by a multiple of m_s and leaves the
    earlier coordinates alone, so when every symbol has a pivot every coset
    of N holds a normal form with 0 <= e_s < m_s, and |F/N| <= prod m_s.
    A rule element ``s^(m_s) * tail_s^-1`` that sifts to the identity is a
    product of pivot powers, so it lies in N.  With `group-certificate`
    (|F/N| >= n) this proves |F/N| = n, and that `reduce` and `membership`
    are exact.  Returns (ok, detail); the detail names the first failure.
    """
    basis = q.basis
    pivots = _echelon(q.relator_set)
    missing = [basis.symbols[s].name for s in range(basis.size) if s not in pivots]
    if missing:
        return False, f"no pivot for {', '.join(missing)}"
    bound = math.prod(piv.exponents[s] for s, piv in pivots.items())
    if bound != q.order:
        return False, f"the pivot moduli multiply to {bound}, not {q.order}"
    for s, (m, tail) in enumerate(q._rules):
        rule = multiply(power(basis.generator(s), m), inverse(tail))
        if not _sift(pivots, rule).is_identity():
            return False, f"the rule of {basis.symbols[s].name} does not lie in N"
    return True, f"|F/N| <= {bound}, every rule lies in N"


def _group_certificate(q: FiniteQuotient, dense) -> tuple[bool, str]:
    """Exact proof that `dense.mult` is the law of a group of order n that
    is an image of F/N, at every order, in O(n) work per slab.

    The slabs are per base-p digit of the index (see `lab.DenseGroup`).
    With rho_k the slab row 1 of digit k, b_k the digit k of b,
    P = <rho_k> and pi_b = rho_1^b_1 ... rho_K^b_K, `mult(a, b)` is
    a . pi_b.  Let lam_k = mult(e_k, .) with e_k the stride of digit k,
    the index of its step g^(p^j).  The argument holds for any family of
    row permutations, so it does not depend on how the digits refine the
    pc symbols.
    1. slabs: each row 1 permutes range(n), row 0 is the identity and row
       e is row 1 after row e-1, so every pi_b lies in P and pi_0 = id;
    2. right orbit: 0 . pi_b = b, so P is transitive;
    3. commutation: each lam_k commutes with each rho_s, so with P;
    4. left orbit: lam_1^b_1 ... lam_K^b_K sends 0 to b for every b.
    By 3 and 4, a point stabiliser of P fixes every b, so P is regular
    (Dixon & Mortimer, Thm 4.2A), pi_b is the one element of P taking 0 to
    b, and `mult` is the law of P: associative, with identity 0.
    5. image of F/N: the generator images generate, the class is at most
    that of the basis, and every relator evaluates to 0.  The class is at
    most c exactly when every left-normed commutator of weight c + 1 in the
    generators and their inverses is 0, since those generate gamma_(c+1).
    By 1-4 the tables are a group of order n, so `dense.inv`, built as
    ``g^(n-1)``, is exact: the commutators are `dense.comm` and the
    relators are evaluated by `lab._word_values`.
    Returns (ok, detail); the detail names the first step that fails.
    """
    from .lab import _word_values

    n, p = dense.n, dense.p
    idx = np.arange(n, dtype=np.int64)
    for tab in dense.slabs:
        if not (tab.shape == (p, n) and np.array_equal(tab[0], idx)
                and np.array_equal(np.sort(tab[1]), idx)
                and all(np.array_equal(tab[e], tab[1][tab[e - 1]])
                        for e in range(2, p))):
            return False, "slab rows"
    if not np.array_equal(dense.mult(0, idx), idx):
        return False, "right orbit of 0"
    rhos = [tab[1] for tab in dense.slabs]
    lams = [dense.mult(st, idx) for st in dense._strides]
    if not all(np.array_equal(rho[lam], lam[rho]) for lam in lams for rho in rhos):
        return False, "left and right translations do not commute"
    cur = np.zeros(n, dtype=np.int64)
    for lam, st in reversed(list(zip(lams, dense._strides))):
        digit = idx // st % p
        for j in range(p - 1):
            cur = np.where(digit > j, lam[cur], cur)
    if not np.array_equal(cur, idx):
        return False, "left orbit of 0"
    gens = dense.gen_indices()
    if dense.closure(gens).size != n:
        return False, "generator images do not generate"
    xs = np.array(gens, dtype=np.int64)
    xs = np.concatenate([xs, dense.inv[xs]])
    comms = xs
    for _ in range(q.basis.nilpotency_class):
        comms = dense.comm(comms[:, None], xs).ravel()
    if comms.any():
        return False, "class exceeds that of the basis"
    if any(_word_values(q.basis, q.relator_set.relators, dense, gens)):
        return False, "relators do not vanish on the tables"
    return True, "regular right action, image of F/N"


def _normal_forms(q: FiniteQuotient, dense) -> tuple[bool, str]:
    """Exact proof that index i of the tables is the normal form
    `decode(i)`, in O(n) array work: one `mult` per pc symbol.

    Run after `group-certificate`, so the generator images define an
    epimorphism phi: F/N -> table group; with `order-bound` the orders are
    equal and phi is an isomorphism.  The image of each pc symbol is its
    value under phi (`lab._word_values`), and phi(decode(i)) is the product
    of those images raised to the digits of i, in pc order.  When that is
    i for every i, ``mult(i, j) = phi(decode(i) * decode(j))``, which is
    the index of `pc_multiply`: the tables agree with symbolic reduction on
    all n^2 pairs, and `reduce` retracts onto the normal forms (Sims,
    Computation with Finitely Presented Groups, ch. 9).
    Returns (ok, detail); the detail names the first index that fails.
    """
    from .lab import _word_values

    n = dense.n
    words = [q.basis.generator(s) for s in q.pc_symbols]
    images = _word_values(q.basis, words, dense, dense.gen_indices())
    idx = np.arange(n, dtype=np.int64)
    got = np.zeros(n, dtype=np.int64)
    for s, image in zip(q.pc_symbols, images):
        pows = [0]
        for _ in range(1, q.moduli[s]):
            pows.append(dense.mult(pows[-1], image))
        digits = (idx // q._strides[s]) % q.moduli[s]
        got = dense.mult(got, np.asarray(pows, dtype=np.int64)[digits])
    bad = np.flatnonzero(got != idx)
    if bad.size:
        return False, (f"{bad.size} of {n} normal forms evaluate elsewhere, "
                       f"first decode({bad[0]}) at {got[bad[0]]}")
    return True, f"all {n} normal forms evaluate to their index"
