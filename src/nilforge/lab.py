"""Structural analysis of the finite quotients.

Each quotient of interest is small (at most ~1.2e5 elements, and at most 1e4
wherever exhaustive search runs), so this module materializes a quotient as
index arrays: translation tables, inverse and order arrays, and the
projection onto the Frattini quotient.  Everything downstream - centers,
closures, lower central series, maximal subgroups, and the exhaustive
homomorphism searches - runs vectorized over those arrays, and a subgroup
is the sorted int64 array of its element indices.  The tables are
one int32 slab of p rows per base-p digit of the canonical index (about
20 MB at order 7^6); orders with p * n >= 2^31 are refused.  The
translation rows of the pc symbols are built by induction down the pc
series (`_pc_rows`), from one scalar `FiniteQuotient.reduce` per
conjugation and power relation; a p-th power step's row is composed from
the row of its symbol.
`consistency_check` certifies exactly that the tables are a group law
(`quotients._group_certificate`) whose index i is the normal form
`decode(i)` (`quotients._normal_forms`), so they agree with symbolic
`FiniteQuotient.reduce`, an independent code path, on every product.

Every generator-image scan - the isomorphisms between quotients and their
Frattini determinants here, the monomial lifts in `dh` - runs through one
engine, `_transport_tuples`.  It reads the relators from the source
quotient.  A relator in one generator filters that generator's candidate
list once, before any grid.  Every other relator is checked as soon as the
generators it mentions have images, on bounded grids, and only on the
cells that the relators tried before it left alive; the relators that have
ruled out the most cells so far in the scan are tried first.  Its word
evaluator `_word_values` is the one evaluator of words on the tables, and
computes only the brackets its words use: it also runs the batched psi
checks of `orbits.PsiBatch` and evaluates the relators and pc symbol
images of the consistency proof.
Bijectivity is one determinant routine, `hall._det`, over entry arrays.
Enumeration output is deterministic: candidate tuples come out in
lexicographic index order, so results do not depend on chunking or on
the order in which relators are tried.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Iterator, Mapping, Sequence

import numpy as np

from .hall import _det
from .quotients import FiniteQuotient, PcElement, QuotientError

__all__ = [
    "DenseGroup",
    "FrattiniMatrix",
    "subgroup_functors",
    "series_invariants",
    "SeriesInvariants",
    "maximal_subgroups",
    "is_isomorphic",
    "IsoScanSummary",
    "isomorphism_det_scan",
]

_SCAN_BOUND = 130_000  # admits the order-7^6 quotient
_SEARCH_BOUND = 10_000


def _row_powers(row: np.ndarray, m: int) -> np.ndarray:
    """The (m, len(row)) int32 table whose row e is ``row`` applied e times."""
    tab = np.empty((m, row.size), dtype=np.int32)
    tab[0] = np.arange(row.size)
    for e in range(1, m):
        tab[e] = row[tab[e - 1]]
    return tab


def _times(q: FiniteQuotient, pows: dict, a, b):
    """a * b in a subgroup G_k, one gather per pc symbol j of G_k, whose
    row powers are ``pows[j]``."""
    for j, tab in pows.items():
        a = tab[b // q._strides[j] % q.moduli[j], a]
    return a


def _pc_rows(q: FiniteQuotient) -> dict[int, np.ndarray]:
    """For every pc symbol s, the int32 row sending index a to the index of
    ``a * g_s``, by induction up from the last pc symbol.

    G_k = <g_k, g_k+1, ...> is the index prefix [0, n_k), the extension of
    G_k+1 by <g_t> for t the k-th pc symbol (Holt, Eick & O'Brien, Handbook
    of Computational Group Theory, ch. 8): with n' = n_k+1, index e * n' + h
    is ``g_t^e * h``.  With phi(h) = g_t^-1 * h * g_t and m the modulus of
    t, ``(g_t^e * h) * g_t`` is ``g_t^(e+1) * phi(h)``, where g_t^m is one
    element w of G_k+1, and ``(g_t^e * h) * g_j = g_t^e * (h * g_j)`` for
    every later j.  The relations g_t^-1 * g_j * g_t and g_t^m are one
    scalar `reduce` each, and both lie in G_k+1: in F they lie on t and the
    later symbols, and a reduction whose tails lie on later symbols (the
    invariant `FiniteQuotient` checks) leaves coordinate t at 0.  Raises
    QuotientError naming t when phi is not a permutation.
    """
    rows: dict[int, np.ndarray] = {}
    n1 = 1
    for k, t in reversed(list(enumerate(q.pc_symbols))):
        m, later = q.moduli[t], q.pc_symbols[k + 1:]
        *conj, w = (q.reduce_letters(word).index() for word in
                    [[(t, -1), (j, 1), (t, 1)] for j in later] + [[(t, m)]])
        idx = np.arange(n1, dtype=np.int32)
        pows = {j: _row_powers(rows[j], q.moduli[j]) for j in later}
        phi = np.zeros(n1, dtype=np.int32)
        for j, c in zip(later, conj):
            cpow = [0]  # c^e for e < m_j
            for _ in range(1, q.moduli[j]):
                cpow.append(_times(q, pows, cpow[-1], c))
            digits = idx // q._strides[j] % q.moduli[j]
            phi = _times(q, pows, phi, np.array(cpow, dtype=np.int32)[digits])
        if not np.array_equal(np.sort(phi), idx):
            raise QuotientError(
                f"{q.label}: conjugation by {q.basis.symbols[t].name} "
                "is not a permutation")
        last = _times(q, pows, np.full(n1, w, dtype=np.int32), phi)
        shift = np.arange(m, dtype=np.int32)[:, None] * np.int32(n1)
        rows = {j: (shift + row).ravel() for j, row in rows.items()}
        rows[t] = np.concatenate([(shift[1:] + phi).ravel(), last])
        n1 *= m
    return rows


class DenseGroup:
    """Index-level view of a finite quotient.

    Every modulus of a p-group quotient is a power of p, so the canonical
    index is a base-p number.  Its digit of stride ``st * p^j``, with ``st``
    the stride of pc symbol k, is the exponent of the step ``g_k^(p^j)`` of
    the pc series refined to relative order p (Holt, Eick & O'Brien,
    Handbook of Computational Group Theory, ch. 8).  The tables hold one
    ``(p, n)`` int32 slab per digit t, whose row e sends index a to the
    index of ``a * g_t^e``; `mult` walks the digits with flat gathers.
    `slabs`, `_strides` and `_offsets` are per digit, in pc order and,
    within a symbol, lowest digit first; digit t of index i is
    ``i // _strides[t] % p``.  The row of each pc symbol comes from
    `_pc_rows`.
    """

    def __init__(self, quotient: FiniteQuotient):
        self.quotient = quotient
        self.n = n = quotient.order
        self.p = p = quotient.prime
        if p * n >= 2 ** 31:
            raise QuotientError(
                f"{quotient.label}: order {n} overflows int32 tables")
        self.pc_syms = quotient.pc_symbols
        # the builder's temporaries die with it, before any slab is allocated
        rows = _pc_rows(quotient)
        self._strides: list[int] = []
        self.slabs: list[np.ndarray] = []
        for s in self.pc_syms:
            st, m, row = quotient._strides[s], quotient.moduli[s], rows.pop(s)
            while m > 1:  # one slab per digit; row becomes g^(p^j) each time
                tab = _row_powers(row, p)
                self.slabs.append(tab)
                self._strides.append(st)
                row = row[tab[-1]]
                st *= p
                m //= p
        # digit * n: where that digit's row starts in its flattened slab
        idx = np.arange(n, dtype=np.int64)
        self._offsets = [(idx // st % p * n).astype(np.int32)
                         for st in self._strides]

    # -- arithmetic ------------------------------------------------------------

    def mult(self, a, b):
        aa = np.asarray(a, dtype=np.int64)
        bb = np.asarray(b, dtype=np.int64)
        shape = np.broadcast_shapes(aa.shape, bb.shape)
        # the flat gathers would read a neighbouring row for an index a
        # outside [0, n), and the offset lookup wraps a negative b
        for x in (aa, bb):
            if x.size and (x.min() < 0 or x.max() >= self.n):
                raise IndexError(f"element index outside [0, {self.n})")
        out = np.broadcast_to(aa, shape)
        # a * b = a * g_1^d_1(b) * ... * g_T^d_T(b): row d_t(b) of slab t
        # starts at offset d_t(b) * n of the flattened slab, so each step is
        # one 1-D gather
        for slab, off in zip(self.slabs, self._offsets):
            out = slab.ravel().take(out + off[bb])
        return out if shape else int(out)

    @cached_property
    def inv(self) -> np.ndarray:
        # (g_1^e_1 ... g_T^e_T)^-1 = g_T^-e_T ... g_1^-e_1, g_t^-1 = g_t^(n-1)
        q = self.quotient
        syms = self.pc_syms[::-1]
        gens = np.array([q._strides[s] for s in syms], dtype=np.int64)
        pows = [0 * gens, self.power(gens, self.n - 1)]  # row e: each g_t^-e
        while len(pows) < max(q.moduli):
            pows.append(self.mult(pows[-1], pows[1]))
        pows = np.array(pows)
        idx = np.arange(self.n, dtype=np.int64)
        inv = np.zeros(self.n, dtype=np.int64)
        for k, s in enumerate(syms):
            inv = self.mult(inv, pows[idx // q._strides[s] % q.moduli[s], k])
        if not (self.mult(idx, inv) == 0).all():
            raise QuotientError(f"inverse table of {q.label} is inconsistent")
        return inv.astype(np.int64)

    def power(self, a, e: int):
        aa = np.asarray(a, dtype=np.int64)
        # checked for every exponent: inv would wrap a negative index, and
        # e = 0 reaches no mult
        if aa.size and (aa.min() < 0 or aa.max() >= self.n):
            raise IndexError(f"element index outside [0, {self.n})")
        scalar = aa.shape == ()
        if e == 0:
            return 0 if scalar else np.zeros(aa.shape, dtype=np.int64)
        if e < 0:
            aa = self.inv[aa]
            e = -e
        res, base = None, aa  # square and multiply from the first factor
        while True:
            if e & 1:
                res = np.array(base) if res is None else self.mult(res, base)
            e >>= 1
            if not e:
                return int(res) if scalar else res
            base = self.mult(base, base)

    @cached_property
    def orders(self) -> np.ndarray:
        o = np.ones(self.n, dtype=np.int64)
        cur = np.arange(self.n, dtype=np.int64)
        guard = 0
        while True:
            alive = cur != 0
            if not alive.any():
                return o
            cur = np.where(alive, self.power(cur, self.p), 0)
            o[alive] *= self.p
            guard += 1
            if guard > 64:  # pragma: no cover
                raise QuotientError("element order computation ran away")

    def comm(self, a, b):
        ia = self.inv[np.asarray(a, dtype=np.int64)]
        ib = self.inv[np.asarray(b, dtype=np.int64)]
        return self.mult(self.mult(self.mult(ia, ib), a), b)

    def conj(self, a, b):
        """b^-1 a b."""
        ib = self.inv[np.asarray(b, dtype=np.int64)]
        return self.mult(self.mult(ib, a), b)

    def element(self, idx: int) -> PcElement:
        return PcElement(self.quotient, self.quotient.decode(int(idx)))

    def gen_indices(self) -> list[int]:
        """Indices of the images of the ambient weight-1 generators."""
        q = self.quotient
        return [q.generator_image(j).index() for j in range(q.basis.rank)]

    # -- Frattini projection -----------------------------------------------------

    @cached_property
    def coords(self) -> np.ndarray:
        """Projection onto the Frattini quotient: per element, the exponents
        of the non-eliminated weight-1 symbols mod p.  The kernel is checked
        against the computed Frattini subgroup once per group."""
        q = self.quotient
        w1 = [s for s in self.pc_syms if s < q.basis.rank]
        idx = np.arange(self.n, dtype=np.int64)
        cols = [(idx // q._strides[s]) % self.p for s in w1]
        coords = (np.stack(cols, axis=1) if cols
                  else np.zeros((self.n, 0), dtype=np.int64))
        coords = coords.astype(np.int64)
        self._check_frattini_kernel(coords)
        return coords

    @property
    def frattini_dim(self) -> int:
        return self.coords.shape[1]

    def _check_frattini_kernel(self, coords: np.ndarray) -> None:
        claimed = np.flatnonzero((coords % self.p == 0).all(axis=1))
        # G' and G^p are normal, so the closure of their union is G'G^p
        f = self.functors
        phi = self.closure(np.union1d(f["derived"], f["agemo_p"]))
        if not np.array_equal(phi, claimed):  # pragma: no cover - sanity
            raise QuotientError(
                f"Frattini projection of {self.quotient.label} is inconsistent")

    # -- subgroups: sorted int64 index arrays ----------------------------------------

    def closure(self, gen_idxs: Sequence[int]) -> np.ndarray:
        """Sorted indices of the subgroup generated by the given elements.

        The generators are taken in index order, and one that already lies
        in the subgroup built so far is skipped; each new one extends that
        subgroup by a frontier search over the generators chosen so far.
        At most log_p(n) generators are new, so closing a subgroup plus a
        few elements costs a search over the result only."""
        gens = np.unique(np.asarray(gen_idxs, dtype=np.int64))
        if gens.size and (gens[0] < 0 or gens[-1] >= self.n):
            raise IndexError(f"element index outside [0, {self.n})")
        member = np.zeros(self.n, dtype=bool)
        member[0] = True
        chosen = np.empty(0, dtype=np.int64)
        while (gens := gens[~member[gens]]).size:
            chosen = np.append(chosen, gens[0])
            # the subgroup H is closed under the earlier generators, so a new
            # element is h * gens[0] * w for some h in H and word w in chosen
            frontier = self.mult(np.flatnonzero(member), gens[0])
            while (frontier := np.unique(frontier[~member[frontier]])).size:
                member[frontier] = True
                frontier = self.mult(frontier[:, None], chosen[None, :]).ravel()
        return np.flatnonzero(member)

    def normal_closure(self, gen_idxs: Sequence[int]) -> np.ndarray:
        current = self.closure(gen_idxs)
        gens = np.asarray(self.gen_indices(), dtype=np.int64)
        while True:
            conj = self.conj(current[:, None], gens[None, :]).ravel()
            conj = np.unique(conj)
            if np.isin(conj, current, assume_unique=False).all():
                return current
            current = self.closure(np.union1d(current, conj))

    def center_indices(self) -> np.ndarray:
        idx = np.arange(self.n, dtype=np.int64)
        mask = np.ones(self.n, dtype=bool)
        for s in self.pc_syms:
            g = self.quotient._strides[s]  # the index of pc generator s
            mask &= self.mult(idx, g) == self.mult(g, idx)
        return np.flatnonzero(mask)

    def is_abelian(self, S: np.ndarray) -> bool:
        """Whether the elements with indices S commute pairwise."""
        S = np.asarray(S, dtype=np.int64)
        chunk = max(1, 4_000_000 // max(S.size, 1))
        for start in range(0, S.size, chunk):
            blk = S[start:start + chunk]
            if not (self.mult(blk[:, None], S[None, :])
                    == self.mult(S[None, :], blk[:, None])).all():
                return False
        return True

    @cached_property
    def functors(self) -> dict[str, np.ndarray]:
        """The center, the derived subgroup and the subgroup generated by
        the p-th powers, as sorted index arrays."""
        gens = self.gen_indices()
        comms = [int(self.comm(a, b)) for a, b in combinations(gens, 2)]
        pows = self.power(np.arange(self.n, dtype=np.int64), self.p)
        return {"center": self.center_indices(),
                "derived": self.normal_closure(comms),
                "agemo_p": self.closure(pows)}

    @cached_property
    def series(self) -> SeriesInvariants:
        """Order, exponent, class and lower central series orders."""
        n = self.n
        exponent = int(self.orders.max()) if n > 1 else 1
        gens = np.asarray(self.gen_indices(), dtype=np.int64)
        gamma = np.arange(n, dtype=np.int64)
        lcs = [n]
        while gamma.size > 1:
            comms = np.unique(self.comm(gamma[:, None], gens[None, :]))
            nxt = self.normal_closure(list(comms))
            if nxt.size == gamma.size:  # pragma: no cover - not nilpotent
                raise QuotientError("lower central series does not descend")
            gamma = nxt
            lcs.append(int(gamma.size))
        return SeriesInvariants(n, exponent, len(lcs) - 1, tuple(lcs))


def _scan_tables(q: FiniteQuotient) -> DenseGroup:
    """The tables of q, refused before any is built when q is too large for
    element scans."""
    if q.order > _SCAN_BOUND:
        raise QuotientError("group too large for element scans")
    return q.dense


def subgroup_functors(q: FiniteQuotient) -> dict[str, np.ndarray]:
    """Center, derived subgroup, and the subgroup of p-th powers, as sorted
    index arrays (`DenseGroup.functors`)."""
    return _scan_tables(q).functors


@dataclass(frozen=True)
class SeriesInvariants:
    order: int
    exponent: int
    nilpotency_class: int
    lower_central_orders: tuple[int, ...]


def series_invariants(q: FiniteQuotient) -> SeriesInvariants:
    return _scan_tables(q).series


def maximal_subgroups(q: FiniteQuotient) -> list[np.ndarray]:
    """The maximal subgroups as sorted index arrays: preimages of the
    hyperplanes of the Frattini quotient, one per normalized covector,
    (p^d - 1)/(p - 1) in total."""
    dense = _scan_tables(q)
    coords = dense.coords
    d = dense.frattini_dim
    p = dense.p
    out = []
    for vec in product(range(p), repeat=d):
        arr = np.array(vec, dtype=np.int64)
        nz = np.flatnonzero(arr)
        if nz.size == 0 or arr[nz[0]] != 1:
            continue  # normalize: first nonzero coefficient is 1
        out.append(np.flatnonzero((coords @ arr) % p == 0))
    return out


@dataclass(frozen=True)
class FrattiniMatrix:
    """Matrix of an induced map on the Frattini quotient, over F_p."""

    p: int
    entries: tuple[tuple[int, ...], ...]

    @property
    def det(self) -> int:
        return _det(self.entries) % self.p

    @property
    def invertible(self) -> bool:
        return self.det % self.p != 0

    def __mul__(self, other: "FrattiniMatrix") -> "FrattiniMatrix":
        if self.p != other.p or len(self.entries) != len(other.entries):
            raise ValueError("shape or characteristic mismatch")
        n = len(self.entries)
        return FrattiniMatrix(self.p, tuple(
            tuple(sum(self.entries[i][k] * other.entries[k][j]
                      for k in range(n)) % self.p for j in range(n))
            for i in range(n)))


def _pc_weight1(q: FiniteQuotient) -> list[int]:
    return [s for s in q.pc_symbols if s < q.basis.rank]


# ---------------------------------------------------------------------------
# exhaustive generator-image search
# ---------------------------------------------------------------------------

_GRID = 1 << 13  # elements per relator-evaluation grid; bounds scan memory


def _word_values(basis, words, dtgt: DenseGroup,
                 images: Sequence | Mapping[int, np.ndarray]
                 ) -> Iterator[np.ndarray]:
    """The value of each word in the target, one word at a time, as an
    int64 index array over the broadcast shape of the ambient generator
    images.  ``images`` is a sequence over the first generators, or a
    mapping from generator to image; the words may mention no other
    generator.  Only the bracket symbols the words use, and their bracket
    components, are computed, in symbol order."""
    syms = {j: np.asarray(im, dtype=np.int64) for j, im in
            (images.items() if isinstance(images, Mapping) else enumerate(images))}
    for im in syms.values():  # a letter of exponent 1 reaches no mult
        if im.size and (im.min() < 0 or im.max() >= dtgt.n):
            raise IndexError(f"element index outside [0, {dtgt.n})")
    shape = np.broadcast_shapes(*(a.shape for a in syms.values()))
    letters = [word.letters() for word in words]
    need = {s for lets in letters for s, _ in lets}
    for i in range(basis.size - 1, basis.rank - 1, -1):
        if i in need:
            need.update(basis.symbols[i].bracket)
    for i in sorted(need - syms.keys()):
        syms[i] = dtgt.comm(*(syms[k] for k in basis.symbols[i].bracket))
    for lets in letters:
        acc = None
        for s, e in lets:
            val = syms[s] if e == 1 else dtgt.power(syms[s], e)
            acc = val if acc is None else dtgt.mult(acc, val)
        yield (np.zeros(shape, dtype=np.int64) if acc is None
               else np.broadcast_to(acc, shape))


def _relator_masks(basis, relators, dtgt: DenseGroup,
                   images: Sequence) -> np.ndarray:
    """Which assignments kill every relator, as a bool array over the
    broadcast shape of the ambient generator images (`_word_values`)."""
    ok = np.ones(np.broadcast_shapes(*(np.shape(im) for im in images)),
                 dtype=bool)
    for value in _word_values(basis, relators, dtgt, images):
        ok &= value == 0
        if not ok.any():
            break
    return ok


def _vanishes(basis, rel, dtgt: DenseGroup, images) -> np.ndarray:
    """Where ``rel`` evaluates to the identity, as a bool array over the
    broadcast shape of ``images`` (`_word_values`)."""
    (value,) = _word_values(basis, [rel], dtgt, images)
    return value == 0


def _transport_tuples(source: FiniteQuotient, dtgt: DenseGroup,
                      cands: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """Every assignment of ``cands[j][pos[j]]`` to ambient generator j that
    kills all relators of the source in the target, as (m, rank) arrays of
    candidate positions, in lexicographic order.

    A relator whose bracket support is one generator j filters ``cands[j]``
    once, before any grid; positions still index the full lists.  Every
    other relator is checked by level: its level is the highest generator
    in its bracket support, and it is checked as soon as that generator is
    assigned (Holt, Eick & O'Brien, Handbook of Computational Group Theory,
    ch. 8).  Level j runs on grids of partial tuples times the kept
    ``cands[j]``, at most `_GRID` cells at a time; a lone partial tuple
    against a longer list is one grid.  The first relator of a level runs
    on the broadcast grid, and each later one only on the cells that
    survive, gathered as flat image arrays.  Relators are tried in
    descending order of the cells each has killed so far in this scan
    (source order on the first grid).  Survivors are the conjunction of
    the masks, taken row-major, so the order of the relators does not
    change the output.
    """
    basis = source.basis
    support: list[set[int]] = [{j} for j in range(basis.rank)]
    for i in range(basis.rank, basis.size):
        hi, lo = basis.symbols[i].bracket
        support.append(support[hi] | support[lo])
    keep = [np.arange(len(c)) for c in cands]
    levels: list[list] = [[] for _ in range(basis.rank)]
    for rel in source.relator_set.relators:
        gens = set().union(*(support[s] for s, _ in rel.letters()))
        if len(gens) == 1:
            (j,) = gens
            keep[j] = keep[j][_vanishes(basis, rel, dtgt, {j: cands[j][keep[j]]})]
        else:
            levels[max(gens, default=0)].append(rel)
    kept = [c[k] for c, k in zip(cands, keep)]
    killed = [np.zeros(len(rels), dtype=np.int64) for rels in levels]

    def survivors(j: int, blk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (row, col) cells of ``blk`` times ``kept[j]`` that kill the
        relators of level j, row-major."""
        if not levels[j]:
            return np.nonzero(np.ones((blk.shape[0], kept[j].size), dtype=bool))
        first, *rest = np.argsort(-killed[j], kind="stable")
        imgs = [kept[i][blk[:, i]] for i in range(j)]
        ok = _vanishes(basis, levels[j][first], dtgt,
                       [im[:, None] for im in imgs] + [kept[j][None, :]])
        killed[j][first] += ok.size - np.count_nonzero(ok)
        rows, cols = np.nonzero(ok)
        for k in rest:
            if not rows.size:
                break
            alive = _vanishes(basis, levels[j][k], dtgt,
                              [im[rows] for im in imgs] + [kept[j][cols]])
            killed[j][k] += alive.size - np.count_nonzero(alive)
            rows, cols = rows[alive], cols[alive]
        return rows, cols

    widths = [k.size for k in kept]
    for pos in _descend(np.zeros((1, 0), dtype=np.int64), widths, survivors):
        yield np.column_stack([k[pos[:, i]] for i, k in enumerate(keep)])


def _descend(partial: np.ndarray, widths: list[int],
             survivors) -> Iterator[np.ndarray]:
    """Depth-first extension of the partial tuples by one generator per
    level, ``widths[j]`` candidates at level j, at most `_GRID` cells per
    ``survivors(j, blk)`` call.  A module-level recursion, so no closure
    refers to itself and a scan's arrays die with it, collector or not."""
    j = partial.shape[1]
    if j == len(widths):
        yield partial
        return
    step = max(1, _GRID // max(1, widths[j]))
    for start in range(0, partial.shape[0], step):
        blk = partial[start:start + step]
        rows, cols = survivors(j, blk)
        if rows.size:
            yield from _descend(np.column_stack([blk[rows], cols]), widths,
                                survivors)


def _column_dets(cols: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of a stack of square matrices, given as an
    (m, d, d) array whose entry [k, j] is column j of matrix k."""
    d = cols.shape[1]
    rows = tuple(tuple(cols[:, j, i] for j in range(d)) for i in range(d))
    return np.broadcast_to(_det(rows) % p, cols.shape[:1])


def _image_candidates(G: FiniteQuotient, H: FiniteQuotient) -> list[np.ndarray] | None:
    """Per ambient generator, the indices of H with the order of its image
    in G; None when orders or Frattini ranks already rule out isomorphism."""
    if G.order != H.order:
        return None
    if G.order > _SEARCH_BOUND:
        raise QuotientError("exhaustive search bound exceeded")
    dG = G.dense
    dH = H.dense
    if dG.frattini_dim != dH.frattini_dim:
        return None
    return [np.flatnonzero(dH.orders == dG.orders[g]).astype(np.int64)
            for g in dG.gen_indices()]


def _isomorphism_chunks(G: FiniteQuotient, H: FiniteQuotient,
                        cands: list[np.ndarray]
                        ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The isomorphisms G -> H as (m, rank) arrays of image indices, with
    the determinants of their induced Frattini matrices, chunk by chunk.

    A relator-killing tuple is bijective when the images of the surviving
    weight-1 generators of G span the Frattini quotient of H (orders are
    equal).  The eliminated weight-1 generators need not be looked at:
    each one's substitution is a consequence of the relators, so once the
    relators die its image lies in the span of the other images modulo
    Phi(H).  The test is therefore det != 0 mod p.
    """
    dH = H.dense
    w1 = _pc_weight1(G)
    for pos in _transport_tuples(G, dH, cands):
        tup = np.stack([c[pos[:, j]] for j, c in enumerate(cands)], axis=1)
        dets = _column_dets(dH.coords[tup[:, w1]], dH.p)
        keep = dets != 0
        yield tup[keep], dets[keep]


def is_isomorphic(G: FiniteQuotient, H: FiniteQuotient) -> bool:
    """Whether some generator-image tuple is an isomorphism G -> H; the
    scan stops at the first chunk that holds one."""
    cands = _image_candidates(G, H)
    return cands is not None and any(
        len(tup) for tup, _dets in _isomorphism_chunks(G, H, cands))


@dataclass(frozen=True)
class IsoScanSummary:
    candidates_checked: int
    isomorphisms_found: int
    det_residues: tuple[int, ...]


def isomorphism_det_scan(G: FiniteQuotient, H: FiniteQuotient) -> IsoScanSummary:
    """Exhaustive isomorphism scan that only accumulates the determinant
    residues of the induced Frattini matrices, over `_isomorphism_chunks`;
    every tuple of order-matching candidates counts as checked."""
    cands = _image_candidates(G, H)
    if cands is None:
        return IsoScanSummary(0, 0, ())
    found = 0
    dets: set[int] = set()
    for _tup, det in _isomorphism_chunks(G, H, cands):
        found += det.size
        dets.update(np.unique(det).tolist())
    return IsoScanSummary(math.prod(c.size for c in cands), found,
                          tuple(sorted(dets)))
