"""The rank-three, class-two family of order-p^6 quotients.

For a unit r mod p, the quotient identifies each weight-2 bracket with a
p-th power of a generator (see `standard_relators("DH_M_r", ...)`), giving
a group G of order p^6 whose derived subgroup, center and subgroup of p-th
powers coincide.  This module verifies that structure, the scaling map
between different values of r, the cubic determinant obstruction, and the
classification of pairs (r, s) by searching every invertible 3x3 matrix
over F_p whose monomial lift carries one relator family into the other.
That search is `lab._transport_tuples` over the monomials x^a y^b z^c
(0 <= a, b, c < p): it reads the relators from the r-family quotient, so
it always certifies the family that `standard_relators` defines.  A
witness it finds, and the scaling map, are re-checked in F by
`orbits.transports`, apart from the tables.

Candidate matrices stand in for arbitrary isomorphism lifts because central
corrections cannot change any relator-image verdict: the center has
exponent p, so corrections cancel in commutators and in rp-th and p^2-th
powers.  That reduction is property-tested by
`central_correction_invariance` rather than assumed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

import numpy as np

from .hall import power
from .lab import (
    FrattiniMatrix,
    _column_dets,
    _pc_weight1,
    _relator_masks,
    _transport_tuples,
    subgroup_functors,
)
from .orbits import transports
from .quotients import FiniteQuotient, QuotientError

__all__ = [
    "MatrixLiftCandidate",
    "StructureReport",
    "DhOrbitCertificate",
    "CharacteristicReport",
    "DhContradiction",
    "verify_structure",
    "scaling_isomorphism",
    "cubic_condition",
    "find_valid_r",
    "matrix_lift_search",
    "dh_orbit_decision",
    "characteristic_check",
    "central_correction_invariance",
]


class DhContradiction(RuntimeError):
    """A certified search disagreed with the residue classification."""


@dataclass(frozen=True)
class MatrixLiftCandidate:
    """An invertible matrix over F_p together with its monomial lift.

    ``matrix[i][j]`` is the exponent of generator i in the image of
    generator j; the lift sends generator j to the monomial with the
    exponents of column j (all exponents in [0, p)).
    """

    p: int
    matrix: tuple[tuple[int, ...], ...]
    det_residue: int
    images: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class StructureReport:
    p: int
    order: int
    order_expected: int
    derived_order: int
    center_order: int
    agemo_order: int
    functors_coincide: bool

    @property
    def passed(self) -> bool:
        return (self.order == self.order_expected
                and self.functors_coincide
                and self.derived_order == self.p ** 3)


def verify_structure(q: FiniteQuotient) -> StructureReport:
    """Check that the derived subgroup, center and p-th-power subgroup of an
    order-p^6 quotient coincide with common order p^3."""
    p = q.prime
    functors = subgroup_functors(q)
    derived = functors["derived"]
    center = functors["center"]
    agemo = functors["agemo_p"]
    same = np.array_equal(derived, center) and np.array_equal(derived, agemo)
    return StructureReport(p, q.order, p ** 6, derived.size,
                           center.size, agemo.size, same)


def scaling_isomorphism(src: FiniteQuotient, dst: FiniteQuotient,
                        r: int) -> FrattiniMatrix:
    """The Frattini matrix of x -> x^r, y -> y^r, z -> z^r from the
    r-family ``src`` onto the r = 1 quotient ``dst``, verified to be an
    isomorphism: the images transport the relators (`orbits.transports`),
    the orders agree and the matrix is invertible.  Column j holds the
    weight-1 exponents mod p of the reduced image of generator j."""
    p = dst.prime
    images = [power(g, r) for g in src.basis.gens()]
    if not transports(images, src, dst):
        raise DhContradiction(
            f"scaling map for (p,r)=({src.prime},{r}) does not transport "
            "the relators")
    src_w1, dst_w1 = _pc_weight1(src), _pc_weight1(dst)
    cols = [dst.reduce(images[s]).vector for s in src_w1]
    mat = FrattiniMatrix(p, tuple(tuple(col[t] % p for col in cols)
                                  for t in dst_w1))
    if (src.order != dst.order or len(src_w1) != len(dst_w1)
            or not mat.invertible):
        raise DhContradiction(
            f"scaling map for (p,r)=({src.prime},{r}) is not bijective")
    return mat


def cubic_condition(p: int, r: int) -> bool:
    """Whether r^3 avoids +-1 mod p, the obstruction exponent of the
    scaling map on the common elementary abelian quotient."""
    return pow(r, 3, p) not in (1 % p, (p - 1) % p)


def find_valid_r(p: int) -> int | None:
    """Least unit r with r^3 not +-1 mod p, when one exists.  None exists
    at p = 2 and 3, whose only units are +-1, nor at p = 7: the unit group
    is cyclic of order 6 = 3 * 2, so the cubes form its subgroup of order 2,
    which is {+-1}."""
    for r in range(1, p):
        if cubic_condition(p, r):
            return r
    return None


def _lift_indices(q: FiniteQuotient, cols) -> np.ndarray:
    """Dense indices of the monomial lifts x^a y^b z^c of exponent columns
    (a, b, c)."""
    out = []
    for col in cols:
        vec = [0] * q.basis.size
        vec[:3] = (int(e) for e in col)
        out.append(q.element(vec).index())
    return np.array(out, dtype=np.int64)


def matrix_lift_search(source: FiniteQuotient, target: FiniteQuotient
                       ) -> list[MatrixLiftCandidate]:
    """All invertible matrices over F_p whose monomial lift carries every
    relator of the ``source`` family into the ``target`` family, in
    lexicographic column order.  The relators are read from ``source`` and
    checked by `lab._transport_tuples` on the monomials of ``target``.
    """
    p = source.prime
    if p > 7:
        raise QuotientError("matrix search is sized for p <= 7")
    triples = np.array(list(product(range(p), repeat=3)), dtype=np.int64)
    mono = _lift_indices(target, triples)
    out: list[MatrixLiftCandidate] = []
    for pos in _transport_tuples(source, target.dense, [mono] * 3):
        cols = triples[pos]
        dets = _column_dets(cols, p)
        keep = dets != 0
        for col3, det in zip(cols[keep].tolist(), dets[keep].tolist()):
            images = tuple(map(tuple, col3))
            out.append(MatrixLiftCandidate(p, tuple(zip(*images)), det, images))
    return out


def central_correction_invariance(source: FiniteQuotient,
                                  target: FiniteQuotient, samples: int = 200,
                                  seed: int = 0) -> bool:
    """Property test for the search's reduction to monomial lifts: for
    random candidate matrices and random central corrections, the
    relator-transport verdict is unchanged by the corrections."""
    rng = random.Random(seed)
    dT = target.dense
    center = dT.center_indices()
    mono = _lift_indices(target, product(range(target.prime), repeat=3))
    base = np.empty((3, samples), dtype=np.int64)
    corr = np.empty((3, samples), dtype=np.int64)
    for k in range(samples):
        base[:, k] = [mono[rng.randrange(mono.size)] for _ in range(3)]
        corr[:, k] = [center[rng.randrange(center.size)] for _ in range(3)]
    rels = source.relator_set.relators
    return np.array_equal(_relator_masks(source.basis, rels, dT, base),
                          _relator_masks(source.basis, rels, dT,
                                         dT.mult(base, corr)))


@dataclass(frozen=True)
class DhOrbitCertificate:
    p: int
    r: int
    s: int
    equivalent: bool
    witness: MatrixLiftCandidate | None
    pm1_candidates: int
    certified: bool
    note: str = ""


def dh_orbit_decision(p: int, r: int, s: int, source: FiniteQuotient,
                      target: FiniteQuotient,
                      lifts: list[MatrixLiftCandidate] | None = None
                      ) -> DhOrbitCertificate:
    """Residue decision r = +-s (mod p), certified by the det +-1 lifts of
    `matrix_lift_search` on the r- and s-family quotients ``source`` and
    ``target`` where that argument applies.  ``lifts``, when given, is the
    result of `matrix_lift_search(source, target)`, not run again then.

    An equivalent pair must produce a det +-1 witness (any p in {5, 7}).
    An inequivalent pair is certified by an *empty* det +-1 search, but that
    argument needs (r s^-1)^3 != +-1 mod p: every transporting matrix has
    determinant (r s^-1)^3 times a cube root of unity coming from the
    p-power automorphism group.  When cubes are degenerate (all of them hit
    +-1 mod 7, for instance) the search legitimately finds det +-1 lifts,
    e.g. scaling by 4 has determinant 64 = 1 mod 7, and the decision is
    reported uncertified by this method.
    """
    if not (1 <= r < p and 1 <= s < p):
        raise ValueError("r and s must lie in [1, p-1]")
    equivalent = (r - s) % p == 0 or (r + s) % p == 0
    if p not in (5, 7):
        return DhOrbitCertificate(p, r, s, equivalent, None, 0, False,
                                  "no certified search at this prime")
    if lifts is None:
        lifts = matrix_lift_search(source, target)
    hits = [c for c in lifts if c.det_residue in (1, p - 1)]
    if equivalent:
        if not hits:
            raise DhContradiction(
                f"no det +-1 witness for the equivalent pair "
                f"(p,r,s)=({p},{r},{s})")
        witness = hits[0]
        # re-checked in F, independently of the table engine that found it
        basis = source.basis
        lift = [basis.element(col + (0,) * (basis.size - len(col)))
                for col in witness.images]
        if not transports(lift, source, target):
            raise DhContradiction("witness failed direct re-verification")
        return DhOrbitCertificate(p, r, s, True, witness, len(hits), True)
    t = (r * pow(s, p - 2, p)) % p
    if cubic_condition(p, t):
        if hits:
            raise DhContradiction(
                f"det +-1 search for (p,r,s)=({p},{r},{s}) found {len(hits)} "
                "candidates although the cubic obstruction forbids them")
        return DhOrbitCertificate(p, r, s, False, None, 0, True)
    return DhOrbitCertificate(
        p, r, s, False, None, len(hits), False,
        f"determinant obstruction vacuous: ({t})^3 = +-1 mod {p}")


@dataclass(frozen=True)
class CharacteristicReport:
    p: int
    lift_group_order: int
    lift_group_is_group: bool
    lift_group_p_power: bool
    all_det_one: bool
    contains_shear: bool
    center_inside_both: bool
    h1_preserved: bool
    h2_preserved: bool
    negative_control_moved: bool

    @property
    def passed(self) -> bool:
        return (self.lift_group_is_group and self.lift_group_p_power
                and self.all_det_one and self.contains_shear
                and self.center_inside_both
                and self.h1_preserved and self.h2_preserved
                and self.negative_control_moved)


def characteristic_check(q: FiniteQuotient,
                         lifts: list[MatrixLiftCandidate] | None = None
                         ) -> CharacteristicReport:
    """At r = s = 1, on the r = 1 quotient q: the passing matrices form a
    p-power-order group of determinant one containing the shear x -> x,
    y -> xy, z -> yz, and both <G', x> and <G', x, y> are preserved by every
    member (central automorphisms fix them too, since the center lies inside
    both).  The subgroup <G', y> is a negative control moved by the shear.
    ``lifts``, when given, is the result of `matrix_lift_search(q, q)`."""
    p = q.prime
    if p not in (5, 7):
        raise ValueError("characteristic check is certified for p in {5, 7}")
    dense = q.dense
    if lifts is None:
        lifts = matrix_lift_search(q, q)
    mats = {cand.matrix for cand in lifts}
    closed = all((FrattiniMatrix(p, m1) * FrattiniMatrix(p, m2)).entries in mats
                 for m1 in mats for m2 in mats)
    order = len(lifts)
    rest = order
    while rest > 1 and rest % p == 0:
        rest //= p
    p_power = rest == 1
    det_one = all(cand.det_residue == 1 for cand in lifts)
    shear = tuple(tuple(row) for row in ((1, 1, 0), (0, 1, 1), (0, 0, 1)))
    contains_shear = shear in mats

    functors = subgroup_functors(q)
    derived = functors["derived"]
    x = q.generator_image(0).index()
    y = q.generator_image(1).index()
    h1 = dense.closure(np.append(derived, x))
    h2 = dense.closure(np.append(derived, [x, y]))
    h3 = dense.closure(np.append(derived, y))
    center = functors["center"]
    center_inside = np.isin(center, h1).all() and np.isin(center, h2).all()

    xs = _lift_indices(q, [cand.images[0] for cand in lifts])
    ys = _lift_indices(q, [cand.images[1] for cand in lifts])
    # the lift sends G' into G' (images of commutators are commutators),
    # so <G', g> is preserved exactly when the image of g stays inside
    h1_ok = bool(np.isin(xs, h1).all())
    h2_ok = bool(np.isin(xs, h2).all() and np.isin(ys, h2).all())
    h3_moved = not np.isin(ys, h3).all()
    return CharacteristicReport(p, order, closed, p_power, det_one,
                                contains_shear, bool(center_inside),
                                h1_ok, h2_ok, h3_moved)
