"""Lifting criteria for maps between the two-generator quotients.

An endomorphism of the rank-two ambient group restricted to the shape
``x -> x^i y^j c``, ``y -> y^k d`` (with ``c, d`` corrections whose
weight-1 exponents are divisible by p, and i, k prime to p) is tested
three ways:

* the congruences mod the order-p^5 quotient F/K: such a map stabilizes
  the common subgroup and acts on the distinguished weight-3 relator by
  ``x^{-irp} d^{i^2 k}``;
* `membership_criterion` is the residue test i*k*s = r (mod p) for carrying
  one relator family into another, cross-checked against direct transport;
* `lifts_to_aut` is the integral test i*k = +-1, certified by solving for
  an exact inverse endomorphism.

The congruences and the transports are decided two ways.  `PsiBatch`
evaluates psi(x) and psi(y) on the tables of F/K and then checks all
draws at once by array lookups in them; the campaign runs this.
`psi_congruence_suite` and `psi_transports` decide the same checks one draw
at a time, by collection in F and symbolic reduction, and stay as its
independent test oracle.

`orbit_witness` then classifies pairs (r, s): for r = +-s it produces a
verified automorphism witness, and otherwise it certifies inequivalence by
an exhaustive isomorphism scan whose induced determinants all avoid +-1.

A map of F is its generator images in F.  `transports` is the one symbolic
check that such a map carries one relator family into another; it verifies
the witnesses of `orbit_witness` and `dh.dh_orbit_decision`, the scaling
map of `dh.scaling_isomorphism`, and `psi_transports`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .hall import (
    FreeEndomorphism,
    FreeNilElement,
    _det,
    builtin_basis,
    collect,
    inverse,
    multiply,
    power,
)
from .lab import _word_values, isomorphism_det_scan, series_invariants
from .quotients import FiniteQuotient, QuotientError

__all__ = [
    "PsiParams",
    "PsiCongruenceReport",
    "OrbitCertificate",
    "OrbitContradiction",
    "HypothesisNotMet",
    "sample_psi_params",
    "psi_endomorphism",
    "psi_congruence_suite",
    "membership_criterion",
    "psi_transports",
    "transports",
    "PsiBatch",
    "lifts_to_aut",
    "invert_endomorphism",
    "orbit_decision",
    "orbit_witness",
    "power_lemma_check",
]


class OrbitContradiction(RuntimeError):
    """An exhaustive scan produced a determinant +-1 for a pair that the
    residue classification says is inequivalent."""


class HypothesisNotMet(RuntimeError):
    """A power-lemma hypothesis failed; the batch is skipped, not failed."""


@dataclass(frozen=True)
class PsiParams:
    """Parameters of the restricted endomorphism shape."""

    p: int
    i: int
    j: int
    k: int
    corr_x: FreeNilElement
    corr_y: FreeNilElement

    def __post_init__(self):
        if math.gcd(self.i, self.p) != 1 or math.gcd(self.k, self.p) != 1:
            raise ValueError("i and k must be prime to p")
        for corr in (self.corr_x, self.corr_y):
            for e in corr.weight1_part():
                if e % self.p:
                    raise ValueError(
                        "corrections must have weight-1 exponents divisible by p")


def sample_psi_params(p: int, rng: random.Random) -> PsiParams:
    """A random parameter draw from the bounded pool: i mod p^2 and k mod p
    prime to p, j mod p, corrections with weight-1 part in p*F and higher
    exponents bounded by p^2."""
    basis = builtin_basis("F23")
    i = rng.randrange(1, p * p)
    while i % p == 0:
        i = rng.randrange(1, p * p)
    k = rng.randrange(1, p)
    j = rng.randrange(p)

    def corr() -> FreeNilElement:
        exps = [p * rng.randrange(-p, p + 1) for _ in range(basis.rank)]
        exps += [rng.randrange(-p * p, p * p + 1)
                 for _ in range(basis.size - basis.rank)]
        return basis.element(exps)

    return PsiParams(p, i, j, k, corr(), corr())


def psi_endomorphism(params: PsiParams) -> FreeEndomorphism:
    basis = builtin_basis("F23")
    x, y = basis.gens()
    img_x = multiply(multiply(power(x, params.i), power(y, params.j)),
                     params.corr_x)
    img_y = multiply(power(y, params.k), params.corr_y)
    return FreeEndomorphism((img_x, img_y))


@dataclass
class PsiCongruenceReport:
    p: int
    params: PsiParams
    checks: list[tuple[str, bool]]

    @property
    def passed(self) -> bool:
        return all(ok for _name, ok in self.checks)


def psi_congruence_suite(K: FiniteQuotient, params: PsiParams
                         ) -> PsiCongruenceReport:
    """Verify the congruences mod the order-p^5 quotient K for one draw."""
    p = K.prime
    if params.p != p:
        raise ValueError("parameter prime mismatch")
    basis = builtin_basis("F23")
    psi = psi_endomorphism(params)
    x, y = basis.gens()
    d = basis.generator(3)
    e = basis.generator(4)

    checks: list[tuple[str, bool]] = []
    checks.append(("psi(x^(p^2)) = 1 mod K",
                   K.membership(psi(power(x, p * p)))))
    checks.append(("psi(y^p) = 1 mod K", K.membership(psi(power(y, p)))))
    checks.append(("psi([y,x,y]) = 1 mod K", K.membership(psi(e))))
    i, k = params.i, params.k
    for r in range(1, p):
        lhs = K.reduce(psi(multiply(power(x, -r * p), d)))
        rhs = K.reduce(multiply(power(x, -i * r * p), power(d, i * i * k)))
        checks.append((f"psi(x^(-{r}p)[y,x,x]) = x^(-i{r}p)[y,x,x]^(i^2 k) mod K",
                       lhs == rhs))
    return PsiCongruenceReport(p, params, checks)


def membership_criterion(p: int, r: int, s: int, params: PsiParams) -> bool:
    """Residue form of the transport condition: i*k*s = r (mod p)."""
    return (params.i * params.k * s - r) % p == 0


def transports(images, src: FiniteQuotient, dst: FiniteQuotient) -> bool:
    """Whether the endomorphism of F with generator images ``images`` (free
    elements) carries every relator of ``src`` into the relator subgroup of
    ``dst``: the image is collected in F and reduced into ``dst``.  This is
    the one symbolic transport check; the table searches never call it."""
    endo = FreeEndomorphism(images)
    return all(dst.membership(endo(rel)) for rel in src.relator_set.relators)


def psi_transports(src: FiniteQuotient, dst: FiniteQuotient,
                   params: PsiParams) -> bool:
    """Ground truth for `membership_criterion` (`transports`)."""
    return transports(psi_endomorphism(params).images, src, dst)


def _power_table(dense, g: int, m: int) -> np.ndarray:
    """The indices of g^e for e in [0, m), by doubling."""
    tab = np.zeros(1, dtype=np.int64)
    while tab.size < m:
        tab = np.concatenate([tab, dense.mult(tab, dense.power(g, tab.size))])
    return tab[:m]


class PsiBatch:
    """Many parameter draws of the restricted endomorphism, checked on the
    tables of F/K all at once.

    Reduction F -> F/K is a homomorphism, so psi(w) mod K is the word w
    evaluated at the images of x and y in F/K.  Those images,
    ``images[n] = (psi(x), psi(y)) mod K``, are themselves evaluated on
    ``K.dense``: psi(x) = x^i y^j c and psi(y) = y^k d are products of
    powers of Hall symbols, one letter slot per symbol of c or d in symbol
    order, and each slot is a lookup in the power table of that symbol's
    image, at its exponent mod the image's order.  Every check after that
    is an array operation over all draws (`lab._word_values`).
    `psi_congruence_suite` and `psi_transports` decide the same checks by
    collection in F and stay as its oracle.
    """

    def __init__(self, K: FiniteQuotient, params):
        self.K = K
        self.params = tuple(params)
        if any(pr.p != K.prime for pr in self.params):
            raise ValueError("parameter prime mismatch")
        basis, dense = K.basis, K.dense
        syms = range(basis.size)
        tabs = [_power_table(dense, int(g), int(dense.orders[g])) for g in
                _word_values(basis, [basis.generator(s) for s in syms], dense,
                             dense.gen_indices())]
        words = (((0, 1, *syms), [[pr.i, pr.j, *pr.corr_x.exponents]
                                  for pr in self.params]),
                 ((1, *syms), [[pr.k, *pr.corr_y.exponents]
                               for pr in self.params]))
        images = []
        for slots, exps in words:
            exps = np.array(exps, dtype=np.int64).reshape(-1, len(slots))
            acc, *rest = (tabs[s][exps[:, t] % tabs[s].size]
                          for t, s in enumerate(slots))
            for val in rest:
                acc = dense.mult(acc, val)
            images.append(acc)
        self.images = np.stack(images, axis=1)

    def _values(self, words, sel=slice(None)) -> np.ndarray:
        """The (draws, words) indices of psi(w) mod K, for the draws
        ``sel``."""
        return np.stack(list(_word_values(self.K.basis, words, self.K.dense,
                                          self.images[sel].T)), axis=1)

    def congruences(self) -> np.ndarray:
        """The checks of `psi_congruence_suite`, in its order, as a
        (draws, p + 2) bool array."""
        K, p = self.K, self.K.prime
        x, y = K.basis.gens()
        d, e = K.basis.generator(3), K.basis.generator(4)
        vals = self._values(
            [power(x, p * p), power(y, p), e]
            + [multiply(power(x, -r * p), d) for r in range(1, p)])
        # x^(-irp) [y,x,x]^(i^2 k) mod K, from the power tables of x and d
        dense = K.dense
        xpow, dpow = (_power_table(dense, g, int(dense.orders[g]))
                      for g in (K.reduce(x).index(), K.reduce(d).index()))
        i = np.array([pr.i for pr in self.params], dtype=np.int64)[:, None]
        k = np.array([pr.k for pr in self.params], dtype=np.int64)[:, None]
        r = np.arange(1, p, dtype=np.int64)
        rhs = dense.mult(xpow[-i * r * p % xpow.size],
                         dpow[i * i * k % dpow.size])
        return np.concatenate([vals[:, :3] == 0, vals[:, 3:] == rhs], axis=1)

    def _kernel_mask(self, dst: FiniteQuotient) -> np.ndarray:
        """N/K as a bool mask over F/K, for dst = F/N.  N/K is the normal
        closure of the images of dst's relators when K <= N, and exactly
        then |F/K| / |N/K| = |F/N|; any other order raises QuotientError."""
        dense = self.K.dense
        ncl = dense.normal_closure(list(_word_values(
            self.K.basis, dst.relator_set.relators, dense, dense.gen_indices())))
        if self.K.order // ncl.size != dst.order:
            raise QuotientError(
                f"{dst.label} does not contain {self.K.label}: |F/K| / |N/K| "
                f"is {self.K.order // ncl.size}, not {dst.order}")
        mask = np.zeros(self.K.order, dtype=bool)
        mask[ncl] = True
        return mask

    def transports(self, src, dst) -> np.ndarray:
        """Per draw n, whether psi carries every relator of ``src[n]`` into
        the relator subgroup of ``dst[n]``, as a bool array: the values
        psi(rel) mod K are looked up in the mask of N/K (`_kernel_mask`)."""
        if len(src) != len(self.params) or len(dst) != len(self.params):
            raise ValueError("one source and one target per draw required")
        targets = list(dict.fromkeys(dst))
        masks = np.array([self._kernel_mask(q) for q in targets],
                         dtype=bool).reshape(len(targets), self.K.order)
        row = np.array([targets.index(q) for q in dst], dtype=np.int64)
        ok = np.ones(len(self.params), dtype=bool)
        for q in dict.fromkeys(src):
            sel = np.flatnonzero([s is q for s in src])
            vals = self._values(q.relator_set.relators, sel)
            ok[sel] = masks[row[sel, None], vals].all(axis=1)
        return ok


def invert_endomorphism(psi: FreeEndomorphism) -> FreeEndomorphism:
    """Exact inverse of an automorphism of the free group, solved weight by
    weight: invert the induced integer matrix on the abelianization, then
    correct each generator image by an element of the derived subgroup."""
    basis = psi.basis
    mat = psi.matrix()
    if mat.det not in (1, -1):
        raise QuotientError("endomorphism is not an automorphism: det != +-1")
    n = basis.rank
    adj = _adjugate(mat.entries)
    delta = mat.det
    inv_entries = [[adj[i][j] * delta for j in range(n)] for i in range(n)]

    first_images = []
    for jcol in range(n):
        letters = [(i, inv_entries[i][jcol]) for i in range(n)]
        first_images.append(collect(basis, letters))
    psi0 = FreeEndomorphism(tuple(first_images))

    # gamma_2 coordinates of the images of the higher symbols: column s of
    # hi_mat is psi(s), and hi_mat^-1 = det * adj(hi_mat) for det +-1
    hi_range = range(n, basis.size)
    hi_mat = [[psi._symbol_images[s].exponents[t] for s in hi_range]
              for t in hi_range]
    hi_det = _det(hi_mat)
    if hi_det not in (1, -1):
        raise QuotientError(f"restriction matrix has determinant {hi_det}, not a unit")
    hi_inv = [[hi_det * a for a in row] for row in _adjugate(hi_mat)]

    images = []
    for jcol in range(n):
        g = basis.generator(jcol)
        residue = multiply(inverse(g), psi(psi0.images[jcol]))
        if any(residue.weight1_part()):
            raise QuotientError("abelianized inverse failed")
        rhs = [inverse(residue).exponents[t] for t in hi_range]
        v = [sum(a * b for a, b in zip(row, rhs)) for row in hi_inv]
        corr = collect(basis, list(zip(hi_range, v)))
        images.append(multiply(psi0.images[jcol], corr))
    out = FreeEndomorphism(tuple(images))
    for jcol in range(n):
        if psi(out.images[jcol]) != basis.generator(jcol):
            raise QuotientError("inverse verification failed")
    return out


def _adjugate(entries):
    n = len(entries)
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:]
                     for ri, row in enumerate(entries) if ri != i]
            sign = -1 if (i + j) % 2 else 1
            cof[i][j] = sign * _det(minor)
    return [[cof[j][i] for j in range(n)] for i in range(n)]  # transpose


def lifts_to_aut(params: PsiParams) -> bool:
    """Whether the parameterized endomorphism is an automorphism of the
    ambient free group: i*k = +-1 over the integers.  When it is, the exact
    inverse is constructed and the round trip is verified on the generators.

    The corrections may carry weight-1 exponents divisible by p; those are
    congruence slack modulo the finite quotients and would shift the integral
    determinant away from i*k, so the verification uses the representative
    with corrections projected into the derived subgroup.
    """
    if params.i * params.k not in (1, -1):
        return False
    basis = builtin_basis("F23")

    def project(corr: FreeNilElement) -> FreeNilElement:
        return basis.element((0,) * basis.rank
                             + corr.exponents[basis.rank:])

    clean = PsiParams(params.p, params.i, params.j, params.k,
                      project(params.corr_x), project(params.corr_y))
    psi = psi_endomorphism(clean)
    inv_psi = invert_endomorphism(psi)
    basis = psi.basis
    for jcol in range(basis.rank):
        g = basis.generator(jcol)
        if psi(inv_psi(g)) != g or inv_psi(psi(g)) != g:
            raise QuotientError("round-trip verification failed")
    return True


def orbit_decision(p: int, r: int, s: int) -> bool:
    """The residue classification: equivalent iff r = +-s (mod p)."""
    if not (1 <= r <= p - 1 and 1 <= s <= p - 1):
        raise ValueError("r and s must lie in [1, p-1]")
    return (r - s) % p == 0 or (r + s) % p == 0


@dataclass(frozen=True)
class OrbitCertificate:
    p: int
    r: int
    s: int
    verdict: str  # "equivalent" | "inequivalent"
    witness_images: tuple[tuple[int, ...], ...] | None
    witness_verified: bool
    candidates_checked: int | None
    isomorphisms_found: int | None
    det_residues: tuple[int, ...] | None

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "r": self.r,
            "s": self.s,
            "verdict": self.verdict,
            "witness_images": ([list(v) for v in self.witness_images]
                               if self.witness_images is not None else None),
            "witness_verified": self.witness_verified,
            "candidates_checked": self.candidates_checked,
            "isomorphisms_found": self.isomorphisms_found,
            "det_residues": (list(self.det_residues)
                             if self.det_residues is not None else None),
        }


def orbit_witness(p: int, r: int, s: int, Gr: FiniteQuotient,
                  Gs: FiniteQuotient) -> OrbitCertificate:
    """Constructive certificate for (r, s) on Gr = F/N_r and Gs = F/N_s.

    Equivalent pairs get an ambient automorphism carrying one relator family
    onto the other, verified in both directions (the canonical witnesses are
    involutions).  Inequivalent pairs get an exhaustive scan certificate:
    every isomorphism of the finite quotients induces the same determinant
    residue r*s^-1, which is distinct from +-1, so none lifts.
    """
    if not orbit_decision(p, r, s):
        if p not in (5, 7):
            raise ValueError("exhaustive certification is limited to p in {5, 7}")
        scan = isomorphism_det_scan(Gr, Gs)
        expected = (r * pow(s, p - 2, p)) % p
        if set(scan.det_residues) & {1, p - 1}:
            raise OrbitContradiction(
                f"determinant +-1 observed for (p,r,s)=({p},{r},{s}); "
                "this would contradict the residue classification")
        if set(scan.det_residues) != {expected}:
            raise OrbitContradiction(
                f"unexpected determinant set {scan.det_residues} for "
                f"(p,r,s)=({p},{r},{s}): expected {{{expected}}}")
        return OrbitCertificate(p, r, s, "inequivalent", None, False,
                                scan.candidates_checked,
                                scan.isomorphisms_found,
                                scan.det_residues)

    basis = builtin_basis("F23")
    x, y = basis.gens()
    images = (x, y) if (r - s) % p == 0 else (x, inverse(y))
    forward = transports(images, Gr, Gs)
    backward = transports(images, Gs, Gr)  # both witnesses are involutions
    if not (forward and backward):
        raise OrbitContradiction(
            f"canonical witness failed verification for (p,r,s)=({p},{r},{s})")
    return OrbitCertificate(p, r, s, "equivalent",
                            tuple(im.exponents for im in images), True,
                            None, None, None)


def power_lemma_check(q: FiniteQuotient, a, b) -> np.ndarray:
    """For int64 index arrays a and b of one length, whether
    (a[i]*b[i])^p = a[i]^p for every i, as a bool array.

    The hypotheses are checked once, on the normal closure C of all of b:
    the group has class less than p, and C is abelian of exponent dividing
    p.  Each ncl(b[i]) is a subgroup of C, so it inherits both properties;
    for a single b this is exactly the per-instance hypothesis.  A failed
    hypothesis raises HypothesisNotMet for the whole batch.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim != 1 or a.shape != b.shape:
        raise QuotientError(
            f"power lemma needs two index arrays of one length, got shapes "
            f"{a.shape} and {b.shape}")
    n = q.order
    for name, arr in (("a", a), ("b", b)):
        if ((arr < 0) | (arr >= n)).any():
            raise QuotientError(
                f"power lemma: an index of {name} lies outside [0, {n})")
    p = q.prime
    inv = series_invariants(q)
    if inv.nilpotency_class >= p:
        raise HypothesisNotMet(
            f"class {inv.nilpotency_class} is not less than p = {p}")
    dense = q.dense
    ncl = dense.normal_closure(b)
    if not dense.is_abelian(ncl):
        raise HypothesisNotMet("normal closure of b is not abelian")
    if int(dense.orders[ncl].max()) > p:
        raise HypothesisNotMet("normal closure of b has exponent exceeding p")
    return dense.power(dense.mult(a, b), p) == dense.power(a, p)
