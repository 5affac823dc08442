import copy
import math
import random
from itertools import permutations, product

import numpy as np
import pytest

from nilforge import lab
from nilforge.hall import FreeNilElement, builtin_basis, collect, inverse, multiply, power
from nilforge.lab import DenseGroup
from nilforge.quotients import (
    FiniteQuotient,
    InfiniteIndexError,
    QuotientError,
    RelatorSet,
    _echelon,
    _group_certificate,
    _order_bound,
    consistency_check,
    make_quotient,
    standard_quotient,
    standard_relators,
)

F23 = builtin_basis("F23")
F32 = builtin_basis("F32")
X, Y = F23.gens()
C, D, E = F23.generator(2), F23.generator(3), F23.generator(4)


# -- relator families ------------------------------------------------------------

def test_standard_relators_K():
    rel = standard_relators("K", 5)
    assert rel.label == "K(p=5)"
    assert [r.exponents for r in rel.relators] == [
        (25, 0, 0, 0, 0), (0, 5, 0, 0, 0), (0, 0, 0, 0, 1)]


def test_standard_relators_N_r():
    rel = standard_relators("N_r", 5, 2)
    assert rel.label == "N_r(p=5,r=2)"
    assert (-10, 0, 0, 1, 0) in [r.exponents for r in rel.relators]


def test_standard_relators_dh():
    rel = standard_relators("DH_M_r", 5, 1)
    exps = [r.exponents for r in rel.relators]
    assert (5, 0, 0, 1, 0, 0) in exps          # x^(rp) [y,x]
    assert (0, 5, 0, 0, 1, 0) in exps          # y^(rp) [z,x]
    assert (0, 0, 5, 0, -1, 1) in exps         # z^(rp) [z,x]^-1 [z,y]
    assert (0, 0, 0, 5, 0, 0) in exps          # bracket p-th powers
    assert (25, 0, 0, 0, 0, 0) in exps         # generator p^2-th powers


@pytest.mark.parametrize("bad", [
    ("N_r", 4, 1), ("N_r", 3, 1), ("N_r", 5, 0), ("N_r", 5, 5),
    ("K", 2, None), ("DH_M_r", 2, 1), ("nope", 5, 1),
])
def test_standard_relators_rejects(bad):
    kind, p, r = bad
    with pytest.raises(ValueError):
        standard_relators(kind, p, r)


# -- quotient construction ----------------------------------------------------------

@pytest.mark.parametrize("p", [5, 7])
def test_orders_K_and_N(p):
    assert standard_quotient("K", p).order == p ** 5
    for r in range(1, p):
        assert standard_quotient("N_r", p, r).order == p ** 4


@pytest.mark.parametrize("p,r", [(5, 1), (5, 2), (7, 1)])
def test_orders_dh(p, r):
    assert standard_quotient("DH_M_r", p, r).order == p ** 6


def test_moduli_shape_fixture():
    # derived regression: every modulus of N_r is p but the last, with
    # x^p = [y,x,x]^(r^-1), and [y,x,y] is rewritten to 1
    for r in range(1, 5):
        q = standard_quotient("N_r", 5, r)
        assert q.moduli == (5, 5, 5, 5, 1)
        assert q.tails[0] == (0, 0, 0, pow(r, -1, 5), 0)
        assert q.tails[1:] == ((0,) * 5,) * 4
    assert standard_quotient("K", 5).moduli == (25, 5, 5, 5, 1)


def test_dh_augmentation_conservative_at_r_one():
    # without the p^2-th powers the r = 1 subgroup is unchanged, since
    # x^(p^2) = (x^p)^p is congruent to a p-th power of a bracket
    x, y, z = F32.gens()
    c1, c2, c3 = (F32.generator(i) for i in (3, 4, 5))
    p = 5
    literal = RelatorSet(F32, (
        power(c1, p), power(c2, p), power(c3, p),
        multiply(power(x, p), c1),
        multiply(power(y, p), c2),
        multiply(multiply(power(z, p), inverse(c2)), c3),
    ), "literal M_1(p=5)")
    q_lit = make_quotient(literal)
    q_std = standard_quotient("DH_M_r", 5, 1)
    assert q_lit.order == q_std.order == 5 ** 6
    assert q_lit.moduli == q_std.moduli
    assert q_lit.tails == q_std.tails


def test_reduce_examples():
    q2 = standard_quotient("N_r", 5, 2)
    assert q2.reduce(D).vector == (0, 0, 0, 1, 0)
    assert q2.reduce(power(X, 10)).vector == (0, 0, 0, 1, 0)
    assert q2.reduce(E).is_identity()
    K = standard_quotient("K", 5)
    assert K.reduce(power(X, 25)).is_identity()


def test_membership_examples():
    q2 = standard_quotient("N_r", 5, 2)
    assert q2.membership(multiply(power(X, -10), D))
    assert not q2.membership(X)


def test_membership_closed_under_conjugation():
    rng = random.Random(2)
    q = standard_quotient("N_r", 5, 3)
    for _ in range(1000):
        rel = rng.choice(q.relator_set.relators)
        g = collect(F23, [(rng.randrange(5), rng.randrange(-6, 7))
                          for _ in range(4)])
        assert q.membership(multiply(multiply(inverse(g), rel), g))


def test_reduce_is_retraction():
    q = standard_quotient("N_r", 5, 1)
    for idx in range(0, q.order, 7):
        vec = q.decode(idx)
        assert q.reduce(F23.element(vec)).vector == vec
        assert q.encode(vec) == idx


def test_reduce_multiplicative_random():
    rng = random.Random(4)
    for q in (standard_quotient("N_r", 5, 2), standard_quotient("K", 5),
              standard_quotient("DH_M_r", 5, 2)):
        basis = q.basis
        for _ in range(200):
            w1 = [(rng.randrange(basis.size), rng.randrange(-30, 31))
                  for _ in range(6)]
            w2 = [(rng.randrange(basis.size), rng.randrange(-30, 31))
                  for _ in range(5)]
            a, b = collect(basis, w1), collect(basis, w2)
            assert q.reduce(multiply(a, b)) == q.reduce(a) * q.reduce(b)


def test_reduce_handles_huge_exponents():
    q = standard_quotient("N_r", 5, 2)
    big = 10 ** 18 + 7
    # x^5 = [y,x,x]^3 in N_2(5)
    assert q.reduce(power(X, big)).vector == (big % 5, 0, 0, 3 * (big // 5) % 5, 0)
    elem = collect(F23, [(1, big), (0, 3)])
    assert q.reduce(elem) == q.reduce(power(Y, big % 5)) * q.reduce(power(X, 3))


def test_pc_element_arithmetic():
    q = standard_quotient("N_r", 5, 1)
    rng = random.Random(6)
    for _ in range(100):
        a = q.element([rng.randrange(25), rng.randrange(5), rng.randrange(5), 0, 0])
        b = q.element([rng.randrange(25), rng.randrange(5), rng.randrange(5), 0, 0])
        assert (a * b).quotient is q
        assert (a * a.inverse()).is_identity()
        assert a ** 3 == a * a * a
        assert a ** -2 == (a.inverse()) ** 2
    assert q.identity ** 5 == q.identity


def test_fixture_quotients():
    assert make_quotient(RelatorSet(F23, (power(X, 5), Y), "C_5")).order == 5
    assert make_quotient(RelatorSet(F23, (power(X, 25), Y), "C_25")).order == 25
    assert make_quotient(
        RelatorSet(F23, (power(X, 5), power(Y, 5), C), "C5xC5")).order == 25
    assert standard_quotient("M", 5).order == 5


def test_infinite_index_detected():
    with pytest.raises(InfiniteIndexError):
        make_quotient(RelatorSet(F23, (power(X, 5),), "halfbaked"))


def test_independence_of_moduli_from_r():
    shapes = {standard_quotient("N_r", 5, r).moduli for r in range(1, 5)}
    assert len(shapes) == 1


@pytest.mark.parametrize("kind,p,r", [("N_r", 5, 1), ("K", 7, None), ("DH_M_r", 5, 1)])
def test_reduce_powers_of_symbols_match_tables(kind, p, r):
    # every exponent around the rewrite boundaries -1, 0, m-1 and m of each
    # symbol, with m its modulus or p when it is eliminated: in N_r(5, 1)
    # x^5 is rewritten to [y,x,x], and DH_M_r swaps [y,x] past z.  The
    # exponents near +-10^30 are reduced exactly, with no bound on their size
    q = standard_quotient(kind, p, r)
    dense = q.dense
    huge = [sign * 10 ** 30 + d for sign in (1, -1) for d in range(-2, 3)]
    for s in range(q.basis.size):
        m = q.moduli[s] if q.moduli[s] > 1 else p
        g = q.basis.generator(s)
        base = q.reduce(g).index()
        for e in [*range(-2 * m - 1, 2 * m + 2), *huge]:
            assert q.reduce(power(g, e)).index() == dense.power(base, e), (s, e)


def test_decode_rejects_out_of_range_indices():
    q = standard_quotient("N_r", 5, 1)
    assert q.order == 625
    assert q.decode(624) == (4, 4, 4, 4, 0)
    for idx in (625, -1):
        with pytest.raises(QuotientError):
            q.decode(idx)
        with pytest.raises(QuotientError):
            q.dense.element(idx)


# -- echelon -----------------------------------------------------------------------

def _standard_relsets(p):
    """Every standard relator set at p, after log_p of its index."""
    yield 5, standard_relators("K", p)
    yield 1, standard_relators("M", p)
    for r in range(1, p):
        yield 4, standard_relators("N_r", p, r)
        yield 6, standard_relators("DH_M_r", p, r)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_orders_of_every_standard_family(p):
    for k, relset in _standard_relsets(p):
        assert make_quotient(relset).order == p ** k, relset.label


@pytest.mark.parametrize("p", [5, 7])
def test_tails_live_on_later_symbols(p):
    for _k, relset in _standard_relsets(p):
        q = make_quotient(relset)
        for s, tail in enumerate(q.tails):
            assert not any(tail[:s + 1]), (relset.label, s, tail)


@pytest.mark.parametrize("p", [5, 7])
def test_every_pivot_reduces_to_the_identity(p):
    for _k, relset in _standard_relsets(p):
        q = make_quotient(relset)
        pivots = _echelon(relset)
        assert sorted(pivots) == list(range(relset.basis.size))
        for s, piv in pivots.items():
            assert piv.exponents[:s] == (0,) * s and piv.exponents[s] > 0
            assert q.reduce(piv).is_identity(), (relset.label, s)


@pytest.mark.parametrize("p", [5, 7])
def test_order_bound_passes_on_every_standard_quotient(p):
    for _k, relset in _standard_relsets(p):
        q = make_quotient(relset)
        assert _order_bound(q) == (
            True, f"|F/N| <= {q.order}, every rule lies in N"), relset.label


def _order_bound_record(payload):
    rep = consistency_check(FiniteQuotient.from_payload(payload))
    assert not rep.passed
    return {name: (ok, detail) for name, ok, detail in rep.checks}["order-bound"]


@pytest.mark.parametrize("s,t,name", [(0, 2, "x"), (2, 3, "[y,x]")])
def test_order_bound_rejects_a_corrupted_tail(s, t, name):
    # N_r(7, 3) with one more [y,x] in the tail of x, or one more [y,x,x]
    # in the tail of [y,x]: that rule no longer lies in N
    payload = standard_quotient("N_r", 7, 3).to_payload()
    payload["tails"][s][t] += 1
    assert _order_bound_record(payload) == (
        False, f"the rule of {name} does not lie in N")


def test_order_bound_rejects_moduli_off_by_p():
    # K(5) claiming modulus 5 for [y,x,y]: the table has order 5^6
    payload = standard_quotient("K", 5).to_payload()
    payload["moduli"][4] = 5
    payload["order"] = str(5 ** 6)
    assert _order_bound_record(payload) == (
        False, f"the pivot moduli multiply to {5 ** 5}, not {5 ** 6}")


def test_order_bound_rejects_infinite_index():
    # the C_5 table claimed for <x^5>, whose normal closure has infinite
    # index: y never gets a pivot
    c5 = make_quotient(RelatorSet(F23, (power(X, 5), Y), "C_5"))
    q = FiniteQuotient(F23, RelatorSet(F23, (power(X, 5),), "halfbaked"),
                       c5.moduli, c5.tails)
    assert _order_bound(q) == (False, "no pivot for y")


# -- consistency ---------------------------------------------------------------------

def test_consistency_check_passes():
    rep = consistency_check(standard_quotient("N_r", 5, 2))
    assert rep.passed, rep.failures()
    names = [name for name, _ok, _d in rep.checks]
    assert "group-certificate" in names
    assert "order-bound" in names


def test_consistency_check_is_exact_above_order_10_000():
    # K at p = 7 has order 16807: the same three exact records as below 10^4
    q = standard_quotient("K", 7)
    assert q.order == 16807
    rep = consistency_check(q)
    assert rep.passed, rep.failures()
    assert [name for name, _ok, _d in rep.checks] == [
        "order-bound", "group-certificate", "normal-forms"]
    assert dict((name, d) for name, _ok, d in rep.checks)["normal-forms"] == (
        "all 16807 normal forms evaluate to their index")


@pytest.mark.parametrize("p", [5, 7])
def test_dense_tables_agree_with_the_symbolic_oracle(p):
    # the array engine against the scalar one on every standard quotient:
    # all pairs when there are at most 10^4, a seeded sample otherwise
    rng = random.Random(p)
    for _k, relset in _standard_relsets(p):
        q = make_quotient(relset)
        n = q.order
        if n * n <= 10_000:
            ii, jj = (a.ravel() for a in np.indices((n, n)))
        else:
            ii, jj = (np.array([rng.randrange(n) for _ in range(1000)])
                      for _ in range(2))
        dense = q.dense
        direct = [(dense.element(i) * dense.element(j)).index()
                  for i, j in zip(ii, jj)]
        assert np.array_equal(dense.mult(ii, jj), direct), relset.label


def test_consistency_check_never_builds_a_second_table(monkeypatch):
    # the records read the tables and the scalar oracle only: the builder
    # that made the tables is not asked to vouch for them
    q = make_quotient(standard_relators("N_r", 5, 1))
    q.dense

    def refuse(quotient):
        raise AssertionError("table build after the tables were built")

    monkeypatch.setattr(lab, "_pc_rows", refuse)
    rep = consistency_check(q)
    assert rep.passed, rep.failures()


@pytest.mark.parametrize("kind,p,r", [("N_r", 7, 3), ("DH_M_r", 5, 2)])
def test_consistency_check_builds_no_order_or_series_table(kind, p, r):
    # the class bound is one array of commutators and the words run through
    # lab._word_values on the inverse table: the proof needs no element
    # orders and no lower central series
    q = _fresh(kind, p, r)
    rep = consistency_check(q)
    assert rep.passed, rep.failures()
    assert not {"orders", "series"} & set(vars(q.dense))


def test_normal_forms_rejects_a_relabelled_table():
    # N_r(5, 2) relabelled by tau, the map that halves the [y,x] digit: the
    # [y,x] slab translates by [y,x]^2 and every slab is conjugated by tau.
    # That is a group law isomorphic to F/N in which x and y keep their
    # indices, so order-bound and group-certificate pass; but index i is no
    # longer the normal form decode(i) once its [y,x] digit is nonzero
    q = make_quotient(standard_relators("N_r", 5, 2))
    dense = q.dense
    digit = q.pc_symbols.index(2)
    st = dense._strides[digit]
    idx = np.arange(q.order, dtype=np.int64)
    d = idx // st % 5
    tau = idx + ((3 * d) % 5 - d) * st  # 3 = 1/2 mod 5
    tau_inv = idx + ((2 * d) % 5 - d) * st
    for k, tab in enumerate(dense.slabs):
        rows = tab[2 * np.arange(5) % 5] if k == digit else tab
        dense.slabs[k] = tau[rows[:, tau_inv]].astype(np.int32)
    checks = {name: (ok, detail) for name, ok, detail in consistency_check(q).checks}
    assert checks["order-bound"][0] and checks["group-certificate"][0]
    assert checks["normal-forms"] == (
        False, "500 of 625 normal forms evaluate elsewhere, first decode(5) at 15")


def test_consistency_detects_corruption():
    good = standard_quotient("N_r", 5, 2)
    # wrong but terminating tail, x^5 = [y,x,x]^2 for [y,x,x]^3: relators
    # no longer vanish
    bad_tails = list(good.tails)
    bad_tails[0] = (0, 0, 0, 2, 0)
    bad = FiniteQuotient(good.basis, good.relator_set, good.moduli,
                         tuple(bad_tails))
    rep = consistency_check(bad)
    assert not rep.passed
    assert rep.failures()


def test_consistency_reports_a_refused_table_build():
    # [y,x] eliminated, and its rule corrupted after construction to
    # [y,x] = y^-1, so conjugation by x sends y to 1: the builder's refusal
    # must surface as a failed record, not an exception
    good = standard_quotient("N_r", 5, 2)
    bad = FiniteQuotient(good.basis, good.relator_set, (5, 5, 1, 5, 1), good.tails)
    bad._rules = (*bad._rules[:2], (1, FreeNilElement(bad.basis, (0, -1, 0, 0, 0))),
                  *bad._rules[3:])
    rep = consistency_check(bad)
    assert not rep.passed
    checks = {name: (ok, detail) for name, ok, detail in rep.checks}
    assert checks["table-build"] == (
        False, "the dense tables were not built: "
               "N_r(p=5,r=2): conjugation by x is not a permutation")


def test_consistency_detects_non_bijective_left_translations():
    # a fresh K whose last pc generator's slab rows are all the identity:
    # x -> a*x then ignores that coordinate of x, while every slab row is
    # still a permutation
    q = FiniteQuotient.from_payload(standard_quotient("K", 7).to_payload())
    dense = q.dense
    dense.slabs[-1][:] = np.arange(q.order, dtype=np.int64)
    rep = consistency_check(q)
    checks = {name: (ok, detail) for name, ok, detail in rep.checks}
    assert checks["group-certificate"] == (False, "right orbit of 0")


# -- group certificate ---------------------------------------------------------------

CERTIFIED = ([standard_relators("N_r", p, r) for p in (5, 7) for r in (1, p - 1)]
             + [standard_relators(kind, p) for kind in ("K", "M") for p in (5, 7)]
             + [standard_relators("DH_M_r", p, 1) for p in (5, 7)]
             + [RelatorSet(F23, (power(X, 5), Y), "C_5"),
                RelatorSet(F23, (power(X, 25), Y), "C_25"),
                RelatorSet(F23, (power(X, 5), power(Y, 5), C), "C5xC5")])
GROUP_STEPS = {"slab rows", "right orbit of 0", "left orbit of 0",
               "left and right translations do not commute"}


def _fresh(kind, p, r=None):
    return FiniteQuotient.from_payload(standard_quotient(kind, p, r).to_payload())


@pytest.mark.parametrize("relset", CERTIFIED, ids=lambda rs: rs.label)
def test_group_certificate_passes(relset):
    # built afresh, so an order-7^6 table dies with the test
    q = make_quotient(relset)
    assert _group_certificate(q, q.dense) == (
        True, "regular right action, image of F/N")


@pytest.mark.parametrize("kind,p,r", [("K", 5, None), ("K", 7, None)])
def test_group_certificate_rejects_swapped_row(kind, p, r):
    # swap two entries of row 1 of a digit slab - the first pc symbol x, then
    # its step x^p - off the points that mult(0, .) reaches through that
    # slab, and recompute that slab's powers: every row stays a permutation
    # and the right orbit of 0 is untouched, but the table is no group law
    for digit in (0, 1):
        q = _fresh(kind, p, r)
        dense = q.dense
        assert dense._strides[digit] == p ** digit * dense._strides[0]
        # mult(0, b) runs this slab only through the b whose later digits
        # are 0
        idx = np.arange(q.order, dtype=np.int64)
        reached = np.flatnonzero(
            np.all([idx // st % p == 0 for st in dense._strides[digit + 1:]],
                   axis=0))
        tab = dense.slabs[digit]
        row = tab[1]
        a, b = np.setdiff1d(np.arange(q.order), reached)[:2]
        row[[a, b]] = row[[b, a]]
        for e in range(2, tab.shape[0]):
            tab[e] = row[tab[e - 1]]
        assert all((np.sort(t, axis=1) == idx).all() for t in dense.slabs)
        assert (dense.mult(0, idx) == idx).all()
        checks = {name: (ok, detail)
                  for name, ok, detail in consistency_check(q).checks}
        assert checks["group-certificate"] == (
            False, "left and right translations do not commute")
        assert "normal-forms" not in checks


def test_consistency_reports_out_of_range_slab_entry():
    q = _fresh("N_r", 5, 2)
    q.dense.slabs[0][3, 7] = q.order + 5
    rep = consistency_check(q)
    assert not rep.passed
    checks = {name: (ok, detail) for name, ok, detail in rep.checks}
    assert checks["group-certificate"] == (False, "slab rows")
    assert "normal-forms" not in checks


def test_group_certificate_rejects_relator_outside_kernel():
    # the tables of N_2 are a group law, but x does not die in that group
    good = standard_quotient("N_r", 5, 2)
    relset = RelatorSet(F23, good.relator_set.relators + (X,), "N_2, x")
    q = FiniteQuotient(F23, relset, good.moduli, good.tails)
    assert _group_certificate(q, q.dense) == (
        False, "relators do not vanish on the tables")


def test_group_certificate_rejects_a_class_above_the_basis():
    # N_r(5, 2) has class 3: read against a copy of F23 that claims class 2,
    # its left-normed commutators of weight 3 do not all vanish
    q = _fresh("N_r", 5, 2)
    dense = q.dense
    q.basis = copy.copy(q.basis)
    q.basis.nilpotency_class = 2
    assert _group_certificate(q, dense) == (
        False, "class exceeds that of the basis")


def test_group_certificate_rejects_non_generating_images():
    # C5xC5 slabs on the pc symbols x and [y,x], set by hand: a group law
    # in which y maps to 1, so the generator images span only <x>
    good = make_quotient(RelatorSet(F23, (power(X, 5), power(Y, 5), C), "C5xC5"))
    q = FiniteQuotient(F23, good.relator_set, (5, 1, 5, 1, 1), ((0,) * 5,) * 5)
    dense = DenseGroup(q)
    a, c = divmod(np.arange(25, dtype=np.int64), 5)
    dense.slabs = [np.array([(a + e) % 5 * 5 + c for e in range(5)]),
                   np.array([a * 5 + (c + e) % 5 for e in range(5)])]
    assert _group_certificate(q, dense) == (
        False, "generator images do not generate")


def test_group_certificate_exact_on_order_4():
    # every pair of permutations of range(4) as the rows of C2xC2's two
    # slabs: steps 1-4 pass exactly when the table is a group law with
    # identity 0.  Some of these tables fail step 2 alone and some fail
    # step 3 alone, so the test fails if either step is dropped.
    q = make_quotient(RelatorSet(F23, (power(X, 2), power(Y, 2), C), "C2xC2"))
    idx = np.arange(4, dtype=np.int64)
    laws = 0
    for rows in product(permutations(range(4)), repeat=2):
        dense = DenseGroup(q)
        dense.slabs = [np.array([idx, row], dtype=np.int64) for row in rows]
        _ok, detail = _group_certificate(q, dense)
        table = dense.mult(idx[:, None], idx[None, :])
        law = ((table[table, :] == table[idx[:, None, None], table[None]]).all()
               and (table[0] == idx).all() and (table[:, 0] == idx).all())
        assert (detail not in GROUP_STEPS) == law, rows
        laws += law
    assert laws == 3


# -- serialization --------------------------------------------------------------------

@pytest.mark.parametrize("modulus", [0, -5])
def test_payload_rejects_modulus_below_one(modulus):
    # order 0 would send `prime` into an endless search for a factor
    payload = standard_quotient("N_r", 5, 2).to_payload()
    payload["moduli"][1] = modulus
    payload["order"] = str(math.prod(payload["moduli"]))
    with pytest.raises(QuotientError, match="at least 1"):
        FiniteQuotient.from_payload(payload)


@pytest.mark.parametrize("s,tail,name", [
    (3, (7, 0, 1, 0, 0), "[y,x,x]"),  # its powers regenerate [y,x,x] forever
    (1, (1, 0, 0, 0, 0), "y"),  # y^5 = x, off the subgroup <y, [y,x], ...>
], ids=["divergent", "power-on-earlier-symbol"])
def test_constructor_rejects_a_tail_on_an_earlier_symbol(s, tail, name):
    good = standard_quotient("N_r", 5, 2)
    message = (f"N_r(p=5,r=2): the tail of {name} has a coordinate on {name} "
               "or an earlier symbol")
    tails = list(good.tails)
    tails[s] = tail
    with pytest.raises(QuotientError) as direct:
        FiniteQuotient(good.basis, good.relator_set, good.moduli, tuple(tails))
    payload = good.to_payload()
    payload["tails"][s] = list(tail)
    with pytest.raises(QuotientError) as loaded:
        FiniteQuotient.from_payload(payload)
    assert str(direct.value) == str(loaded.value) == message


def test_payload_round_trip():
    q = standard_quotient("N_r", 5, 3)
    clone = FiniteQuotient.from_payload(q.to_payload())
    assert clone.moduli == q.moduli
    assert clone.tails == q.tails
    assert clone.order == q.order
    assert clone.label == q.label
    a = clone.element((7, 3, 2, 0, 0))
    b = clone.element((19, 4, 1, 0, 0))
    assert (a * b).vector == (q.element((7, 3, 2, 0, 0))
                              * q.element((19, 4, 1, 0, 0))).vector
