import gc
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from nilforge import lab
from nilforge.dh import matrix_lift_search
from nilforge.hall import builtin_basis, power
from nilforge.lab import (
    FrattiniMatrix,
    Homomorphism,
    IsoScanSummary,
    all_isomorphisms,
    automorphism_count,
    induced_frattini_matrix,
    is_isomorphic,
    isomorphism_det_scan,
    maximal_subgroups,
    series_invariants,
    subgroup_functors,
)
from nilforge.quotients import (
    FiniteQuotient,
    QuotientError,
    RelatorSet,
    make_quotient,
    standard_quotient,
)

F23 = builtin_basis("F23")
X, Y = F23.gens()


def fixture_c5():
    return make_quotient(RelatorSet(F23, (power(X, 5), Y), "C_5"))


def fixture_c25():
    return make_quotient(RelatorSet(F23, (power(X, 25), Y), "C_25"))


def fixture_c5xc5():
    return make_quotient(RelatorSet(
        F23, (power(X, 5), power(Y, 5), F23.generator(2)), "C5xC5"))


# -- subgroup functors ---------------------------------------------------------

def test_functors_on_dh_quotient():
    q = standard_quotient("DH_M_r", 5, 1)
    f = subgroup_functors(q)
    assert f["center"].size == f["derived"].size == f["agemo_p"].size == 125
    assert np.array_equal(f["center"], f["derived"])
    assert np.array_equal(f["center"], f["agemo_p"])


def test_center_of_abelian_group_is_everything():
    q = fixture_c5xc5()
    assert subgroup_functors(q)["center"].size == q.order


def test_center_of_N_r_fixture():
    # derived regression: the center has order 5 and is generated by the
    # image of x^5
    q = standard_quotient("N_r", 5, 2)
    center = subgroup_functors(q)["center"]
    assert center.size == 5
    xp = q.reduce(power(X, 5))
    dense = q.dense
    assert np.array_equal(center, dense.closure([xp.index()]))


def test_derived_subgroup_flags():
    q = standard_quotient("N_r", 5, 1)
    dense = q.dense
    derived = subgroup_functors(q)["derived"]
    gens = np.asarray(dense.gen_indices(), dtype=np.int64)
    assert np.isin(dense.conj(derived[:, None], gens[None, :]), derived).all()
    assert dense.is_abelian(derived)
    assert not dense.is_abelian(np.arange(q.order))


def test_scans_refused_before_any_table():
    q = make_quotient(RelatorSet(F23, (power(X, 2 ** 18), Y), "C_262144"))
    for scan in (subgroup_functors, series_invariants, maximal_subgroups):
        with pytest.raises(QuotientError, match="too large"):
            scan(q)
    assert "dense" not in vars(q)


# -- closure ---------------------------------------------------------------------

def _frontier_closure(dense, gen_idxs):
    """Reference: multiply the frontier by every generator until nothing new
    turns up."""
    member = np.zeros(dense.n, dtype=bool)
    member[0] = True
    gens = np.unique(np.asarray(list(gen_idxs) or [0], dtype=np.int64))
    frontier = np.array([0], dtype=np.int64)
    while frontier.size:
        prods = np.unique(dense.mult(frontier[:, None], gens[None, :]).ravel())
        fresh = prods[~member[prods]]
        member[fresh] = True
        frontier = fresh
    return np.flatnonzero(member)


@pytest.mark.parametrize("kind, r", [("N_r", 1), ("K", None), ("DH_M_r", 1)])
def test_closure_matches_frontier_search(kind, r):
    q = standard_quotient(kind, 5, r)
    dense = q.dense
    rng = np.random.default_rng(5)
    gen_lists = [[], [0], [0, 0]]
    for k in (1, 1, 2, 2, 3, 4):
        g = rng.integers(0, q.order, size=k)
        # with a duplicate and the identity
        gen_lists.append(np.concatenate([g, g[:1], [0]]))
    derived = subgroup_functors(q)["derived"]
    gen_lists.append(np.append(derived, rng.integers(0, q.order)))
    for gens in gen_lists:
        assert np.array_equal(dense.closure(gens), _frontier_closure(dense, gens))


def test_closure_rejects_indices_outside_the_group():
    dense = fixture_c5().dense
    for bad in ([-1], [0, 5]):
        with pytest.raises(IndexError):
            dense.closure(bad)


def test_closure_of_subgroup_plus_elements_memory():
    q = standard_quotient("DH_M_r", 7, 1)
    dense = q.dense
    derived = subgroup_functors(q)["derived"]  # builds and caches the tables
    x, y = dense.gen_indices()[:2]
    tracemalloc.start()
    try:
        h2 = dense.closure(np.append(derived, [x, y]))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h2.size == 7 ** 5
    assert peak < 2 * 1024 * 1024


# -- series invariants ------------------------------------------------------------

@pytest.mark.parametrize("p", [5, 7])
def test_series_invariants_N_r(p):
    for r in (1, p - 1):
        inv = series_invariants(standard_quotient("N_r", p, r))
        assert inv.order == p ** 4
        assert inv.exponent == p * p
        assert inv.nilpotency_class == 3
        assert inv.lower_central_orders == (p ** 4, p * p, p, 1)


def test_series_invariants_K():
    inv = series_invariants(standard_quotient("K", 5))
    assert inv.order == 3125
    assert inv.nilpotency_class == 3


def test_series_invariants_cyclic():
    inv = series_invariants(fixture_c5())
    assert inv.nilpotency_class == 1
    assert inv.exponent == 5
    assert inv.lower_central_orders == (5, 1)


def test_tables_die_with_their_quotient():
    # a fresh quotient, not the memoized standard one
    q = FiniteQuotient.from_payload(standard_quotient("N_r", 5, 2).to_payload())
    tables = weakref.ref(q.dense)
    assert q.dense is q.dense
    assert series_invariants(q) is series_invariants(q)
    del q
    gc.collect()
    assert tables() is None


# -- maximal subgroups ---------------------------------------------------------------

@pytest.mark.parametrize("p", [5, 7])
def test_maximal_subgroups_unique_abelian(p):
    q = standard_quotient("N_r", p, 1)
    ms = maximal_subgroups(q)
    assert len(ms) == p + 1
    dense = q.dense
    abelians = [m for m in ms if dense.is_abelian(m)]
    assert len(abelians) == 1
    m_img = dense.normal_closure([q.reduce(power(X, p)).index(),
                                  q.reduce(Y).index()])
    assert np.array_equal(abelians[0], m_img)
    assert abelians[0].size == p ** 3


def test_maximal_subgroups_dh_count():
    ms = maximal_subgroups(standard_quotient("DH_M_r", 5, 1))
    assert len(ms) == 31  # (5^3 - 1) / 4


def test_maximal_subgroups_elementary_abelian():
    q = fixture_c5xc5()
    ms = maximal_subgroups(q)
    assert len(ms) == 6
    assert all(q.dense.is_abelian(m) for m in ms)


# -- isomorphism search ------------------------------------------------------------

def test_quotients_isomorphic_across_r():
    q1 = standard_quotient("N_r", 5, 1)
    q2 = standard_quotient("N_r", 5, 2)
    assert is_isomorphic(q1, q2)
    assert is_isomorphic(q2, q1)
    assert is_isomorphic(q1, q1)


def test_identity_tuple_is_enumerated():
    q = standard_quotient("N_r", 5, 1)
    gen_images = tuple(q.generator_image(j) for j in range(2))
    assert any(phi.images == gen_images for phi in all_isomorphisms(q, q))


def test_distinct_abelian_groups_not_isomorphic():
    assert not is_isomorphic(fixture_c25(), fixture_c5xc5())
    assert list(all_isomorphisms(fixture_c25(), fixture_c5xc5())) == []


def test_order_mismatch_short_circuits():
    assert list(all_isomorphisms(fixture_c5(), fixture_c25())) == []


def test_search_bound_enforced():
    with pytest.raises(QuotientError):
        list(all_isomorphisms(standard_quotient("K", 7),
                              standard_quotient("K", 7)))


def test_automorphism_count_cyclic():
    assert automorphism_count(fixture_c5()) == 4


def test_automorphism_count_frozen_and_r_invariant():
    # exhaustive enumeration is the oracle; 12500 = (p-1) p^5 at p = 5
    counts = {r: automorphism_count(standard_quotient("N_r", 5, r))
              for r in range(1, 5)}
    assert set(counts.values()) == {12500}


def test_enumeration_deterministic_order():
    q = standard_quotient("N_r", 5, 1)
    first = [phi.images for phi in all_isomorphisms(q, q)]
    second = [phi.images for phi in all_isomorphisms(q, q)]
    assert first == second
    idx_pairs = [(im[0].index(), im[1].index()) for im in first]
    assert idx_pairs == sorted(idx_pairs)


# -- homomorphisms and Frattini matrices -----------------------------------------------

def test_homomorphism_constructor_verifies():
    q1 = standard_quotient("N_r", 5, 1)
    q2 = standard_quotient("N_r", 5, 2)
    x_img = q2.generator_image(0)
    y_img = q2.generator_image(1)
    with pytest.raises(QuotientError):
        Homomorphism(q1, q2, (x_img, y_img))  # identity does not transport 1 -> 2
    # but x -> x, y -> y^3 does (1*3*2 = 6 = 1 mod 5)
    phi = Homomorphism(q1, q2, (x_img, y_img ** 3))
    assert phi.is_bijective()
    assert induced_frattini_matrix(phi).entries == ((1, 0), (0, 3))


def test_identity_automorphism_matrix():
    q = standard_quotient("N_r", 5, 1)
    phi = Homomorphism(q, q, tuple(q.generator_image(j) for j in range(2)))
    m = induced_frattini_matrix(phi)
    assert m.entries == ((1, 0), (0, 1))
    assert m.det == 1 and m.invertible


def test_frattini_matrix_functorial():
    q = standard_quotient("N_r", 5, 2)
    rng = random.Random(12)
    auts = list(all_isomorphisms(q, q))
    for _ in range(25):
        f, g = rng.choice(auts), rng.choice(auts)
        assert (induced_frattini_matrix(f) * induced_frattini_matrix(g)
                == induced_frattini_matrix(f.compose(g)))


def test_frattini_matrix_det_formula():
    m = FrattiniMatrix(5, ((2, 1), (1, 3)))
    assert m.det == (2 * 3 - 1) % 5
    assert FrattiniMatrix(5, ((0, 0, 1), (0, 4, 0), (1, 1, 0))).det == 1
    # integer determinant 29
    assert FrattiniMatrix(5, ((1, 2, 0, 1), (0, 1, 3, 0), (2, 0, 1, 1),
                              (1, 1, 0, 3))).det == 4


def test_det_residue_matches_rs_ratio():
    # every isomorphism between the r- and s-families induces determinant
    # r * s^-1 mod p
    p = 5
    for (r, s) in [(1, 2), (2, 3), (3, 4), (1, 4)]:
        scan = isomorphism_det_scan(standard_quotient("N_r", p, r),
                                    standard_quotient("N_r", p, s))
        expected = (r * pow(s, p - 2, p)) % p
        assert scan.det_residues == (expected,)
        assert scan.isomorphisms_found == 12500


def test_all_isomorphisms_are_lower_triangular():
    # the proof-side restriction to maps preserving the abelian maximal
    # subgroup emerges from the search: every isomorphism found has an
    # upper-right Frattini entry of zero
    q1 = standard_quotient("N_r", 5, 1)
    q2 = standard_quotient("N_r", 5, 2)
    for phi in all_isomorphisms(q1, q2):
        assert induced_frattini_matrix(phi).entries[0][1] == 0


def test_det_scan_matches_object_path():
    q1 = standard_quotient("N_r", 5, 1)
    q2 = standard_quotient("N_r", 5, 3)
    scan = isomorphism_det_scan(q1, q2)
    objs = list(all_isomorphisms(q1, q2))
    assert scan.isomorphisms_found == len(objs)
    assert set(scan.det_residues) == {
        induced_frattini_matrix(phi).det for phi in objs}


def test_isomorphisms_agree_with_symbolic_oracle():
    # checked without the dense relator evaluation: the symbolic relator
    # check of Homomorphism accepts what the search found and rejects a
    # seeded sample of the order-matching tuples it left out
    G = standard_quotient("N_r", 5, 1)
    H = standard_quotient("N_r", 5, 2)
    dG, dH = G.dense, H.dense
    cands = [np.flatnonzero(dH.orders == dG.orders[g]) for g in dG.gen_indices()]
    found = {tuple(im.index() for im in phi.images)
             for phi in all_isomorphisms(G, H)}
    first = set(cands[0][:3].tolist())
    chosen = [tup for tup in found if tup[0] in first]
    assert chosen
    for tup in chosen:
        assert Homomorphism(G, H, [dH.element(i) for i in tup]).is_bijective()
    rng = random.Random(5)
    rejected = 0
    while rejected < 50:
        tup = tuple(int(c[rng.randrange(c.size)]) for c in cands)
        if tup in found:
            continue
        with pytest.raises(QuotientError):
            Homomorphism(G, H, [dH.element(i) for i in tup])
        rejected += 1


@pytest.mark.parametrize("grid", [1, 1 << 30])
def test_search_output_independent_of_grid(monkeypatch, grid):
    q = standard_quotient("N_r", 5, 1)
    m1 = standard_quotient("DH_M_r", 5, 1)
    m2 = standard_quotient("DH_M_r", 5, 2)
    expected = ([tuple(im.index() for im in phi.images)
                 for phi in all_isomorphisms(q, q)],
                matrix_lift_search(m2, m1))
    monkeypatch.setattr(lab, "_GRID", grid)
    assert ([tuple(im.index() for im in phi.images)
             for phi in all_isomorphisms(q, q)],
            matrix_lift_search(m2, m1)) == expected


def test_det_scan_memory_is_bounded():
    q1 = standard_quotient("N_r", 5, 1)
    q2 = standard_quotient("N_r", 5, 2)
    isomorphism_det_scan(q1, q2)  # builds and caches the tables
    tracemalloc.start()
    try:
        isomorphism_det_scan(q1, q2)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


def test_det_scan_counts_scanned_tuples_off_rank_two():
    # a rank-3 source: 7 involutions per generator, 7^3 tuples
    F32 = builtin_basis("F32")
    x, y, z = F32.gens()
    q = make_quotient(RelatorSet(F32, (
        power(x, 2), power(y, 2), power(z, 2),
        F32.generator(3), F32.generator(4), F32.generator(5)), "C2^3"))
    assert q.order == 8
    assert isomorphism_det_scan(q, q) == IsoScanSummary(343, 168, (1,))


def test_homomorphism_apply_and_compose():
    q1 = standard_quotient("N_r", 5, 1)
    q2 = standard_quotient("N_r", 5, 2)
    phi = next(iter(all_isomorphisms(q1, q2)))
    back = next(iter(all_isomorphisms(q2, q1)))
    comp = back.compose(phi)
    rng = random.Random(3)
    for _ in range(40):
        g = q1.element([rng.randrange(25), rng.randrange(5),
                        rng.randrange(5), 0, 0])
        assert comp(g) == back(phi(g))
