import gc
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from nilforge import lab
from nilforge.dh import _lift_indices, matrix_lift_search
from nilforge.hall import FreeEndomorphism, builtin_basis, power
from nilforge.lab import (
    FrattiniMatrix,
    IsoScanSummary,
    is_isomorphic,
    isomorphism_det_scan,
    maximal_subgroups,
    series_invariants,
    subgroup_functors,
)
from nilforge.orbits import transports
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

def _iso_tuples(G, H):
    """The isomorphisms G -> H as generator-image index tuples, in the
    search's order (`lab._isomorphism_chunks`)."""
    cands = lab._image_candidates(G, H)
    if cands is None:
        return []
    return [tuple(row) for tup, _dets in lab._isomorphism_chunks(G, H, cands)
            for row in tup.tolist()]


def _lift(H, tup):
    """Free-group lifts of the elements of H with indices tup."""
    return [H.dense.element(i).lift() for i in tup]


def _frattini_matrix(G, H, images):
    """The induced matrix on the Frattini quotients of the map G -> H with
    free-group generator images: column j holds the weight-1 exponents mod p
    of the image of the j-th surviving weight-1 generator of G, reduced into
    H by symbolic collection."""
    p = H.prime
    cols = [H.reduce(images[s]).vector for s in lab._pc_weight1(G)]
    return FrattiniMatrix(p, tuple(tuple(c[t] % p for c in cols)
                                   for t in lab._pc_weight1(H)))


def test_quotients_isomorphic_across_r():
    q1 = standard_quotient("N_r", 5, 1)
    q2 = standard_quotient("N_r", 5, 2)
    assert is_isomorphic(q1, q2)
    assert is_isomorphic(q2, q1)
    assert is_isomorphic(q1, q1)


def test_identity_tuple_is_enumerated():
    q = standard_quotient("N_r", 5, 1)
    assert tuple(q.dense.gen_indices()) in _iso_tuples(q, q)


def test_distinct_abelian_groups_not_isomorphic():
    assert not is_isomorphic(fixture_c25(), fixture_c5xc5())
    assert _iso_tuples(fixture_c25(), fixture_c5xc5()) == []


def test_order_mismatch_short_circuits():
    assert lab._image_candidates(fixture_c5(), fixture_c25()) is None
    assert not is_isomorphic(fixture_c5(), fixture_c25())


def test_search_bound_enforced():
    with pytest.raises(QuotientError):
        is_isomorphic(standard_quotient("K", 7), standard_quotient("K", 7))


def test_automorphism_count_cyclic():
    assert isomorphism_det_scan(fixture_c5(), fixture_c5()).isomorphisms_found == 4


def test_automorphism_count_frozen_and_r_invariant():
    # exhaustive enumeration is the oracle; 12500 = (p-1) p^5 at p = 5
    counts = {isomorphism_det_scan(q, q).isomorphisms_found
              for q in (standard_quotient("N_r", 5, r) for r in range(1, 5))}
    assert counts == {12500}


def test_enumeration_deterministic_order():
    q = standard_quotient("N_r", 5, 1)
    first = _iso_tuples(q, q)
    assert first == _iso_tuples(q, q)
    assert first == sorted(first)


# -- generator images and Frattini matrices -------------------------------------------

def test_transports_verifies_generator_images():
    q1 = standard_quotient("N_r", 5, 1)
    q2 = standard_quotient("N_r", 5, 2)
    assert not transports([X, Y], q1, q2)  # identity does not transport 1 -> 2
    # but x -> x, y -> y^3 does (1*3*2 = 6 = 1 mod 5)
    images = [X, power(Y, 3)]
    assert transports(images, q1, q2)
    m = _frattini_matrix(q1, q2, images)
    assert m.entries == ((1, 0), (0, 3))
    assert m.invertible


def test_identity_automorphism_matrix():
    q = standard_quotient("N_r", 5, 1)
    assert transports([X, Y], q, q)
    m = _frattini_matrix(q, q, [X, Y])
    assert m.entries == ((1, 0), (0, 1))
    assert m.det == 1 and m.invertible


def test_frattini_matrix_functorial():
    # the lifts of two automorphisms compose in F to a lift of their
    # composite, whose matrix is the product of theirs
    q = standard_quotient("N_r", 5, 2)
    rng = random.Random(12)
    auts = _iso_tuples(q, q)
    for _ in range(25):
        f, g = (FreeEndomorphism(_lift(q, rng.choice(auts))) for _ in range(2))
        fg = f.compose(g)
        assert transports(fg.images, q, q)
        assert (_frattini_matrix(q, q, f.images) * _frattini_matrix(q, q, g.images)
                == _frattini_matrix(q, q, fg.images))


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
    # upper-right Frattini entry of zero, the x-exponent of the image of y
    q1 = standard_quotient("N_r", 5, 1)
    q2 = standard_quotient("N_r", 5, 2)
    tuples = _iso_tuples(q1, q2)
    assert tuples
    for _x_img, y_img in tuples:
        assert q2.dense.element(y_img).vector[0] % 5 == 0


def test_det_scan_matches_enumeration():
    q1 = standard_quotient("N_r", 5, 1)
    q2 = standard_quotient("N_r", 5, 3)
    scan = isomorphism_det_scan(q1, q2)
    tuples = _iso_tuples(q1, q2)
    assert scan.isomorphisms_found == len(tuples)
    assert set(scan.det_residues) == {
        _frattini_matrix(q1, q2, _lift(q2, tup)).det for tup in tuples}


def test_isomorphisms_agree_with_symbolic_oracle():
    # checked without the dense relator evaluation: the symbolic check
    # `transports`, on free-group lifts, accepts what the search found with
    # an invertible Frattini matrix, and rejects a seeded sample of the
    # order-matching tuples it left out
    G = standard_quotient("N_r", 5, 1)
    H = standard_quotient("N_r", 5, 2)
    dG, dH = G.dense, H.dense
    cands = [np.flatnonzero(dH.orders == dG.orders[g]) for g in dG.gen_indices()]
    found = set(_iso_tuples(G, H))
    first = set(cands[0][:3].tolist())
    chosen = [tup for tup in found if tup[0] in first]
    assert chosen
    for tup in chosen:
        images = _lift(H, tup)
        assert transports(images, G, H)
        assert _frattini_matrix(G, H, images).invertible
    rng = random.Random(5)
    rejected = 0
    while rejected < 50:
        tup = tuple(int(c[rng.randrange(c.size)]) for c in cands)
        if tup in found:
            continue
        assert not transports(_lift(H, tup), G, H)
        rejected += 1


@pytest.mark.parametrize("grid", [1, 1 << 30])
def test_search_output_independent_of_grid(monkeypatch, grid):
    q = standard_quotient("N_r", 5, 1)
    m1 = standard_quotient("DH_M_r", 5, 1)
    m2 = standard_quotient("DH_M_r", 5, 2)
    expected = (_iso_tuples(q, q), matrix_lift_search(m2, m1))
    monkeypatch.setattr(lab, "_GRID", grid)
    assert (_iso_tuples(q, q), matrix_lift_search(m2, m1)) == expected


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


def _engine_case(k):
    """(source, target, candidate lists): an isomorphism scan, the same
    scan with y over every element in reverse index order (so the
    prefilter on y^5 keeps positions 3000 and up), and a monomial lift
    search."""
    G, H = standard_quotient("N_r", 5, 1), standard_quotient("N_r", 5, 2)
    if k < 2:
        cands = lab._image_candidates(G, H)
        return G, H, cands if k == 0 else [cands[0][:40],
                                           np.arange(H.order)[::-1].copy()]
    S, T = standard_quotient("DH_M_r", 3, 1), standard_quotient("DH_M_r", 3, 2)
    return S, T, [_lift_indices(T, np.ndindex(3, 3, 3))] * 3


def _positions(source, target, cands):
    return np.concatenate(list(lab._transport_tuples(source, target.dense, cands)))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_engine_matches_brute_force(k):
    # one relator mask over the full product of the candidate lists, with
    # no prefilter, levels or survivors; argwhere is lexicographic
    source, target, cands = _engine_case(k)
    grid = [c.reshape((1,) * j + (-1,) + (1,) * (len(cands) - j - 1))
            for j, c in enumerate(cands)]
    mask = lab._relator_masks(source.basis, source.relator_set.relators,
                              target.dense, grid)
    want = np.argwhere(mask)
    assert 0 < len(want) < mask.size
    assert np.array_equal(_positions(source, target, cands), want)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_engine_output_independent_of_relator_order(k):
    source, target, cands = _engine_case(k)
    rels = source.relator_set
    rev = make_quotient(RelatorSet(rels.basis, rels.relators[::-1], "rev"))
    assert rev.order == source.order
    assert np.array_equal(_positions(rev, target, cands),
                          _positions(source, target, cands))


def test_searches_leave_no_memory_to_the_cyclic_collector():
    # with the collector off, whatever a scan leaves in reference cycles
    # stays allocated; a repeat scan must leave almost nothing behind
    q1, q2 = standard_quotient("N_r", 5, 1), standard_quotient("N_r", 5, 2)
    m1, m2 = standard_quotient("DH_M_r", 5, 1), standard_quotient("DH_M_r", 5, 2)
    for scan in (lambda: isomorphism_det_scan(q1, q2),
                 lambda: matrix_lift_search(m2, m1)):
        scan()  # builds and caches the tables
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            scan()
            left, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert left < 256 * 1024


def test_word_values_computes_only_the_brackets_its_words_use():
    q = standard_quotient("N_r", 5, 1)
    dense = q.dense
    calls = []
    comm = dense.comm
    dense.comm = lambda a, b: calls.append(1) or comm(a, b)
    gens = np.array(dense.gen_indices())
    try:
        # [y,x] is one commutator; [y,x,x] and [y,x,y] are not needed
        (value,) = lab._word_values(F23, [F23.generator(2)], dense, gens)
        assert len(calls) == 1
        assert value == comm(gens[1], gens[0])
        # a word in y alone needs no image of x
        (value,) = lab._word_values(F23, [power(Y, 3)], dense, {1: gens[1]})
        assert len(calls) == 1 and value == dense.power(gens[1], 3)
    finally:
        del dense.comm


def test_word_values_rejects_out_of_range_images():
    # a letter of exponent 1 is the image itself and reaches no mult
    dense = standard_quotient("N_r", 5, 1).dense
    for images in ([0, dense.n], [-1, 0], {1: np.array([0, -1])}):
        with pytest.raises(IndexError):
            list(lab._word_values(F23, [Y], dense, images))
