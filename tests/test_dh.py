import random

import pytest

from nilforge import dh
from nilforge.dh import (
    DhContradiction,
    central_correction_invariance,
    characteristic_check,
    cubic_condition,
    dh_orbit_decision,
    find_valid_r,
    matrix_lift_search,
    scaling_isomorphism,
    verify_structure,
)
from nilforge.hall import builtin_basis, multiply, power
from nilforge.lab import FrattiniMatrix
from nilforge.orbits import transports
from nilforge.quotients import QuotientError, standard_quotient

SHEAR = ((1, 1, 0), (0, 1, 1), (0, 0, 1))


def dh_q(p, r):
    return standard_quotient("DH_M_r", p, r)


def search(p, r, s):
    return matrix_lift_search(dh_q(p, r), dh_q(p, s))


def decision(p, r, s):
    return dh_orbit_decision(p, r, s, dh_q(p, r), dh_q(p, s))


def scaling(p, r):
    return scaling_isomorphism(dh_q(p, r), dh_q(p, 1), r)


def _mat_mul(a, b, p):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) % p
                       for j in range(3)) for i in range(3))


# -- structure ---------------------------------------------------------------------

@pytest.mark.parametrize("p,r", [(5, 1), (5, 2)])
def test_structure(p, r):
    rep = verify_structure(dh_q(p, r))
    assert rep.passed
    assert rep.order == p ** 6
    assert rep.derived_order == rep.center_order == rep.agemo_order == p ** 3


def test_structure_p7():
    rep = verify_structure(dh_q(7, 1))
    assert rep.passed
    assert rep.order == 7 ** 6


# -- scaling map --------------------------------------------------------------------

def test_scaling_5_2():
    m = scaling(5, 2)
    assert m.entries == ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    assert m.det == 3  # 8 mod 5


def test_scaling_identity():
    m = scaling(5, 1)
    assert m.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_scaling_7_3():
    # 27 = -1 mod 7: the determinant argument cannot separate this prime
    m = scaling(7, 3)
    assert m.det == 6


def test_scaling_refuses_a_map_that_does_not_transport():
    # the identity does not carry the 2-family into the 1-family
    with pytest.raises(DhContradiction, match="does not transport"):
        scaling_isomorphism(dh_q(5, 2), dh_q(5, 1), 1)


# -- cubic condition ------------------------------------------------------------------

def test_cubic_examples():
    assert cubic_condition(5, 2)
    assert not cubic_condition(5, 1)
    assert all(not cubic_condition(7, r) for r in range(1, 7))


def test_find_valid_r():
    assert find_valid_r(5) == 2
    assert find_valid_r(7) is None
    assert find_valid_r(11) == 2
    assert find_valid_r(3) is None


# -- matrix lift search ----------------------------------------------------------------

def test_search_identity_family():
    lifts = search(5, 1, 1)
    assert len(lifts) == 5  # p-power cardinality
    assert {c.det_residue for c in lifts} == {1}
    mats = {c.matrix for c in lifts}
    assert SHEAR in mats
    # closure under multiplication: the passing set is a group
    assert all(_mat_mul(a, b, 5) in mats for a in mats for b in mats)


def test_search_obstructed_family():
    lifts = search(5, 2, 1)
    assert lifts
    assert {c.det_residue for c in lifts} == {3}
    assert [c for c in lifts if c.det_residue in (1, 4)] == []


@pytest.mark.parametrize("r,s", [(1, 1), (2, 1), (1, 4)])
def test_search_agrees_with_symbolic_oracle(r, s):
    # checked without the dense relator evaluation: every hit's monomial
    # lift transports the relators under symbolic membership, and a seeded
    # sample of invertible non-hits does not
    x, y, z = builtin_basis("F32").gens()

    def lift(cols):
        return [multiply(multiply(power(x, a), power(y, b)), power(z, c))
                for a, b, c in cols]

    src = dh_q(5, r)
    dst = dh_q(5, s)
    hits = matrix_lift_search(src, dst)
    assert hits
    assert all(transports(lift(c.images), src, dst) for c in hits)
    hit_cols = {c.images for c in hits}
    rng = random.Random(r * 10 + s)
    misses = 0
    while misses < 20:
        cols = tuple(tuple(rng.randrange(5) for _ in range(3)) for _ in range(3))
        if cols in hit_cols or not FrattiniMatrix(5, tuple(zip(*cols))).invertible:
            continue
        assert not transports(lift(cols), src, dst)
        misses += 1


def test_search_det_multiplicative_on_lift_group():
    lifts = search(5, 1, 1)
    mats = {c.matrix: c.det_residue for c in lifts}
    for a in mats:
        for b in mats:
            prod = _mat_mul(a, b, 5)
            assert mats[prod] == (mats[a] * mats[b]) % 5


def test_scaling_composed_with_lift_group():
    # composing the scaling map with any automorphism keeps determinant r^3
    lifts = search(5, 2, 1)
    assert {c.det_residue for c in lifts} == {pow(2, 3, 5)}


def test_search_validates_inputs():
    with pytest.raises(QuotientError):
        search(11, 1, 1)


# -- orbit decisions -------------------------------------------------------------------

def test_dh_orbit_equivalent_with_witness():
    cert = decision(5, 1, 4)
    assert cert.equivalent and cert.certified
    assert cert.witness is not None
    assert cert.witness.det_residue == 4  # a det = -1 witness


def test_dh_orbit_inequivalent():
    cert = decision(5, 2, 1)
    assert not cert.equivalent and cert.certified
    assert cert.pm1_candidates == 0


def test_dh_orbit_reflexive_identity_witness():
    cert = decision(5, 3, 3)
    assert cert.equivalent
    assert cert.witness.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_dh_orbit_witness_rechecked_in_F(monkeypatch):
    # the witness found on the tables is re-checked by the symbolic
    # transport check, and a refusal there fails the decision
    monkeypatch.setattr(dh, "transports", lambda images, src, dst: False)
    with pytest.raises(DhContradiction,
                       match="witness failed direct re-verification"):
        decision(5, 1, 1)


def test_dh_orbit_grid_at_five():
    qs = {r: dh_q(5, r) for r in range(1, 5)}
    for r in range(1, 5):
        for s in range(1, 5):
            cert = dh_orbit_decision(5, r, s, qs[r], qs[s])
            assert cert.equivalent == (r == s or r + s == 5)
            assert cert.certified


def test_dh_orbit_p7_vacuous_obstruction():
    # regression for the p = 7 discovery: scaling by 4 has det 64 = 1 mod 7
    # and transports the 1-family into the 2-family, so the det filter
    # cannot certify inequivalence; the decision is honest about it
    cert = decision(7, 1, 2)
    assert not cert.equivalent
    assert not cert.certified
    assert cert.pm1_candidates > 0
    assert "vacuous" in cert.note


# -- characteristic subgroups -------------------------------------------------------------

def test_characteristic_check():
    rep = characteristic_check(dh_q(5, 1))
    assert rep.passed
    assert rep.lift_group_order == 5
    assert rep.h1_preserved and rep.h2_preserved
    assert rep.negative_control_moved
    assert rep.center_inside_both


def test_central_correction_invariance():
    q1 = dh_q(5, 1)
    assert central_correction_invariance(dh_q(5, 2), q1, samples=1000, seed=1)
    assert central_correction_invariance(q1, q1, samples=120, seed=2)


def test_lift_group_closed_for_other_r():
    lifts = search(5, 2, 2)
    mats = {c.matrix for c in lifts}
    assert len(mats) == 5
    assert all(_mat_mul(a, b, 5) in mats for a in mats for b in mats)
    assert {c.det_residue for c in lifts} == {1}
