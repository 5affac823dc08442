import random

import numpy as np
import pytest

from nilforge import orbits
from nilforge.campaigns import run_theorem_campaign
from nilforge.hall import builtin_basis, collect, multiply, power
from nilforge.orbits import (
    HypothesisNotMet,
    OrbitContradiction,
    PsiBatch,
    PsiParams,
    invert_endomorphism,
    lifts_to_aut,
    membership_criterion,
    orbit_decision,
    orbit_witness,
    power_lemma_check,
    psi_congruence_suite,
    psi_endomorphism,
    psi_transports,
    sample_psi_params,
)
from nilforge.quotients import (
    QuotientError,
    RelatorSet,
    make_quotient,
    standard_quotient,
)
from nilforge.reports import CampaignConfig

F23 = builtin_basis("F23")
X, Y = F23.gens()
IDENT = F23.identity


def params(p, i, j, k, cx=None, cy=None):
    return PsiParams(p, i, j, k, cx or IDENT, cy or IDENT)


def n_r(p, r):
    return standard_quotient("N_r", p, r)


def witness(p, r, s):
    return orbit_witness(p, r, s, n_r(p, r), n_r(p, s))


# -- congruence suite -----------------------------------------------------------

def test_psi_suite_identity_params():
    rep = psi_congruence_suite(standard_quotient("K", 5), params(5, 1, 0, 1))
    assert rep.passed
    assert len(rep.checks) == 3 + 4  # three stability congruences + each r


def test_psi_suite_random_draws():
    rng = random.Random(42)
    K = standard_quotient("K", 5)
    for _ in range(40):
        rep = psi_congruence_suite(K, sample_psi_params(5, rng))
        assert rep.passed, [c for c in rep.checks if not c[1]]


def test_psi_suite_specific_image_congruence():
    # with i = k = 1 the distinguished relator is fixed mod the big quotient
    p = params(5, 1, 0, 1)
    K = standard_quotient("K", 5)
    psi = psi_endomorphism(p)
    rel = multiply(power(X, -10), F23.generator(3))
    assert K.reduce(psi(rel)) == K.reduce(rel)


def test_psi_params_validation():
    with pytest.raises(ValueError):
        params(5, 5, 0, 1)  # i not prime to p
    with pytest.raises(ValueError):
        PsiParams(5, 1, 0, 1, X, IDENT)  # weight-1 part of correction not p-divisible


# -- membership criterion ----------------------------------------------------------

def test_criterion_examples():
    assert membership_criterion(5, 2, 2, params(5, 1, 0, 1))
    assert membership_criterion(5, 3, 2, params(5, 1, 0, 4))
    assert psi_transports(n_r(5, 3), n_r(5, 2), params(5, 1, 0, 4))
    assert not membership_criterion(5, 1, 2, params(5, 1, 0, 1))


def test_criterion_matches_transport():
    rng = random.Random(7)
    qs = {r: n_r(5, r) for r in range(1, 5)}
    for _ in range(60):
        ps = sample_psi_params(5, rng)
        r, s = rng.randrange(1, 5), rng.randrange(1, 5)
        assert (membership_criterion(5, r, s, ps)
                == psi_transports(qs[r], qs[s], ps))


# -- batched table check against the symbolic oracle -------------------------------

def _draws(p, rs, n, seed):
    """n draws of (params, r, s) in the campaign's rng order."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        ps = sample_psi_params(p, rng)
        r = rng.choice(rs)
        out.append((ps, r, rng.choice(rs)))
    return out


def _both_engines(p, draws):
    """Per draw, the congruence checks and the transport verdict, once from
    `PsiBatch` on the tables of F/K and once by collection in F."""
    K = standard_quotient("K", p)
    qs = {t: n_r(p, t) for _, r, s in draws for t in (r, s)}
    batch = PsiBatch(K, [ps for ps, _, _ in draws])
    table = (batch.congruences(),
             batch.transports([qs[r] for _, r, _ in draws],
                              [qs[s] for _, _, s in draws]))
    symbolic = (np.array([[ok for _, ok in psi_congruence_suite(K, ps).checks]
                          for ps, _, _ in draws]),
                np.array([psi_transports(qs[r], qs[s], ps)
                          for ps, r, s in draws]))
    return table, symbolic


@pytest.mark.parametrize("p,rs", [(5, (1, 2, 3, 4)), (7, (1, 2, 6))])
def test_psi_batch_matches_symbolic_oracle(p, rs):
    draws = _draws(p, rs, 200, seed=p)
    (cong, trans), (sym_cong, sym_trans) = _both_engines(p, draws)
    assert cong.shape == sym_cong.shape == (200, p + 2)
    assert np.array_equal(cong, sym_cong)
    assert np.array_equal(trans, sym_trans)
    assert cong.all()
    assert 0 < trans.sum() < 200  # both verdicts occur
    assert trans.tolist() == [membership_criterion(p, r, s, ps)
                              for ps, r, s in draws]


@pytest.mark.parametrize("p", [5, 7])
def test_psi_batch_images_match_symbolic_reduction(p):
    # the images are evaluated on K's tables, slot by slot from power
    # tables of the Hall symbol images; the oracle collects psi(x) and
    # psi(y) in F and reduces them into K
    K = standard_quotient("K", p)
    draws = [ps for ps, _, _ in _draws(p, (1,), 100, seed=3 * p)]
    draws.append(params(p, 1, 0, 1))  # empty corrections: zero-exponent slots
    want = [[K.reduce(im).index() for im in psi_endomorphism(ps).images]
            for ps in draws]
    assert PsiBatch(K, draws).images.tolist() == want
    assert PsiBatch(K, []).images.shape == (0, 2)


def test_psi_batch_unrestricted_image_fails_in_both_engines():
    # psi(y) = x*y is outside the restricted shape: write y^-1 x y into the
    # correction of y, past the validation of PsiParams
    p = 5
    y_inv_x_y = collect(F23, [(1, -1), (0, 1), (1, 1)])
    draws = []
    for ps, r, s in _draws(p, (1, 2, 3, 4), 20, seed=11):
        bad = PsiParams(p, ps.i, ps.j, 1, ps.corr_x, IDENT)
        object.__setattr__(bad, "corr_y", y_inv_x_y)
        draws.append((bad, r, s))
    assert psi_endomorphism(draws[0][0])(Y) == multiply(X, Y)
    (cong, trans), (sym_cong, sym_trans) = _both_engines(p, draws)
    assert np.array_equal(cong, sym_cong)
    assert np.array_equal(trans, sym_trans)
    assert not cong.all(axis=1).any()  # every draw fails a congruence
    assert not cong[:, 1].any()  # psi(y^p) = (xy)^p is never 1 mod K


def test_psi_batch_flipped_criterion_mismatches_alike():
    p = 5
    draws = _draws(p, (1, 2, 3, 4), 200, seed=13)
    (_, trans), (_, sym_trans) = _both_engines(p, draws)
    flipped = np.array([(ps.i * ps.k * s + r) % p == 0 for ps, r, s in draws])
    mismatches = set(np.flatnonzero(flipped != trans))
    assert mismatches == set(np.flatnonzero(flipped != sym_trans))
    assert mismatches


def test_psi_batch_refuses_a_target_that_does_not_contain_K():
    p = 5
    rels = (power(X, p), power(Y, p * p), F23.generator(4))
    target = make_quotient(RelatorSet(F23, rels, "T"))
    assert target.order == p ** 5
    batch = PsiBatch(standard_quotient("K", p), [params(p, 1, 0, 1)])
    with pytest.raises(QuotientError, match="is 625, not 3125"):
        batch.transports([n_r(p, 1)], [target])


def test_psi_claim_fails_under_a_flipped_criterion(monkeypatch, tmp_path):
    def flipped(p, r, s, ps):
        return (ps.i * ps.k * s + r) % p == 0

    monkeypatch.setattr(orbits, "membership_criterion", flipped)
    config = CampaignConfig(primes=(5,), rs=(1, 2), psi_samples=40,
                            budget_pairs=1, cache_dir=str(tmp_path / "c"))
    report = run_theorem_campaign(config)
    claim = [c for c in report.claims if c.claim_id == "p5.psi-congruences"][0]
    assert claim.verdict == "fail"
    assert claim.counts["congruence_failures"] == "0"
    assert int(claim.counts["criterion_mismatches"]) > 0


# -- lifting criterion -----------------------------------------------------------------

def test_lifts_identity():
    assert lifts_to_aut(params(5, 1, 0, 1))


def test_lifts_negative_k_with_corrections():
    cx = F23.element((0, 0, 5, 3, 2))
    cy = F23.element((5, 0, 1, 0, 0))
    assert lifts_to_aut(PsiParams(5, 1, 2, -1, cx, cy))


def test_lifts_rejects_non_units():
    assert not lifts_to_aut(params(5, 2, 0, 3))
    assert not lifts_to_aut(params(5, 1, 0, 4))


def test_invert_endomorphism_round_trip():
    # abelianization determinant i * k = 1, then -1: both inverses are
    # det * adj(M), so a dropped or misplaced sign fails the second
    for i, k in ((-1, -1), (1, -1)):
        psi = psi_endomorphism(params(5, i, 3, k, F23.element((0, 0, 2, 1, 4)),
                                      F23.element((0, 0, 0, 2, 1))))
        assert psi.matrix().det == i * k
        inv_psi = invert_endomorphism(psi)
        for g in (X, Y):
            assert psi(inv_psi(g)) == g
            assert inv_psi(psi(g)) == g


# -- orbit decisions --------------------------------------------------------------------

def test_orbit_decision_examples():
    assert orbit_decision(5, 1, 4)
    assert orbit_decision(5, 2, 3)
    assert not orbit_decision(5, 1, 2)


def test_orbit_decision_symmetric_reflexive():
    for p in (5, 7):
        for r in range(1, p):
            assert orbit_decision(p, r, r)
            for s in range(1, p):
                assert orbit_decision(p, r, s) == orbit_decision(p, s, r)


def test_orbit_classes_at_five():
    classes = {frozenset(s for s in range(1, 5) if orbit_decision(5, r, s))
               for r in range(1, 5)}
    assert classes == {frozenset({1, 4}), frozenset({2, 3})}


# -- certificates ---------------------------------------------------------------------

def test_witness_reflexive_identity():
    cert = witness(5, 3, 3)
    assert cert.verdict == "equivalent"
    assert cert.witness_verified
    assert cert.witness_images == ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))


def test_witness_negation_pair():
    cert = witness(5, 2, 3)
    assert cert.verdict == "equivalent"
    assert cert.witness_verified
    assert cert.witness_images == ((1, 0, 0, 0, 0), (0, -1, 0, 0, 0))
    # witness soundness, re-checked directly in both directions
    images = [F23.element(v) for v in cert.witness_images]
    q2 = n_r(5, 2)
    q3 = n_r(5, 3)
    from nilforge.hall import FreeEndomorphism

    endo = FreeEndomorphism(images)
    assert all(q3.membership(endo(rel)) for rel in q2.relator_set.relators)
    assert all(q2.membership(endo(rel)) for rel in q3.relator_set.relators)


def test_witness_refused_by_the_transport_check(monkeypatch):
    monkeypatch.setattr(orbits, "transports", lambda images, src, dst: False)
    with pytest.raises(OrbitContradiction, match="canonical witness failed"):
        witness(5, 1, 4)


def test_witness_inequivalent_scan():
    cert = witness(5, 1, 2)
    assert cert.verdict == "inequivalent"
    assert cert.det_residues == (3,)
    assert cert.isomorphisms_found == 12500
    assert cert.candidates_checked and cert.candidates_checked >= 12500


def test_witness_rejects_unsupported_prime():
    with pytest.raises(ValueError):
        witness(11, 1, 2)


# -- power lemma ------------------------------------------------------------------------

def _power_draws(K, seed, p, n):
    """The power-lemma claim's draws: a uniform in F/K, b uniform in ncl(y),
    in the campaign's rng order."""
    rng = random.Random(f"{seed}|{p}|power")
    ncl = K.dense.normal_closure([K.reduce(Y).index()])
    a = np.empty(n, dtype=np.int64)
    b = np.empty(n, dtype=np.int64)
    for i in range(n):
        a[i] = rng.randrange(K.order)
        b[i] = ncl[rng.randrange(ncl.size)]
    return a, b


def test_power_lemma_basic():
    K = standard_quotient("K", 5)
    x, y = K.reduce(X).index(), K.reduce(Y).index()
    assert power_lemma_check(K, np.array([x]), np.array([y])).all()
    assert power_lemma_check(K, np.array([x]), np.array([0])).all()


def test_power_lemma_random_instances():
    K = standard_quotient("K", 5)
    dense = K.dense
    ncl = dense.normal_closure([K.reduce(Y).index()])
    assert ncl.size == 125
    rng = random.Random(9)
    a = np.empty(150, dtype=np.int64)
    b = np.empty(150, dtype=np.int64)
    for i in range(150):
        a[i] = rng.randrange(K.order)
        b[i] = ncl[rng.randrange(ncl.size)]
    assert power_lemma_check(K, a, b).all()


def test_power_lemma_hypothesis_failures():
    K = standard_quotient("K", 5)
    x, y = K.reduce(X).index(), K.reduce(Y).index()
    with pytest.raises(HypothesisNotMet):
        power_lemma_check(K, np.array([y]), np.array([x]))  # ncl(x) not abelian


@pytest.mark.parametrize("p,n", [(5, 1000), (7, 200)])
def test_power_lemma_batch_matches_symbolic(p, n):
    # the campaign's draws at seed 0, each compared with (a*b)^p = a^p
    # computed by symbolic PcElement arithmetic
    K = standard_quotient("K", p)
    a, b = _power_draws(K, 0, p, n)
    got = power_lemma_check(K, a, b)
    assert got.dtype == bool and got.shape == (n,)
    dense = K.dense
    for i in range(n):
        ea, eb = dense.element(a[i]), dense.element(b[i])
        assert got[i] == ((ea * eb) ** p == ea ** p)


def test_power_lemma_batch_rejects_bad_input():
    K = standard_quotient("K", 5)
    dense = K.dense
    a, b = _power_draws(K, 0, 5, 20)
    x = K.reduce(X).index()
    with pytest.raises(HypothesisNotMet):  # one b outside ncl(y)
        power_lemma_check(K, a, np.append(b[:-1], x))
    ncl_x = dense.normal_closure([x])
    with pytest.raises(HypothesisNotMet):
        power_lemma_check(K, np.zeros(ncl_x.size, dtype=np.int64), ncl_x)
    with pytest.raises(QuotientError):
        power_lemma_check(K, a, b[:-1])
    with pytest.raises(QuotientError):
        power_lemma_check(K, a, np.append(b[:-1], K.order))
    with pytest.raises(QuotientError):
        power_lemma_check(K, np.append(a[:-1], -1), b)


def test_power_lemma_claim_is_one_batch(monkeypatch, tmp_path):
    calls = []
    check = orbits.power_lemma_check

    def counting(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(orbits, "power_lemma_check", counting)
    config = CampaignConfig(primes=(5,), rs=(1,), psi_samples=15,
                            budget_pairs=1, cache_dir=str(tmp_path / "c"))
    report = run_theorem_campaign(config)
    claim = [c for c in report.claims if c.claim_id == "p5.power-lemma"][0]
    assert len(calls) == 1
    assert claim.verdict == "pass"
    assert claim.counts == {"instances": "1000", "holds": "1000",
                            "skipped": "0", "ncl_order": "125"}
