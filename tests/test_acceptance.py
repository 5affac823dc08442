"""Acceptance suite: one test per criterion, each printing a pass line with
its measured runtime against the stated budget.  All comparisons are exact;
run with ``pytest tests/test_acceptance.py -v -s`` to see the lines."""

import json
import random
import time

import numpy as np

from nilforge.cache import cache_load, cache_store
from nilforge.campaigns import run_theorem_campaign
from nilforge.cli import main
from nilforge.hall import builtin_basis, collect, power
from nilforge.lab import (
    is_isomorphic,
    isomorphism_det_scan,
    maximal_subgroups,
    series_invariants,
)
from nilforge.orbits import (
    membership_criterion,
    orbit_decision,
    orbit_witness,
    power_lemma_check,
    psi_congruence_suite,
    psi_transports,
    sample_psi_params,
)
from nilforge.dh import (
    characteristic_check,
    matrix_lift_search,
    scaling_isomorphism,
    verify_structure,
)
from nilforge.quotients import standard_quotient
from nilforge.reports import CampaignConfig
from nilforge.series import magnus_embed, word_series

F23 = builtin_basis("F23")
F32 = builtin_basis("F32")


def _report(num: int, elapsed: float, cap: float | None, text: str) -> None:
    budget = f"{elapsed:6.1f}s" + (f" < {cap:.0f}s" if cap else "")
    print(f"criterion {num:2d} [PASS] ({budget}): {text}")
    if cap is not None:
        assert elapsed < cap, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_quotient_orders():
    t0 = time.perf_counter()
    for p in (5, 7):
        assert standard_quotient("K", p).order == p ** 5
        for r in range(1, p):
            assert standard_quotient("N_r", p, r).order == p ** 4
        assert standard_quotient("DH_M_r", p, 1).order == p ** 6
    _report(1, time.perf_counter() - t0, 30,
            "|F/N_r| = p^4, |F/K| = p^5, |F32/M_1| = p^6 for p in {5, 7}")


def test_criterion_02_structure():
    t0 = time.perf_counter()
    for p in (5, 7):
        for r in range(1, p):
            inv = series_invariants(standard_quotient("N_r", p, r))
            assert inv.nilpotency_class == 3
            assert inv.exponent == p * p
    for r in range(1, 5):
        rep = verify_structure(standard_quotient("DH_M_r", 5, r))
        assert rep.passed
        assert rep.derived_order == rep.center_order == rep.agemo_order == 125
    _report(2, time.perf_counter() - t0, 120,
            "class 3 and exponent p^2 for F/N_r; G' = Z(G) = G^p of order "
            "p^3 for each F32/M_r at p = 5")


def test_criterion_03_pairwise_isomorphism():
    t0 = time.perf_counter()
    q5 = {r: standard_quotient("N_r", 5, r) for r in range(1, 5)}
    for i, r in enumerate(q5):
        for s in list(q5)[i + 1:]:
            scan = isomorphism_det_scan(q5[r], q5[s])
            assert scan.isomorphisms_found > 0
    q7 = {r: standard_quotient("N_r", 7, r) for r in range(1, 7)}
    for i, r in enumerate(q7):
        for s in list(q7)[i + 1:]:
            assert is_isomorphic(q7[r], q7[s])
    _report(3, time.perf_counter() - t0, 180,
            "all F/N_r pairwise isomorphic (exhaustive at p=5, pruned at p=7)")


def test_criterion_04_orbit_classification():
    t0 = time.perf_counter()
    p = 5
    classes = {frozenset(s for s in range(1, p) if orbit_decision(p, r, s))
               for r in range(1, p)}
    assert classes == {frozenset({1, 4}), frozenset({2, 3})}
    qs = {r: standard_quotient("N_r", p, r) for r in range(1, p)}
    for r in range(1, p):
        for s in range(1, p):
            cert = orbit_witness(p, r, s, qs[r], qs[s])
            if orbit_decision(p, r, s):
                assert cert.verdict == "equivalent" and cert.witness_verified
            else:
                expected = (r * pow(s, p - 2, p)) % p
                assert cert.verdict == "inequivalent"
                assert cert.det_residues == (expected,)
                assert not set(cert.det_residues) & {1, p - 1}
    _report(4, time.perf_counter() - t0, 300,
            "orbit classes {1,4}, {2,3} at p=5 with verified witnesses and "
            "singleton det-residue scan certificates avoiding +-1")


def test_criterion_05_unique_abelian_maximal():
    t0 = time.perf_counter()
    for p in (5, 7):
        for r in range(1, p):
            q = standard_quotient("N_r", p, r)
            ms = maximal_subgroups(q)
            assert len(ms) == p + 1
            dense = q.dense
            abelians = [m for m in ms if dense.is_abelian(m)]
            assert len(abelians) == 1
            m_img = dense.normal_closure(
                [q.reduce(power(F23.generator(0), p)).index(),
                 q.reduce(F23.generator(1)).index()])
            import numpy as np

            assert np.array_equal(abelians[0], m_img)
    _report(5, time.perf_counter() - t0, 60,
            "exactly p+1 maximal subgroups with one abelian, the image of "
            "the distinguished index-p subgroup")


def test_criterion_06_psi_congruences():
    t0 = time.perf_counter()
    for p in (5, 7):
        rng = random.Random(f"acceptance|{p}")
        K = standard_quotient("K", p)
        qs = {r: standard_quotient("N_r", p, r) for r in range(1, p)}
        for _ in range(200):
            params = sample_psi_params(p, rng)
            assert psi_congruence_suite(K, params).passed
            r = rng.randrange(1, p)
            s = rng.randrange(1, p)
            assert (membership_criterion(p, r, s, params)
                    == psi_transports(qs[r], qs[s], params))
    _report(6, time.perf_counter() - t0, 120,
            "200 random parameter draws per prime satisfy the stability "
            "congruences, and the residue criterion matches direct transport")


def test_criterion_07_power_lemma():
    t0 = time.perf_counter()
    K = standard_quotient("K", 5)
    dense = K.dense
    ncl = dense.normal_closure([K.reduce(F23.generator(1)).index()])
    rng = random.Random("acceptance|power")
    a = np.empty(1000, dtype=np.int64)
    b = np.empty(1000, dtype=np.int64)
    for i in range(1000):
        a[i] = rng.randrange(K.order)
        b[i] = ncl[rng.randrange(ncl.size)]
    assert power_lemma_check(K, a, b).all()
    _report(7, time.perf_counter() - t0, 60,
            "1000 random instances with hypotheses satisfied give "
            "(a*b)^p = a^p in the order-p^5 quotient")


def test_criterion_08_example_obstruction():
    t0 = time.perf_counter()
    m1 = standard_quotient("DH_M_r", 5, 1)
    m2 = standard_quotient("DH_M_r", 5, 2)
    lifts = matrix_lift_search(m2, m1)
    assert lifts
    assert {c.det_residue for c in lifts} == {3}
    assert [c for c in lifts if c.det_residue in (1, 4)] == []
    assert scaling_isomorphism(m2, m1, 2).det == 3
    _report(8, time.perf_counter() - t0, 300,
            "every lift F/M_2 -> F/M_1 at p=5 has det 3; the det +-1 search "
            "is empty; the scaling map is a verified isomorphism")


def test_criterion_09_example_aut_claims():
    t0 = time.perf_counter()
    rep = characteristic_check(standard_quotient("DH_M_r", 5, 1))
    assert rep.passed
    assert rep.lift_group_order == 5  # p-power
    assert rep.all_det_one and rep.contains_shear
    assert rep.h1_preserved and rep.h2_preserved
    _report(9, time.perf_counter() - t0, 300,
            "the r = s = 1 lift group has p-power order, contains the shear, "
            "has determinant one throughout, and preserves both subgroups")


def test_criterion_10_oracle_equivalence():
    t0 = time.perf_counter()
    for basis in (F23, F32):
        rng = random.Random(f"acceptance|oracle|{basis.name}")
        for _ in range(10_000):
            n = rng.randrange(0, 21)
            word = [(rng.randrange(basis.size),
                     rng.choice([e for e in range(-9, 10) if e]))
                    for _ in range(n)]
            assert magnus_embed(collect(basis, word)) == word_series(basis, word)
    _report(10, time.perf_counter() - t0, 60,
            "collection equals the truncated-series oracle on 10^4 random "
            "words in each basis, exactly")


def test_criterion_11_determinism_and_interface(tmp_path, capsys, monkeypatch):
    t0 = time.perf_counter()
    config = CampaignConfig(primes=(5,), psi_samples=15, power_samples=30,
                            budget_pairs=1, cache_dir=str(tmp_path / "c"))
    assert run_theorem_campaign(config).body_json() == \
        run_theorem_campaign(config).body_json()

    # the CLI produces it too, and exit codes follow the contract
    args = ["verify-theorem", "--prime", "5", "--budget-samples", "15",
            "--budget-pairs", "1", "--cache-dir", str(tmp_path / "c")]
    assert main(args) == 0
    body1 = json.loads(capsys.readouterr().out)["body"]
    assert main(args) == 0
    body2 = json.loads(capsys.readouterr().out)["body"]
    assert body1 == body2
    assert main(["verify-theorem", "--prime", "4"]) == 2
    capsys.readouterr()

    import nilforge.campaigns as campaigns

    with monkeypatch.context() as mp:
        mp.setattr(campaigns.lab, "is_isomorphic", lambda G, H: False)
        rc = main(args)
        capsys.readouterr()
        assert rc == 1

    # cache round trip is bit-exact
    q = standard_quotient("N_r", 5, 3)
    cache_store(q, 5, tmp_path)
    loaded, status = cache_load("F23", 5, q.label, tmp_path)
    assert status == "hit" and loaded.to_payload() == q.to_payload()
    _report(11, time.perf_counter() - t0, None,
            "byte-identical report bodies, exit-code contract, bit-exact "
            "cache round trip")
