"""Campaign orchestration: every claim of the two verification suites, run
per prime with exact counts and timed claim entries."""

from __future__ import annotations

import random
import time

import numpy as np

from . import dh, lab, orbits
from .cache import cached_quotient
from .hall import builtin_basis, power
from .quotients import consistency_check, make_quotient, standard_relators
from .reports import CampaignConfig, ClaimEntry, VerificationReport

__all__ = ["run_theorem_campaign", "run_example_campaign"]


class _Skip(Exception):
    def __init__(self, reason: str, counts: dict | None = None):
        super().__init__(reason)
        self.reason = reason
        self.counts = counts or {}


def _run(report: VerificationReport, claim_id: str, statement: str, fn) -> None:
    t0 = time.perf_counter()
    try:
        ok, counts = fn()
        verdict = "pass" if ok else "fail"
        reason = ""
    except _Skip as sk:
        verdict, counts, reason = "skip", sk.counts, sk.reason
    elapsed = time.perf_counter() - t0
    report.add(ClaimEntry(claim_id, statement, verdict,
                          {k: str(v) for k, v in counts.items()},
                          reason, elapsed))


# ---------------------------------------------------------------------------
# theorem campaign
# ---------------------------------------------------------------------------

def run_theorem_campaign(config: CampaignConfig) -> VerificationReport:
    config.validate("theorem")
    report = VerificationReport(config.campaign_id("theorem"),
                                {"kind": "theorem", **config.canonical()})
    for p in config.primes:
        _theorem_claims(report, config, p)
    return report


def _theorem_claims(report: VerificationReport, config: CampaignConfig,
                    p: int) -> None:
    rs = config.r_values(p)
    K = cached_quotient("K", p, None, config.cache_dir, report.warnings)
    quots = {r: cached_quotient("N_r", p, r, config.cache_dir, report.warnings)
             for r in rs}

    def claim_orders():
        counts = {"|F/K|": K.order}
        ok = K.order == p ** 5
        for r, q in quots.items():
            counts[f"|F/N_{r}|"] = q.order
            ok &= q.order == p ** 4
        return ok, counts

    _run(report, f"p{p}.orders",
         f"|F/K| = {p}^5 and |F/N_r| = {p}^4 for every unit r", claim_orders)

    def claim_consistency():
        ok = True
        counts = {}
        for label, q in [("K", K)] + [(f"N_{r}", q) for r, q in quots.items()]:
            rep = consistency_check(q)
            counts[label] = "ok" if rep.passed else ";".join(rep.failures())
            ok &= rep.passed
        return ok, counts

    _run(report, f"p{p}.consistency",
         "reduction systems are consistent (retraction, translation "
         "bijectivity, associativity, relator closure)", claim_consistency)

    def claim_structure():
        ok = True
        counts = {}
        for r, q in quots.items():
            inv = lab.series_invariants(q)
            counts[f"N_{r}"] = (f"order={inv.order},exp={inv.exponent},"
                                f"class={inv.nilpotency_class}")
            ok &= (inv.nilpotency_class == 3 and inv.exponent == p * p
                   and inv.order == p ** 4)
        invK = lab.series_invariants(K)
        counts["K"] = (f"order={invK.order},exp={invK.exponent},"
                       f"class={invK.nilpotency_class}")
        ok &= invK.order == p ** 5
        return ok, counts

    _run(report, f"p{p}.structure",
         f"each F/N_r has class 3 and exponent {p}^2", claim_structure)

    def claim_maximal():
        ok = True
        counts = {}
        basis = builtin_basis("F23")
        for r, q in quots.items():
            ms = lab.maximal_subgroups(q)
            dense = q.dense
            abelians = [m for m in ms if dense.is_abelian(m)]
            m_img = dense.normal_closure(
                [q.reduce(power(basis.generator(0), p)).index(),
                 q.reduce(basis.generator(1)).index()])
            preimage_ok = (len(abelians) == 1
                           and np.array_equal(abelians[0], m_img))
            counts[f"N_{r}"] = (f"maximal={len(ms)},abelian={len(abelians)},"
                                f"preimage_is_M={preimage_ok}")
            ok &= len(ms) == p + 1 and preimage_ok
        return ok, counts

    _run(report, f"p{p}.maximal",
         f"F/N_r has {p}+1 maximal subgroups with exactly one abelian, the "
         "image of the distinguished subgroup", claim_maximal)

    def claim_pairwise():
        ok = True
        counts = {"pairs": 0}
        for i, r in enumerate(rs):
            for s in rs[i + 1:]:
                counts["pairs"] += 1
                if not lab.is_isomorphic(quots[r], quots[s]):
                    ok = False
                    counts[f"({r},{s})"] = "NOT isomorphic"
        return ok, counts

    _run(report, f"p{p}.pairwise-isomorphic",
         "all quotients F/N_r are isomorphic", claim_pairwise)

    def claim_psi():
        """All draws in one `orbits.PsiBatch` on the tables of K; the rng
        draws params, r and s per draw, in that order."""
        rng = random.Random(f"{config.seed}|{p}|psi")
        draws = config.psi_samples
        params, src, dst, criterion = [], [], [], []
        for _ in range(draws):
            params.append(orbits.sample_psi_params(p, rng))
            r = rng.choice(rs)
            s = rng.choice(rs)
            src.append(quots[r])
            dst.append(quots[s])
            criterion.append(orbits.membership_criterion(p, r, s, params[-1]))
        batch = orbits.PsiBatch(K, params)
        bad_suite = int((~batch.congruences().all(axis=1)).sum())
        bad_criterion = int((batch.transports(src, dst) != criterion).sum())
        counts = {"draws": draws, "congruence_failures": bad_suite,
                  "criterion_mismatches": bad_criterion}
        return bad_suite == 0 and bad_criterion == 0, counts

    _run(report, f"p{p}.psi-congruences",
         "restricted endomorphisms stabilize the index-p^5 subgroup and "
         "transport relators exactly when i*k*s = r (mod p)", claim_psi)

    def claim_power_lemma():
        """One batch of n draws, a uniform in F/K and b uniform in ncl(y).
        The hypotheses are checked once for the whole batch, so a failed
        one counts all n instances as skipped; for K they hold, and that
        path is not reached."""
        rng = random.Random(f"{config.seed}|{p}|power")
        y_idx = K.reduce(builtin_basis("F23").generator(1)).index()
        ncl = K.dense.normal_closure([y_idx])
        n = config.power_samples
        a = np.empty(n, dtype=np.int64)
        b = np.empty(n, dtype=np.int64)
        for i in range(n):
            a[i] = rng.randrange(K.order)
            b[i] = ncl[rng.randrange(ncl.size)]
        try:
            holds = int(orbits.power_lemma_check(K, a, b).sum())
            skipped = 0
        except orbits.HypothesisNotMet:
            holds, skipped = 0, n
        counts = {"instances": n, "holds": holds, "skipped": skipped,
                  "ncl_order": int(ncl.size)}
        return holds + skipped == n and holds > 0, counts

    _run(report, f"p{p}.power-lemma",
         "(a*b)^p = a^p whenever b generates an abelian exponent-p normal "
         "closure", claim_power_lemma)

    def claim_orbits():
        pairs = [(r, s) for r in rs for s in rs
                 if config.all_pairs or r <= s]
        budget = config.budget_pairs
        scans = 0
        equivalent = []
        counts: dict = {"pairs": len(pairs)}
        unscanned = 0
        ok = True
        for r, s in pairs:
            if orbits.orbit_decision(p, r, s):
                cert = orbits.orbit_witness(p, r, s, quots[r], quots[s])
                if not cert.witness_verified:
                    ok = False
                equivalent.append((r, s))
            else:
                if budget is not None and scans >= budget:
                    unscanned += 1
                    continue
                cert = orbits.orbit_witness(p, r, s, quots[r], quots[s])
                scans += 1
                counts[f"dets({r},{s})"] = ",".join(map(str, cert.det_residues))
        classes = sorted({tuple(sorted({r, (p - r) % p} & set(rs)))
                          for r in rs})
        counts["orbit_classes"] = ";".join("{" + ",".join(map(str, c)) + "}"
                                           for c in classes)
        counts["equivalent_pairs"] = len(equivalent)
        counts["exhaustive_scans"] = scans
        if unscanned:
            counts["unscanned_pairs"] = unscanned
        return ok, counts

    def claim_orbits_wrapped():
        try:
            return claim_orbits()
        except orbits.OrbitContradiction as ex:
            return False, {"contradiction": str(ex)}

    _run(report, f"p{p}.orbit-grid",
         "relator families are equivalent exactly when r = +-s (mod p), "
         "with verified witnesses and det-residue scan certificates",
         claim_orbits_wrapped)


# ---------------------------------------------------------------------------
# example campaign
# ---------------------------------------------------------------------------

def run_example_campaign(config: CampaignConfig) -> VerificationReport:
    config.validate("example")
    report = VerificationReport(config.campaign_id("example"),
                                {"kind": "example", **config.canonical()})
    for p in config.primes:
        _example_claims(report, config, p)
    return report


def _example_claims(report: VerificationReport, config: CampaignConfig,
                    p: int) -> None:
    rs = config.r_values(p)
    scannable = p ** 6 <= lab._SCAN_BOUND

    quots = {r: cached_quotient("DH_M_r", p, r, config.cache_dir,
                                report.warnings) for r in rs}

    # the r = 1 target and the obstruction's r: once each, off the disk cache
    for r in {1, dh.find_valid_r(p)} - {None, *rs}:
        quots[r] = make_quotient(standard_relators("DH_M_r", p, r))

    # lift searches already run at this prime, by (r, s); dh-aut's (1, 1)
    # search serves the (1, 1) pair of dh-orbit-grid
    searched: dict[tuple[int, int], list] = {}

    def claim_structure():
        if not scannable:
            raise _Skip(f"order {p}^6 exceeds the element-scan bound")
        ok = True
        counts = {}
        for r in rs:
            rep = dh.verify_structure(quots[r])
            counts[f"r={r}"] = (f"order={rep.order},derived={rep.derived_order},"
                                f"center={rep.center_order},agemo={rep.agemo_order}")
            ok &= rep.passed
        return ok, counts

    _run(report, f"p{p}.dh-structure",
         f"each order-{p}^6 quotient satisfies G' = Z(G) = G^p of order {p}^3",
         claim_structure)

    def claim_scaling():
        ok = True
        counts = {}
        for r in rs:
            det = dh.scaling_isomorphism(quots[r], quots[1], r).det
            counts[f"r={r}"] = f"det={det}"
            ok &= det == pow(r, 3, p)
        return ok, counts

    _run(report, f"p{p}.dh-scaling",
         "the r-th power map is an isomorphism onto the r = 1 quotient with "
         "induced determinant r^3", claim_scaling)

    def claim_cubic():
        counts = {"cubes": ",".join(str(pow(r, 3, p)) for r in range(1, p))}
        valid = dh.find_valid_r(p)
        counts["least_valid_r"] = valid if valid is not None else "none"
        ok = all(dh.cubic_condition(p, r) == (pow(r, 3, p) not in (1, p - 1))
                 for r in range(1, p))
        return ok, counts

    _run(report, f"p{p}.dh-cubic",
         "r^3 = +-1 (mod p) is decided by direct cube enumeration",
         claim_cubic)

    def claim_obstruction():
        if p > 7:
            raise _Skip("certified searches are sized for p <= 7")
        r0 = dh.find_valid_r(p)
        if r0 is None:
            raise _Skip(
                f"no unit r has r^3 distinct from +-1 mod {p}; the "
                "determinant obstruction is vacuous at this prime")
        all_hits = dh.matrix_lift_search(quots[r0], quots[1])
        pm1_hits = [c for c in all_hits if c.det_residue in (1, p - 1)]
        dets = sorted({c.det_residue for c in all_hits})
        counts = {"r": r0, "candidates": len(all_hits),
                  "dets": ",".join(map(str, dets)),
                  "pm1_candidates": len(pm1_hits)}
        ok = (len(all_hits) > 0 and dets == [pow(r0, 3, p)]
              and len(pm1_hits) == 0)
        return ok, counts

    _run(report, f"p{p}.dh-obstruction",
         "every lift carrying the r-family to the 1-family has determinant "
         "r^3, and the det +-1 search is empty", claim_obstruction)

    def claim_aut():
        if p not in (5, 7):
            raise _Skip("certified searches are sized for p in {5, 7}")
        searched[1, 1] = dh.matrix_lift_search(quots[1], quots[1])
        rep = dh.characteristic_check(quots[1], searched[1, 1])
        counts = {"lift_group_order": rep.lift_group_order,
                  "dets_one": rep.all_det_one,
                  "contains_shear": rep.contains_shear,
                  "h1_preserved": rep.h1_preserved,
                  "h2_preserved": rep.h2_preserved,
                  "negative_control_moved": rep.negative_control_moved}
        return rep.passed, counts

    _run(report, f"p{p}.dh-aut",
         "the lift group at r = s = 1 is a p-power-order group of "
         "determinant one containing the shear, and both distinguished "
         "subgroups are preserved", claim_aut)

    def claim_orbit_grid():
        pairs = [(r, s) for r in rs for s in rs if config.all_pairs or r <= s]
        counts: dict = {"pairs": len(pairs)}
        certified = 0
        uncertified = 0
        ok = True
        try:
            for r, s in pairs:
                cert = dh.dh_orbit_decision(p, r, s, quots[r], quots[s],
                                            searched.get((r, s)))
                if cert.certified:
                    certified += 1
                else:
                    uncertified += 1
                if cert.equivalent != orbits.orbit_decision(p, r, s):
                    ok = False
        except dh.DhContradiction as ex:
            return False, {"contradiction": str(ex)}
        counts["certified"] = certified
        counts["uncertified"] = uncertified
        return ok, counts

    _run(report, f"p{p}.dh-orbit-grid",
         "the relator families are equivalent exactly when r = +-s (mod p); "
         "pairs are certified by det +-1 searches wherever the cubic "
         "obstruction applies", claim_orbit_grid)

    def claim_central():
        if p > 7:
            raise _Skip("certified searches are sized for p <= 7")
        samples = min(config.psi_samples, 300)
        okay = dh.central_correction_invariance(
            quots[rs[0]], quots[1], samples=samples, seed=config.seed)
        return okay, {"samples": samples}

    _run(report, f"p{p}.dh-central-corrections",
         "random central corrections never change a relator-transport "
         "verdict, so monomial lifts decide the search", claim_central)
