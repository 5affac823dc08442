"""Command-line front end.

Subcommands: verify-theorem, verify-example, quotient-info, orbit, collect,
cache.  Exit codes: 0 all claims pass, 1 at least one claim failed, 2 usage
or internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cache import cache_entries, cached_quotient, clear_cache, default_cache_dir
from .campaigns import run_example_campaign, run_theorem_campaign
from .hall import builtin_basis
from .quotients import QuotientError, consistency_check, standard_quotient
from .reports import CampaignConfig, UsageError
from .wordexpr import WordParseError, format_normal_form, parse_word

__all__ = ["main"]


def _add_campaign_flags(sp: argparse.ArgumentParser, default_primes) -> None:
    sp.add_argument("--prime", type=int, action="append", dest="primes",
                    help="prime to verify (repeatable); default "
                         f"{default_primes}")
    sp.add_argument("--r", type=int, action="append", dest="rs",
                    help="restrict to these residues (repeatable); default all")
    sp.add_argument("--all-pairs", action="store_true",
                    help="run ordered (r, s) pairs instead of unordered")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget-pairs", type=int, default=None,
                    help="cap on exhaustive inequivalence scans per prime")
    sp.add_argument("--budget-samples", type=int, default=None,
                    help="override the sampling budgets")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.add_argument("--cache-dir", default=None)


def _config_from_args(args, default_primes) -> CampaignConfig:
    primes = tuple(args.primes) if args.primes else default_primes
    rs = tuple(args.rs) if args.rs else None
    psi = args.budget_samples if args.budget_samples else 200
    powers = args.budget_samples if args.budget_samples else 1000
    return CampaignConfig(primes=primes, rs=rs, seed=args.seed,
                          psi_samples=psi, power_samples=powers,
                          budget_pairs=args.budget_pairs,
                          all_pairs=args.all_pairs,
                          cache_dir=args.cache_dir, fmt=args.format)


def _emit_report(report, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.render_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nilforge",
        description="Exact verification of finite quotients of small free "
                    "nilpotent groups: structure, isomorphisms, and orbit "
                    "classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify-theorem",
                        help="run the two-generator verification suite")
    _add_campaign_flags(sp, (5, 7))

    sp = sub.add_parser("verify-example",
                        help="run the three-generator verification suite")
    _add_campaign_flags(sp, (5,))

    sp = sub.add_parser("quotient-info", help="build and describe a quotient")
    sp.add_argument("--kind", choices=("N_r", "K", "M", "DH_M_r"),
                    required=True)
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.add_argument("--cache-dir", default=None)

    sp = sub.add_parser("orbit", help="orbit certificate for one (r, s) pair")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--format", choices=("json", "text"), default="text")

    sp = sub.add_parser("collect", help="normal form of a word expression")
    sp.add_argument("--basis", choices=("F23", "F32"), default="F23")
    sp.add_argument("expression")

    sp = sub.add_parser("cache", help="inspect or clear the quotient cache")
    sp.add_argument("action", choices=("list", "clear", "path"))
    sp.add_argument("--cache-dir", default=None)

    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0, None) else 0

    try:
        return _dispatch(args)
    except (UsageError, WordParseError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except QuotientError as ex:
        print(f"internal error: {ex}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "verify-theorem":
        config = _config_from_args(args, (5, 7))
        report = run_theorem_campaign(config)
        _emit_report(report, config.fmt)
        return 0 if report.passed else 1

    if args.command == "verify-example":
        config = _config_from_args(args, (5,))
        report = run_example_campaign(config)
        _emit_report(report, config.fmt)
        return 0 if report.passed else 1

    if args.command == "quotient-info":
        if args.kind in ("N_r", "DH_M_r") and args.r is None:
            raise UsageError(f"kind {args.kind} requires --r")
        q = cached_quotient(args.kind, args.prime, args.r, args.cache_dir)
        rep = consistency_check(q)
        info = {
            "label": q.label,
            "basis": q.basis.name,
            "symbols": [s.name for s in q.basis.symbols],
            "weights": list(q.basis.weights()),
            "order": str(q.order),
            "moduli": list(q.moduli),
            "rules": {q.basis.symbols[s].name:
                      {"modulus": q.moduli[s], "tail": list(q.tails[s])}
                      for s in range(q.basis.size)
                      if q.moduli[s] == 1 and any(q.tails[s])
                      or q.moduli[s] > 1},
            "consistent": rep.passed,
        }
        if args.format == "json":
            print(json.dumps(info, sort_keys=True, indent=2))
        else:
            print(f"{q.label}: order {q.order}, moduli {list(q.moduli)}")
            for name, rule in info["rules"].items():
                kind = "substitution" if rule["modulus"] == 1 else "power"
                print(f"  {name}: modulus {rule['modulus']} ({kind}), "
                      f"tail {rule['tail']}")
            print(f"  consistency: {'pass' if rep.passed else 'FAIL'}")
        return 0 if rep.passed else 1

    if args.command == "orbit":
        from .orbits import orbit_witness

        p, r, s = args.prime, args.r, args.s
        cert = orbit_witness(p, r, s, standard_quotient("N_r", p, r),
                             standard_quotient("N_r", p, s))
        if args.format == "json":
            print(json.dumps(cert.to_dict(), sort_keys=True, indent=2))
        else:
            print(f"(p, r, s) = ({cert.p}, {cert.r}, {cert.s}): {cert.verdict}")
            if cert.witness_images is not None:
                print(f"  witness generator images: {cert.witness_images}")
            if cert.det_residues is not None:
                print(f"  isomorphisms found: {cert.isomorphisms_found}, "
                      f"det residues {set(cert.det_residues)}")
        return 0

    if args.command == "collect":
        basis = builtin_basis(args.basis)
        elem = parse_word(basis, args.expression)
        print(format_normal_form(elem))
        return 0

    if args.command == "cache":
        cdir = args.cache_dir or default_cache_dir()
        if args.action == "path":
            print(cdir)
        elif args.action == "list":
            for entry in cache_entries(args.cache_dir):
                print(f"{entry['file']}  {entry['label']}  order={entry['order']}")
        else:
            n = clear_cache(args.cache_dir)
            print(f"removed {n} cache file(s)")
        return 0

    raise UsageError(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
