"""Campaign configuration and machine-readable verification reports.

A report separates a deterministic *body* (schema, campaign id, config
echo, claim entries with verdicts and exact counts) from a *header*
carrying everything run-dependent (timestamp, per-claim wall times).  Under
a fixed config and seed, two runs serialize byte-identical bodies; all
counts and orders are decimal strings so arbitrary-precision values survive
any JSON reader.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from .quotients import is_prime

SCHEMA = "nilforge-report/1"

__all__ = ["SCHEMA", "UsageError", "CampaignConfig", "ClaimEntry",
           "VerificationReport"]


class UsageError(ValueError):
    """Invalid configuration or command line; maps to exit code 2."""


@dataclass(frozen=True)
class CampaignConfig:
    primes: tuple[int, ...]
    rs: tuple[int, ...] | None = None  # None means every unit mod p
    seed: int = 0
    psi_samples: int = 200
    power_samples: int = 1000
    budget_pairs: int | None = None
    all_pairs: bool = False
    cache_dir: str | None = None
    fmt: str = "json"

    def validate(self, kind: str) -> None:
        if not self.primes:
            raise UsageError("at least one prime is required")
        for p in self.primes:
            if not is_prime(p):
                raise UsageError(f"{p} is not prime")
            if kind == "theorem" and p <= 3:
                raise UsageError(
                    f"theorem campaigns need primes greater than 3, got {p}")
            if kind == "example" and p == 2:
                raise UsageError("example campaigns need odd primes")
        if self.fmt not in ("json", "text"):
            raise UsageError(f"unknown format {self.fmt!r}")
        if self.psi_samples < 1 or self.power_samples < 1:
            raise UsageError("sample budgets must be positive")
        if self.budget_pairs is not None and self.budget_pairs < 0:
            raise UsageError("the pair budget must not be negative")
        if self.rs is not None:
            for p in self.primes:
                for r in self.rs:
                    if not 1 <= r <= p - 1:
                        raise UsageError(f"r = {r} is not a unit mod {p}")

    def r_values(self, p: int) -> tuple[int, ...]:
        if self.rs is None:
            return tuple(range(1, p))
        return tuple(sorted(set(self.rs)))

    def canonical(self) -> dict:
        return {
            "primes": list(self.primes),
            "rs": list(self.rs) if self.rs is not None else "all",
            "seed": self.seed,
            "psi_samples": self.psi_samples,
            "power_samples": self.power_samples,
            "budget_pairs": self.budget_pairs,
            "all_pairs": self.all_pairs,
            "format": self.fmt,
        }

    def campaign_id(self, kind: str) -> str:
        blob = json.dumps({"kind": kind, **self.canonical()},
                          sort_keys=True, separators=(",", ":"))
        return f"{kind}-{hashlib.sha256(blob.encode()).hexdigest()[:12]}"


@dataclass
class ClaimEntry:
    claim_id: str
    statement: str
    verdict: str  # "pass" | "fail" | "skip"
    counts: dict[str, str] = field(default_factory=dict)
    reason: str = ""
    elapsed: float = 0.0

    def body(self) -> dict:
        out = {
            "claim_id": self.claim_id,
            "statement": self.statement,
            "verdict": self.verdict,
            "counts": dict(sorted(self.counts.items())),
        }
        if self.reason:
            out["reason"] = self.reason
        return out


@dataclass
class VerificationReport:
    campaign: str
    config: dict
    claims: list[ClaimEntry] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def add(self, entry: ClaimEntry) -> None:
        self.claims.append(entry)

    @property
    def passed(self) -> bool:
        return all(c.verdict != "fail" for c in self.claims)

    def body_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "campaign": self.campaign,
            "config": self.config,
            "claims": [c.body() for c in self.claims],
            "warnings": list(self.warnings),
            "overall": "pass" if self.passed else "fail",
        }

    def header_dict(self) -> dict:
        return {
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "claim_seconds": {c.claim_id: round(c.elapsed, 3)
                              for c in self.claims},
        }

    def to_json(self) -> str:
        doc = {"header": self.header_dict(), "body": self.body_dict()}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def body_json(self) -> str:
        return json.dumps(self.body_dict(), sort_keys=True, indent=2) + "\n"

    def render_text(self) -> str:
        lines = [f"campaign {self.campaign}"]
        for c in self.claims:
            tag = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[c.verdict]
            counts = ", ".join(f"{k}={v}" for k, v in sorted(c.counts.items()))
            line = f"[{tag}] {c.claim_id}: {c.statement}"
            if counts:
                line += f"  ({counts})"
            if c.reason:
                line += f"  -- {c.reason}"
            lines.append(line)
        for w in self.warnings:
            lines.append(f"[warn] {w}")
        lines.append(f"overall: {'pass' if self.passed else 'fail'}")
        return "\n".join(lines) + "\n"
