"""Checksummed on-disk cache for constructed quotients.

Files are versioned and integrity-checked; a checksum, schema, or code
version mismatch is treated as a miss and the quotient is recomputed, never
trusted.  Writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from . import __version__
from .quotients import (FiniteQuotient, QuotientError, make_quotient,
                         standard_relators)

CACHE_SCHEMA = "nilforge-cache/1"

__all__ = ["CACHE_SCHEMA", "default_cache_dir", "cache_key", "cache_store",
           "cache_load", "cached_quotient", "cache_entries", "clear_cache"]


def default_cache_dir() -> Path:
    env = os.environ.get("NILFORGE_CACHE")
    return Path(env) if env else Path(".nilforge-cache")


def cache_key(basis_name: str, p: int, label: str) -> str:
    blob = json.dumps([basis_name, p, label, __version__],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _checksum(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cache_store(q: FiniteQuotient, p: int, cache_dir: Path | str | None = None) -> Path:
    cdir = Path(cache_dir) if cache_dir else default_cache_dir()
    cdir.mkdir(parents=True, exist_ok=True)
    payload = q.to_payload()
    payload["p"] = p
    doc = {
        "schema": CACHE_SCHEMA,
        "code_version": __version__,
        "checksum": _checksum(payload),
        "payload": payload,
    }
    path = cdir / f"{cache_key(q.basis.name, p, q.label)}.json"
    fd, tmp = tempfile.mkstemp(dir=cdir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def cache_load(basis_name: str, p: int, label: str,
               cache_dir: Path | str | None = None) -> tuple[FiniteQuotient | None, str]:
    """Returns (quotient, status); status is one of hit, miss, corrupt,
    version-mismatch.  Anything but a verified hit yields None."""
    cdir = Path(cache_dir) if cache_dir else default_cache_dir()
    path = cdir / f"{cache_key(basis_name, p, label)}.json"
    if not path.exists():
        return None, "miss"
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None, "corrupt"
    if doc.get("schema") != CACHE_SCHEMA or doc.get("code_version") != __version__:
        return None, "version-mismatch"
    payload = doc.get("payload")
    if not isinstance(payload, dict) or doc.get("checksum") != _checksum(payload):
        return None, "corrupt"
    try:
        stored_p = payload.pop("p", None)
        q = FiniteQuotient.from_payload(payload)
        if stored_p != p or q.basis.name != basis_name or q.label != label:
            return None, "corrupt"
    except (QuotientError, KeyError, TypeError, ValueError):
        return None, "corrupt"
    return q, "hit"


def cached_quotient(kind: str, p: int, r: int | None = None,
                    cache_dir: Path | str | None = None,
                    warnings: list[str] | None = None) -> FiniteQuotient:
    """Quotient builder used by campaigns.  Every call builds a new
    quotient, which the caller owns; the disk entry is verified against the
    constructed payload on every use (corrupt or stale files are reported
    and replaced, never trusted)."""
    relset = standard_relators(kind, p, r)
    q = make_quotient(relset)
    disk, status = cache_load(relset.basis.name, p, relset.label, cache_dir)
    if disk is None:
        if status != "miss" and warnings is not None:
            warnings.append(f"cache entry for {relset.label}: {status}; recomputed")
        cache_store(q, p, cache_dir)
    else:
        want = q.to_payload()
        want["p"] = p
        got = disk.to_payload()
        got["p"] = p
        if want != got:
            if warnings is not None:
                warnings.append(f"cache entry for {relset.label}: stale; replaced")
            cache_store(q, p, cache_dir)
    return q


def cache_entries(cache_dir: Path | str | None = None) -> list[dict]:
    cdir = Path(cache_dir) if cache_dir else default_cache_dir()
    out = []
    if not cdir.is_dir():
        return out
    for path in sorted(cdir.glob("*.json")):
        try:
            doc = json.loads(path.read_text())
            payload = doc.get("payload", {})
            out.append({
                "file": path.name,
                "label": payload.get("label"),
                "basis": payload.get("basis"),
                "p": payload.get("p"),
                "order": payload.get("order"),
                "code_version": doc.get("code_version"),
            })
        except (OSError, json.JSONDecodeError):
            out.append({"file": path.name, "label": None, "basis": None,
                        "p": None, "order": None, "code_version": None})
    return out


def clear_cache(cache_dir: Path | str | None = None) -> int:
    cdir = Path(cache_dir) if cache_dir else default_cache_dir()
    n = 0
    if cdir.is_dir():
        for path in cdir.glob("*.json"):
            path.unlink()
            n += 1
    return n
