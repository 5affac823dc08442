import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

try:
    import tomllib
except ImportError:  # Python 3.10
    import tomli as tomllib

import pytest

import nilforge
from nilforge import lab
from nilforge.cache import (
    cache_entries,
    cache_key,
    cache_load,
    cache_store,
    cached_quotient,
)
from nilforge.campaigns import run_example_campaign, run_theorem_campaign
from nilforge.cli import main
from nilforge.quotients import standard_quotient
from nilforge.reports import CampaignConfig, UsageError


SMALL = dict(primes=(5,), psi_samples=15, power_samples=30, budget_pairs=1)


# -- determinism and report shape --------------------------------------------------

def test_report_bodies_byte_identical(tmp_path):
    config = CampaignConfig(cache_dir=str(tmp_path / "c"), **SMALL)
    body1 = run_theorem_campaign(config).body_json()
    body2 = run_theorem_campaign(config).body_json()
    assert body1 == body2


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


@pytest.mark.parametrize("workload", ["theorem-p5", "theorem-p7"])
def test_report_body_matches_benchmark_golden(workload, tmp_path, capsys):
    # the benchmark's argv at seed 0, in process; golden.json is only read
    gold = json.loads(GOLDEN.read_text())[workload]
    argv = gold["argv"] + ["--seed", "0", "--cache-dir", str(tmp_path / "c")]
    assert main(argv) == 0
    body = json.loads(capsys.readouterr().out)["body"]
    blob = json.dumps(body, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(blob.encode()).hexdigest() == gold["seeds"]["0"]["sha256"]


def test_report_headers_carry_timings(tmp_path):
    config = CampaignConfig(cache_dir=str(tmp_path / "c"), **SMALL)
    report = run_theorem_campaign(config)
    header = report.header_dict()
    assert "generated_at" in header
    assert set(header["claim_seconds"]) == {c.claim_id for c in report.claims}
    body = report.body_dict()
    assert body["schema"] == "nilforge-report/1"
    assert body["overall"] == "pass"
    for claim in body["claims"]:
        assert claim["statement"]
        assert all(isinstance(v, str) for v in claim["counts"].values())


def test_config_validation():
    with pytest.raises(UsageError):
        CampaignConfig(primes=(4,)).validate("theorem")
    with pytest.raises(UsageError):
        CampaignConfig(primes=(3,)).validate("theorem")
    with pytest.raises(UsageError):
        CampaignConfig(primes=(2,)).validate("example")
    with pytest.raises(UsageError):
        CampaignConfig(primes=(5,), rs=(5,)).validate("theorem")
    with pytest.raises(UsageError):
        CampaignConfig(primes=(5,), budget_pairs=-1).validate("theorem")
    CampaignConfig(primes=(5,), budget_pairs=0).validate("theorem")
    CampaignConfig(primes=(3,)).validate("example")


def test_budget_limits_scans(tmp_path):
    config = CampaignConfig(cache_dir=str(tmp_path / "c"), **SMALL)
    report = run_theorem_campaign(config)
    grid = [c for c in report.claims if c.claim_id == "p5.orbit-grid"][0]
    assert grid.counts["exhaustive_scans"] == "1"
    assert grid.counts["unscanned_pairs"] == "3"


# -- exit codes -------------------------------------------------------------------------

def test_exit_code_usage_error():
    assert main(["verify-theorem", "--prime", "4"]) == 2


def test_exit_code_negative_pair_budget(capsys):
    # a negative budget would leave every inequivalence scan undone
    assert main(["verify-theorem", "--prime", "5", "--budget-pairs", "-1"]) == 2
    assert "pair budget" in capsys.readouterr().err


def test_exit_code_parse_error():
    assert main(["collect", "--basis", "F23", "y*)("]) == 2


def test_exit_code_success(capsys):
    assert main(["collect", "--basis", "F23", "y*x"]) == 0
    assert capsys.readouterr().out.strip() == "x^1 y^1 [y,x]^1"


def test_exit_code_claim_failure(tmp_path, monkeypatch, capsys):
    import nilforge.campaigns as campaigns

    monkeypatch.setattr(campaigns.lab, "is_isomorphic", lambda G, H: False)
    rc = main(["verify-theorem", "--prime", "5", "--budget-samples", "10",
               "--budget-pairs", "0", "--format", "text",
               "--cache-dir", str(tmp_path / "c")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL] p5.pairwise-isomorphic" in out
    assert "overall: fail" in out


# -- CLI output ----------------------------------------------------------------------------

def test_collect_examples(capsys):
    main(["collect", "--basis", "F23", "[y,x,y]"])
    assert capsys.readouterr().out.strip() == "[y,x,y]^1"
    main(["collect", "--basis", "F23", "(x*y)^2"])
    assert capsys.readouterr().out.strip() == "x^2 y^2 [y,x]^1 [y,x,y]^1"
    main(["collect", "--basis", "F32", "z^-1*y*z"])
    assert capsys.readouterr().out.strip() == "y^1 [z,y]^-1"


def test_quotient_info_command(tmp_path, capsys):
    rc = main(["quotient-info", "--kind", "N_r", "--prime", "5", "--r", "2",
               "--format", "json", "--cache-dir", str(tmp_path / "c")])
    assert rc == 0
    info = json.loads(capsys.readouterr().out)
    assert info["order"] == "625"
    assert info["moduli"] == [5, 5, 5, 5, 1]
    assert info["consistent"] is True
    assert info["symbols"] == ["x", "y", "[y,x]", "[y,x,x]", "[y,x,y]"]


def test_quotient_info_kind_without_r(tmp_path, capsys):
    rc = main(["quotient-info", "--kind", "M", "--prime", "5",
               "--cache-dir", str(tmp_path / "c")])
    assert rc == 0
    assert "order 5" in capsys.readouterr().out
    assert main(["quotient-info", "--kind", "N_r", "--prime", "5",
                 "--cache-dir", str(tmp_path / "c")]) == 2


def test_orbit_command(capsys):
    rc = main(["orbit", "--prime", "5", "--r", "2", "--s", "3",
               "--format", "json"])
    assert rc == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "equivalent"
    assert cert["witness_images"] == [[1, 0, 0, 0, 0], [0, -1, 0, 0, 0]]


def test_cache_command(tmp_path, capsys):
    cdir = str(tmp_path / "cc")
    q = standard_quotient("N_r", 5, 2)
    cache_store(q, 5, cdir)
    assert main(["cache", "list", "--cache-dir", cdir]) == 0
    assert "N_r(p=5,r=2)" in capsys.readouterr().out
    assert main(["cache", "clear", "--cache-dir", cdir]) == 0
    capsys.readouterr()
    assert cache_entries(cdir) == []


# -- cache persistence ---------------------------------------------------------------------

def test_cache_round_trip(tmp_path):
    q = standard_quotient("N_r", 5, 2)
    cache_store(q, 5, tmp_path)
    loaded, status = cache_load("F23", 5, q.label, tmp_path)
    assert status == "hit"
    assert loaded.moduli == q.moduli
    assert loaded.tails == q.tails
    assert loaded.order == q.order
    payload_a = q.to_payload()
    payload_b = loaded.to_payload()
    assert payload_a == payload_b  # bit-exact round trip


def test_cache_truncated_file_recomputes(tmp_path):
    q = standard_quotient("K", 5)
    path = cache_store(q, 5, tmp_path)
    path.write_text(path.read_text()[: 40])
    loaded, status = cache_load("F23", 5, q.label, tmp_path)
    assert loaded is None and status == "corrupt"
    warnings: list = []
    q2 = cached_quotient("K", 5, None, tmp_path, warnings)
    assert q2.order == q.order
    assert any("corrupt" in w for w in warnings)
    # the recompute rewrote a good entry
    loaded, status = cache_load("F23", 5, q.label, tmp_path)
    assert status == "hit"


def test_cache_version_bump_misses(tmp_path, monkeypatch):
    q = standard_quotient("N_r", 5, 1)
    cache_store(q, 5, tmp_path)
    old_key = cache_key("F23", 5, q.label)
    import nilforge.cache as cache_mod

    monkeypatch.setattr(cache_mod, "__version__", "999.0.0")
    assert cache_mod.cache_key("F23", 5, q.label) != old_key
    loaded, status = cache_mod.cache_load("F23", 5, q.label, tmp_path)
    assert loaded is None and status == "miss"


def test_cache_checksum_tamper_detected(tmp_path):
    q = standard_quotient("N_r", 5, 1)
    path = cache_store(q, 5, tmp_path)
    doc = json.loads(path.read_text())
    doc["payload"]["moduli"][0] = 125
    path.write_text(json.dumps(doc))
    loaded, status = cache_load("F23", 5, q.label, tmp_path)
    assert loaded is None and status == "corrupt"


@pytest.mark.parametrize("modulus", [0, -5])
def test_cache_entry_with_modulus_below_one_is_corrupt(tmp_path, modulus):
    import nilforge.cache as cache_mod

    q = standard_quotient("N_r", 5, 1)
    path = cache_store(q, 5, tmp_path)
    doc = json.loads(path.read_text())
    doc["payload"]["moduli"][0] = modulus
    doc["payload"]["order"] = str(q.order // q.moduli[0] * modulus)
    doc["checksum"] = cache_mod._checksum(doc["payload"])
    path.write_text(json.dumps(doc))
    loaded, status = cache_load("F23", 5, q.label, tmp_path)
    assert loaded is None and status == "corrupt"


def test_cache_dir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NILFORGE_CACHE", str(tmp_path / "envcache"))
    assert main(["cache", "path"]) == 0
    assert capsys.readouterr().out.strip() == str(tmp_path / "envcache")


def test_console_script_installed():
    """The ``[project.scripts]`` target works as a program: its own process,
    its stdout, and ``main()``'s return value as the exit status.  The target
    is run the way the installed wrapper runs it, so the test needs no
    install; where a ``nilforge`` wrapper is on PATH, that is run as well."""
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["nilforge"]
    module, attr = target.split(":")
    args = ["collect", "--basis", "F32", "z*y"]
    package_root = str(Path(nilforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    commands = [[sys.executable, "-c", wrapper, *args]]
    if installed := shutil.which("nilforge"):
        commands.append([installed, *args])
    for command in commands:
        proc = subprocess.run(command, capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "y^1 z^1 [z,y]^1", proc.stderr


def test_verify_example_p3_skips_with_reason(tmp_path, capsys):
    rc = main(["verify-example", "--prime", "3", "--format", "text",
               "--budget-samples", "20", "--cache-dir", str(tmp_path / "c")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[SKIP] p3.dh-obstruction" in out
    assert "vacuous" in out
    assert "overall: pass" in out


def test_theorem_report_carries_orbit_classes(tmp_path):
    config = CampaignConfig(cache_dir=str(tmp_path / "c"), **SMALL)
    report = run_theorem_campaign(config)
    grid = [c for c in report.claims if c.claim_id == "p5.orbit-grid"][0]
    assert grid.counts["orbit_classes"] == "{1,4};{2,3}"


def test_example_campaign_releases_its_tables(tmp_path):
    # the campaign owns its quotients, so their tables die with it
    run_example_campaign(CampaignConfig(primes=(5,), rs=(1, 2),
                                        cache_dir=str(tmp_path / "c")))
    gc.collect()
    assert not [obj for obj in gc.get_objects() if isinstance(obj, lab.DenseGroup)]


def test_example_body_with_quotients_outside_rs(tmp_path, capsys):
    # rs holds neither r = 1 (the scaling target and dh-aut) nor the
    # obstruction's r0 = 2, so the campaign builds both beyond rs; the body
    # digest was recorded when every quotient came from a process-wide memo
    rc = main(["verify-example", "--prime", "5", "--r", "3", "--r", "4",
               "--cache-dir", str(tmp_path / "c")])
    body = json.loads(capsys.readouterr().out)["body"]
    blob = json.dumps(body, sort_keys=True, indent=2) + "\n"
    assert rc == 0
    assert (hashlib.sha256(blob.encode()).hexdigest()
            == "c65cf7c2665789d6bc29a1652daa35b4e24401138b5c8883c72b885ac1fab7ea")
