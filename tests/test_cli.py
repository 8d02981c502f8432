import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from picfold.cli import (
    ConfigError,
    RunConfig,
    VerificationReport,
    emit_report,
    load_config_file,
    main,
    run_suite,
)


def test_lattice_suite_reports():
    reports = run_suite("lattice", RunConfig())
    assert [r.claim_id for r in reports] == [
        "lattice.K.selfint", "E6.lines.27", "roots.counts", "D4.bundles.rank8",
    ]
    assert all(r.status == "pass" for r in reports)
    ids = [r.claim_id for r in reports]
    assert len(ids) == len(set(ids))


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        run_suite("nope", RunConfig())


def test_emit_json_round_trips():
    cfg = RunConfig()
    reports = run_suite("lattice", cfg)
    doc = json.loads(emit_report(reports, "json", cfg))
    assert doc["run"]["version"] == "0.1.0"
    assert doc["run"]["config"]["sigma"] == [2, 2]
    assert [r["id"] for r in doc["results"]] == [r.claim_id for r in reports]
    assert all(r["status"] in ("pass", "fail", "skipped") for r in doc["results"])


def test_empty_report_is_valid_json():
    doc = json.loads(emit_report([], "json", RunConfig()))
    assert doc["results"] == []


def test_failing_claim_has_witness_and_exit_code(tmp_path, capsys):
    bad = VerificationReport("demo.claim", "fail", "42 is not 43", 1.0)
    text = emit_report([bad], "text", RunConfig())
    assert "42 is not 43" in text
    # a failing run exits 1: simulate through main with a stubbed suite
    rc = main(["verify", "lattice", "--format", "json"])
    assert rc == 0
    capsys.readouterr()


def test_cli_json_deterministic_modulo_timing(tmp_path, capsys):
    rc1 = main(["verify", "lattice", "--format", "json", "--out", str(tmp_path / "a.json")])
    rc2 = main(["verify", "lattice", "--format", "json", "--out", str(tmp_path / "b.json")])
    assert rc1 == rc2 == 0
    a = json.loads((tmp_path / "a.json").read_text())
    b = json.loads((tmp_path / "b.json").read_text())
    for r in a["results"] + b["results"]:
        r.pop("ms")
    assert a == b


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "not-a-suite"])
    assert exc.value.code == 2


def test_bad_config_file(tmp_path, capsys):
    p = tmp_path / "cfg"
    p.write_text("sigma.m1 = nope\n")
    assert main(["verify", "lattice", "--config", str(p)]) == 2
    p.write_text("mystery.key = 3\n")
    assert main(["verify", "lattice", "--config", str(p)]) == 2
    capsys.readouterr()


def test_config_file_and_flag_precedence(tmp_path, capsys):
    p = tmp_path / "cfg"
    p.write_text("# comment\nsigma.m1 = 3\nsigma.m2 = 3\nranks.b = 2\n")
    values = load_config_file(str(p))
    assert values == {"sigma.m1": 3, "sigma.m2": 3, "ranks.b": 2}
    out = tmp_path / "r.json"
    rc = main([
        "verify", "moduli", "--config", str(p), "--sigma", "2,2",
        "--format", "json", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["run"]["config"]["sigma"] == [2, 2]  # flag overrides file
    assert doc["run"]["config"]["rank_b"] == 2
    capsys.readouterr()


def test_curve_adapter_drives_sigma(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main([
        "verify", "moduli", "--curve", "5,1,0", "--format", "json",
        "--out", str(out),
    ])
    assert rc == 0  # y^2 = x^3 + x over F5 gives the (2,2) model
    doc = json.loads(out.read_text())
    assert doc["run"]["config"]["curve"] == [5, 1, 0]
    capsys.readouterr()


def test_trivial_group_passes_moduli(capsys):
    assert main(["verify", "moduli", "--sigma", "1,1"]) == 0
    capsys.readouterr()


def test_claim_check_fails_under_optimize():
    # with no systems enumerated, configs.counts must fail even when -O strips asserts
    code = (
        "import json, sys\n"
        "from picfold import cli, configs\n"
        "configs.enumerate_exceptional_systems = lambda case, lat=None: ()\n"
        "rc = cli.main(['verify', 'configs', '--format', 'json'])\n"
        "sys.stdout.flush()\n"
        "raise SystemExit(rc)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    status = {r["id"]: r for r in json.loads(proc.stdout)["results"]}
    assert status["configs.counts"]["status"] == "fail"
    assert status["configs.counts"]["witness"].startswith("assertion failed: B2 system count")


def test_f4_decomposition_fails_under_optimize():
    # with one short root missing, bundles.F4.rep.27=3+24 must fail even under -O
    code = (
        "import json, sys\n"
        "from picfold import cli, repbundles\n"
        "roots = repbundles.f4_short_roots\n"
        "repbundles.f4_short_roots = lambda lat: roots(lat)[1:]\n"
        "rc = cli.main(['verify', 'repbundles', '--format', 'json'])\n"
        "sys.stdout.flush()\n"
        "raise SystemExit(rc)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    status = {r["id"]: r for r in json.loads(proc.stdout)["results"]}
    assert status["bundles.F4.rep.27=3+24"]["status"] == "fail"
    assert [r for r, v in status.items() if v["status"] == "fail"] == ["bundles.F4.rep.27=3+24"]


def test_f4_chi_skips_past_the_action_cap(tmp_path, capsys):
    # 9^4 domain tuples x |W(E6)| = 340,122,240 exceeds the default action cap of 10^8
    out = tmp_path / "r.json"
    rc = main(["verify", "moduli", "--sigma", "3,3", "--format", "json", "--out", str(out)])
    assert rc == 0
    status = {r["id"]: r for r in json.loads(out.read_text())["results"]}
    assert status["moduli.chi.injective.F4"]["status"] == "skipped"
    assert "exceeds the action cap 100000000" in status["moduli.chi.injective.F4"]["witness"]
    others = [r["status"] for cid, r in status.items() if cid != "moduli.chi.injective.F4"]
    assert set(others) == {"pass"}
    capsys.readouterr()
