import json
import re
import shutil
import warnings
from unittest import mock

import numpy as np
import pytest

from picfold import abelian, cli, moduli
from picfold.cli import (
    ConfigError,
    RunConfig,
    VerificationReport,
    emit_report,
    load_config_file,
    main,
    report_difference,
    run_suite,
)
from under_optimize import run_under_optimize


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


def test_text_report_says_why_a_claim_was_skipped(capsys):
    assert main(["verify", "moduli", "--sigma", "3,3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("moduli.chi.injective.F4"))
    assert "skipped" in lines[at]
    assert "action cap" in lines[at + 1] and lines[at + 1].startswith("    ")
    # a passing claim prints no line under it
    assert lines[at + 2].startswith("moduli.reconstruction.roundtrip")


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


def test_a_repeated_config_key_is_an_error(tmp_path, capsys):
    # the second sigma.m1 used to override the first in silence
    p = tmp_path / "cfg"
    p.write_text("sigma.m1 = 2\n# again\nsigma.m1 = 3\n")
    with pytest.raises(ConfigError, match=re.escape(f"{p}:3: repeated key 'sigma.m1'")):
        load_config_file(str(p))
    out = tmp_path / "r.json"
    assert main(["verify", "lattice", "--config", str(p), "--out", str(out)]) == 2
    assert "repeated key 'sigma.m1'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, form", [
    ("--sigma", "2", "m1,m2"), ("--sigma", "a,b", "m1,m2"), ("--sigma", "2,2,2", "m1,m2"),
    ("--curve", "5,1", "p,a,b"), ("--curve", "5,x,0", "p,a,b")])
def test_a_flag_of_the_wrong_form_names_the_flag_and_its_form(tmp_path, capsys, flag, value, form):
    out = tmp_path / "r.json"
    assert main(["verify", "lattice", flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: {flag} expects {form}, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing/r.json", "."])
def test_an_unwritable_out_path_fails_before_any_claim_runs(tmp_path, capsys, where):
    # a missing directory, or a directory in place of the file
    with mock.patch.object(cli, "_run_claims", wraps=cli._run_claims) as spy:
        assert main(["verify", "lattice", "--out", str(tmp_path / where)]) == 2
    assert spy.call_count == 0
    assert capsys.readouterr().err.startswith("cannot write report: ")


def test_a_report_that_cannot_be_written_at_the_end_exits_2(tmp_path, capsys):
    folder = tmp_path / "out"
    folder.mkdir()
    run = cli.run_suite

    def run_then_remove(name, cfg):
        reports = run(name, cfg)
        shutil.rmtree(folder)
        return reports

    with mock.patch.object(cli, "run_suite", run_then_remove):
        assert main(["verify", "lattice", "--out", str(folder / "r.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot write report: ") and "Traceback" not in captured.err
    assert not folder.exists()


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


@pytest.mark.parametrize("flag, value", [("--rank-b", "0"), ("--rank-c", "0"), ("--rank-b", "1")])
def test_a_rank_below_two_is_a_configuration_error(tmp_path, capsys, flag, value):
    # an explicit 0 is not dropped in favour of the default; no claim runs
    out = tmp_path / "r.json"
    assert main(["verify", "configs", flag, value, "--format", "json", "--out", str(out)]) == 2
    assert "ranks must be at least 2" in capsys.readouterr().err
    assert not out.exists()
    p = tmp_path / "cfg"
    p.write_text("ranks.c = 1\n")
    assert main(["verify", "configs", "--config", str(p), "--out", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize("line", ["budget.weyl_cap = -5", "budget.weyl_cap = 0",
                                  "budget.action_cap = 0"])
def test_a_cap_below_one_is_a_configuration_error(tmp_path, capsys, line):
    cfg, out = tmp_path / "cap.cfg", tmp_path / "r.json"
    cfg.write_text(line + "\n")
    assert main(["verify", "folding", "--config", str(cfg), "--format", "json",
                 "--out", str(out)]) == 2
    assert "caps must be at least 1" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("curve, sigma", [("5,1,0", "2,2"), ("7,0,2", "3,3")])
def test_curve_and_sigma_of_one_group_give_one_report(tmp_path, capsys, curve, sigma):
    # the claims see only the group, so only run.config and ms may differ
    docs = []
    for flag, value in (("--curve", curve), ("--sigma", sigma)):
        out = tmp_path / f"{flag[2:]}.json"
        assert main(["verify", "moduli", flag, value, "--format", "json", "--out", str(out)]) == 0
        docs.append(json.loads(out.read_text()))
    capsys.readouterr()
    assert docs[0]["run"] != docs[1]["run"]
    docs[1]["run"] = docs[0]["run"]
    assert report_difference(*docs) is None


def test_curve_group_is_built_once(tmp_path, capsys):
    out = tmp_path / "r.json"
    with mock.patch.object(abelian, "weierstrass_group", wraps=abelian.weierstrass_group) as spy:
        assert main(["verify", "moduli", "--curve", "7,0,2", "--format", "json",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert spy.call_count == 1
    # run.config names the group the claims used
    assert json.loads(out.read_text())["run"]["config"]["sigma"] == [3, 3]


def test_trivial_group_passes_moduli(capsys):
    assert main(["verify", "moduli", "--sigma", "1,1"]) == 0
    capsys.readouterr()


def test_claim_check_fails_under_optimize():
    # with no systems enumerated, configs.counts must fail even when -O strips asserts
    status = run_under_optimize(
        "from picfold import configs\n"
        "configs.enumerate_exceptional_systems = lambda case, cap=10**6: ()\n", "configs")
    assert status["configs.counts"]["status"] == "fail"
    assert status["configs.counts"]["witness"].startswith("assertion failed: B2 system count")


_RAISED_MAGNITUDE = (
    "def broken(table):\n"
    "    a, b = np.argwhere(table.N)[0]\n"
    "    table.N[a, b] += np.sign(table.N[a, b])\n"
    "    return table\n"
    # the Jacobi check would catch the raised constant first: pass it over, so that
    # the string check is the one that must fail
    "liealg.verify_jacobi = lambda table: liealg.JacobiReport(True, 0, None)\n"
)
_FLIPPED_SIGN = (
    "def broken(table):\n"
    "    index = {rt: i for i, rt in enumerate(table.roots)}\n"
    "    a, b = next((a, b) for i, a in enumerate(table.positive)\n"
    "                for b in table.positive[i + 1:]\n"
    "                if a + b in index and (a, b) not in table.extraspecial)\n"
    "    for x, y in ((a, b), (b, a), (-a, -b), (-b, -a)):\n"
    "        table.N[index[x], index[y]] *= -1\n"
    "    return table\n"
)


@pytest.mark.parametrize("mutation, witness", [
    (_RAISED_MAGNITUDE, "assertion failed: D4: N(DivisorClass"),
    (_FLIPPED_SIGN, "assertion failed: D4: Jacobi fails at"),
], ids=["magnitude", "sign"])
def test_jacobi_claim_fails_under_optimize_on_a_broken_table(mutation, witness):
    # liealg.jacobi.all must fail on a broken table even when -O strips asserts
    [result] = run_under_optimize(
        "import numpy as np\n"
        "from picfold import liealg\n"
        "build = liealg.structure_constants\n"
        f"{mutation}"
        "liealg.structure_constants = lambda lat, roots, simple: (\n"
        "    broken(build(lat, roots, simple)))\n",
        "liealg").values()
    assert result["id"] == "liealg.jacobi.all" and result["status"] == "fail"
    assert result["witness"].startswith(witness), result["witness"]
    if mutation is _RAISED_MAGNITUDE:
        assert result["witness"].endswith("= 2, string length 0")


def test_f4_decomposition_fails_under_optimize():
    # with one short root missing, bundles.F4.rep.27=3+24 must fail even under -O
    status = run_under_optimize(
        "from picfold import repbundles\n"
        "roots = repbundles.f4_short_roots\n"
        "repbundles.f4_short_roots = lambda lat: roots(lat)[1:]\n", "repbundles")
    assert status["bundles.F4.rep.27=3+24"]["status"] == "fail"
    assert [r for r, v in status.items() if v["status"] == "fail"] == ["bundles.F4.rep.27=3+24"]


def test_the_roundtrip_solves_each_distinct_image_once():
    # at 2 x 2 the 20 draws of B2, B3, C2 and F4 share one image each; G2's fall on 12
    drawn, solved = {}, {}
    draw, solve = cli._random_admissible, moduli.reconstruct_points

    def random_admissible(case, sigma, rng, count):
        drawn[case] = draw(case, sigma, rng, count)
        return drawn[case]

    def reconstruct_points(case, imgs, sigma, **kw):
        solved.setdefault(case, []).append(np.array(imgs))
        return solve(case, imgs, sigma, **kw)

    with mock.patch.object(cli, "_random_admissible", random_admissible), \
            mock.patch.object(moduli, "reconstruct_points", reconstruct_points):
        claims = dict(cli._suite_moduli(RunConfig()))
        assert claims["moduli.reconstruction.roundtrip"]() == dict.fromkeys(drawn, 20)
    assert {case: len(calls) for case, calls in solved.items()} == dict.fromkeys(drawn, 1)
    counts = {}
    for case, [imgs] in solved.items():
        rows = {tuple(r) for r in imgs.reshape(len(imgs), -1).tolist()}
        want = moduli.folded_images(case, drawn[case], abelian.SigmaModel(2, 2))
        assert len(rows) == len(imgs) and rows == {tuple(r) for r in want.reshape(20, -1).tolist()}
        counts[case] = len(imgs)
    assert counts == {"B2": 1, "B3": 1, "C2": 1, "G2": 12, "F4": 1}


def test_roundtrip_fails_under_optimize_when_the_drawn_row_is_missing():
    # reconstruct_points drops every row that is a drawn assignment: the roundtrip must fail
    # under -O
    status = run_under_optimize(
        "from picfold import cli, moduli\n"
        "draw, solve, drawn = cli._random_admissible, moduli.reconstruct_points, []\n"
        "def random_admissible(case, sigma, rng, count):\n"
        "    drawn.append(draw(case, sigma, rng, count))\n"
        "    return drawn[-1]\n"
        "def reconstruct_points(case, imgs, sigma, **kw):\n"
        "    res = solve(case, imgs, sigma, **kw)\n"
        "    keep = ~(res.table[:, None] == drawn[-1]).all(axis=(2, 3)).any(axis=1)\n"
        "    return moduli.ReconstructionStack(res.solvable, res.kernel_size, res.table[keep],\n"
        "                                      res.image[keep])\n"
        "cli._random_admissible, moduli.reconstruct_points = random_admissible, reconstruct_points\n",
        "moduli")
    assert [r for r, v in status.items() if v["status"] == "fail"] == [
        "moduli.reconstruction.roundtrip"]
    assert "not reconstructed" in status["moduli.reconstruction.roundtrip"]["witness"]


def test_chi_claims_fail_under_optimize_with_a_trivial_small_group():
    # with W(G) replaced by the trivial group, both chi claims must fail under -O, and only they
    status = run_under_optimize(
        "from picfold import moduli\n"
        "from picfold.cases import case_spec\n"
        "from picfold.rootsys import weyl_generate\n"
        "moduli.folded_weyl_group = lambda case, cap=10**6: weyl_generate(\n"
        "    [], rank=case_spec(case).lattice.rank)\n", "moduli")
    assert [r for r, v in status.items() if v["status"] == "fail"] == [
        "moduli.chi.injective.small", "moduli.chi.injective.F4"]
    assert {v["status"] for r, v in status.items() if "chi" not in r} == {"pass"}
    assert status["moduli.chi.injective.small"]["witness"].startswith("assertion failed: B2: ")


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


def test_walks_refuse_past_the_action_cap(monkeypatch):
    # |Sigma|^k tuples are checked before anything is allocated: the loci walk 25^3, 25^4
    # and 49^3 tuples, and the agreement check's largest walk at 2 x 2 is F4's 4^6 = 4096
    cfg, walked = RunConfig(action_cap=5000), []
    walk = abelian.SigmaModel.form_chunks

    def spy(self, forms):
        walked.append(len(forms))
        return walk(self, forms)

    monkeypatch.setattr(abelian.SigmaModel, "form_chunks", spy)
    status = {r.claim_id: r for r in run_suite("repbundles", cfg)}
    for claim, k, tuples in [("bundles.spinor.iff.zero", 3, 15625),
                             ("bundles.G2.triple.iff", 4, 390625),
                             ("bundles.C2.wedge.iff", 3, 117649)]:
        assert status[claim].status == "fail"
        assert status[claim].witness == (f"BudgetExceededError: {tuples} tuples of Sigma^{k} "
                                         f"exceed the action cap 5000")
    assert walked == []
    status = {r.claim_id: r for r in run_suite("moduli", cfg)}
    agreement = status["moduli.invariance.agreement"]
    assert agreement.status == "pass" and agreement.witness["F4"] == 4096
    assert len(walked) == 4


def test_moduli_suite_emits_no_warning(tmp_path, capsys):
    # at 3 x 3 there is no full 2-torsion: B2, C2 and G2 say so in the witness, not in a warning
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["verify", "moduli", "--sigma", "3,3", "--format", "json", "--out", str(out)])
    assert rc == 0
    status = {r["id"]: r for r in json.loads(out.read_text())["results"]}
    components = status["moduli.fixed.components"]
    assert components["status"] == "pass"
    assert {case: v["full"] for case, v in components["witness"].items()} == {
        "B2": False, "C2": False, "G2": False}
    capsys.readouterr()


def test_weyl_cap_reaches_every_group_the_folding_suite_builds(tmp_path, capsys):
    # |W(B4)| = 384 and |W(F4)| = 1152 exceed the cap; the two claims that build no group pass
    cfg, out = tmp_path / "cap.cfg", tmp_path / "r.json"
    cfg.write_text("budget.weyl_cap = 100\n")
    assert main(["verify", "folding", "--config", str(cfg), "--format", "json",
                 "--out", str(out)]) == 1
    status = {r["id"]: r for r in json.loads(out.read_text())["results"]}
    for claim in ("W.folded.orders", "W.second.reduction.identities", "fold.presentations.agree"):
        assert status[claim]["status"] == "fail"
        assert status[claim]["witness"].startswith("BudgetExceededError"), claim
    assert status["fold.tags"]["status"] == status["fold.root.counts"]["status"] == "pass"
    capsys.readouterr()


def test_weyl_cap_refuses_the_system_search_with_its_estimate(tmp_path, capsys):
    # the systems are a W(G)-torsor: W(B4), of order 384, is refused before B4's search
    cfg, out = tmp_path / "cap.cfg", tmp_path / "r.json"
    cfg.write_text("budget.weyl_cap = 100\n")
    assert main(["verify", "configs", "--config", str(cfg), "--format", "json",
                 "--out", str(out)]) == 1
    status = {r["id"]: r for r in json.loads(out.read_text())["results"]}
    for claim in ("configs.counts", "configs.simply.transitive"):
        assert status[claim]["status"] == "fail"
        assert status[claim]["witness"] == ("BudgetExceededError: group order 192+ "
                                            "exceeds cap 100"), claim
    assert status["configs.blowdown.examples"]["status"] == "pass"
    capsys.readouterr()


def test_weyl_cap_reaches_the_groups_of_both_chi_claims(tmp_path, capsys):
    # |W(D4)| = 192 (B3) and |W(E6)| = 51840 (F4) exceed the cap; F4 turns the refusal into a skip
    cfg, out = tmp_path / "cap.cfg", tmp_path / "r.json"
    cfg.write_text("budget.weyl_cap = 100\n")
    assert main(["verify", "moduli", "--config", str(cfg), "--format", "json",
                 "--out", str(out)]) == 1
    status = {r["id"]: r for r in json.loads(out.read_text())["results"]}
    small, f4 = status["moduli.chi.injective.small"], status["moduli.chi.injective.F4"]
    assert small["status"] == "fail"
    assert small["witness"].startswith("BudgetExceededError")
    assert "exceeds cap 100" in small["witness"]
    assert f4["status"] == "skipped"
    assert "exceeds cap 100" in f4["witness"]
    assert {v["status"] for r, v in status.items() if "chi" not in r} == {"pass"}
    capsys.readouterr()


def test_report_diff_ignores_ms_and_names_the_first_differing_claim(tmp_path, capsys):
    a, b, edited = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "edited.json"
    for out in (a, b):
        assert main(["verify", "all", "--format", "json", "--out", str(out)]) == 0
    assert main(["report", "diff", str(a), str(b)]) == 0
    assert capsys.readouterr().out.strip() == "reports differ only in ms"

    doc = json.loads(b.read_text())
    for r in doc["results"]:  # timings alone never count
        r["ms"] = -1.0
    target = doc["results"][len(doc["results"]) // 2]
    target["witness"] = {"edited": True}
    edited.write_text(json.dumps(doc))
    assert main(["report", "diff", str(a), str(edited)]) == 1
    assert capsys.readouterr().out.strip() == f"reports differ at {target['id']}"

    doc = json.loads(a.read_text())
    dropped = doc["results"].pop()
    edited.write_text(json.dumps(doc))
    assert main(["report", "diff", str(edited), str(a)]) == 1
    assert capsys.readouterr().out.strip() == f"reports differ at {dropped['id']}"
    assert main(["report", "diff", str(a), str(tmp_path / "missing.json")]) == 2
    edited.write_text("[]")
    assert main(["report", "diff", str(edited), str(a)]) == 2
