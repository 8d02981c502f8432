"""Batch verification driver.

Runs named suites of finite checks and emits human-readable or
machine-readable certificates.  Claim ids are stable strings (the
``_suite_*`` builders below list them, suite by suite); two runs with the
same configuration produce identical reports apart from timings, and
``picfold report diff A.json B.json`` checks that of two JSON reports.

Exit codes: 0 all claims pass (or are skipped), 1 at least one claim
failed, 2 usage or configuration error, or a report that cannot be
written (``--out`` is opened before the first claim runs).  ``report
diff`` exits 0 when the reports differ only in ``ms``, 1 when they differ
(it names the first claim id that does, or ``run``) and 2 when a report
cannot be read.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from itertools import zip_longest
from math import factorial
from typing import NamedTuple

import numpy as np

from . import abelian, cases, configs, folding, lattice, liealg, moduli, repbundles, rootsys

VERSION = "0.1.0"


class RunConfig(NamedTuple):
    sigma: tuple[int, int] = (2, 2)
    curve: tuple[int, int, int] | None = None
    rank_b: int = 4
    rank_c: int = 3
    weyl_cap: int = 10**6
    action_cap: int = 10**8


class ConfigError(ValueError):
    pass


_CONFIG_KEYS = {
    "sigma.m1", "sigma.m2", "curve.p", "curve.a", "curve.b",
    "ranks.b", "ranks.c", "budget.weyl_cap", "budget.action_cap",
}


def load_config_file(path: str) -> dict:
    values: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
            try:
                values[key] = int(val.strip())
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return values


def _int_tuple(flag: str, text: str, form: str) -> tuple[int, ...]:
    """The comma-separated integers of a flag, as many as ``form`` names, else ``ConfigError``."""
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        values = ()
    if len(values) != len(form.split(",")):
        raise ConfigError(f"{flag} expects {form}, got {text!r}")
    return values


def config_from(values: dict, args) -> RunConfig:
    """The file's values over the defaults, and the command-line flags over both.

    A curve's group E(F_p) is built once, here, and its (m1, m2) is the sigma
    of the run.
    """
    merged = {}
    if "sigma.m1" in values or "sigma.m2" in values:
        merged["sigma"] = (values.get("sigma.m1", 1), values.get("sigma.m2", 1))
    if {"curve.p", "curve.a", "curve.b"} & values.keys():
        merged["curve"] = (values.get("curve.p", 5), values.get("curve.a", 1),
                           values.get("curve.b", 0))
    for field, key in (("rank_b", "ranks.b"), ("rank_c", "ranks.c"),
                       ("weyl_cap", "budget.weyl_cap"), ("action_cap", "budget.action_cap")):
        if key in values:
            merged[field] = values[key]
    if args.sigma is not None:
        merged["sigma"] = _int_tuple("--sigma", args.sigma, "m1,m2")
    if args.curve is not None:
        merged["curve"] = _int_tuple("--curve", args.curve, "p,a,b")
    merged.update((f, v) for f in ("rank_b", "rank_c") if (v := getattr(args, f)) is not None)
    if "curve" in merged:
        model, _ = abelian.weierstrass_group(*merged["curve"])
        merged["sigma"] = (model.m1, model.m2)
    cfg = RunConfig(**merged)
    abelian.SigmaModel(*cfg.sigma)  # m1 | m2, both positive
    # a rank below 2 names no B or C case; a cap below 1 refuses every claim
    if min(cfg.rank_b, cfg.rank_c) < 2:
        raise ConfigError(f"ranks must be at least 2, got b = {cfg.rank_b}, c = {cfg.rank_c}")
    if min(cfg.weyl_cap, cfg.action_cap) < 1:
        raise ConfigError(f"caps must be at least 1, got weyl_cap = {cfg.weyl_cap}, "
                          f"action_cap = {cfg.action_cap}")
    return cfg


class CheckFailed(Exception):
    """A claim's check did not hold; unlike ``assert``, survives ``python -O``."""


def check(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


class VerificationReport(NamedTuple):
    claim_id: str
    status: str
    witness: object
    ms: float


def _run_claims(claims) -> list[VerificationReport]:
    reports = []
    seen = set()
    for claim_id, fn in claims:
        check(claim_id not in seen, f"duplicate claim id {claim_id}")
        seen.add(claim_id)
        t0 = time.perf_counter()
        try:
            witness = fn()
            status = "pass"
        except SkipClaim as sk:
            witness, status = str(sk), "skipped"
        except (CheckFailed, AssertionError) as exc:
            witness, status = f"assertion failed: {exc}", "fail"
        except Exception as exc:  # noqa: BLE001 - a claim failure is data
            witness, status = f"{type(exc).__name__}: {exc}", "fail"
        ms = (time.perf_counter() - t0) * 1000.0
        reports.append(VerificationReport(claim_id, status, witness, ms))
    return reports


class SkipClaim(Exception):
    pass


def _expect(value, expected, label):
    check(value == expected, f"{label}: got {value}, expected {expected}")
    return value


def _weyl_order(case: str) -> int:
    """|W(G)| in closed form: 2^n n! for B_n and C_n, 12 for G2, 1152 for F4."""
    n = cases.case_spec(case).rank
    return {"G2": 12, "F4": 1152}.get(case, 2**n * factorial(n))


# --------------------------------------------------------------------------
# suite definitions


def _suite_lattice(cfg: RunConfig):
    def k_squares():
        out = {}
        for model, n in (("F1", 4), ("F1", 1), ("P2", 6)):
            lat = lattice.make_blowup_lattice(model, n)
            out[f"{model}.{n}"] = lat.pair(lat.K, lat.K)
        _expect(out["F1.4"], 4, "K^2 on the 4-point F1 blow-up")
        _expect(out["F1.1"], 7, "K^2 on the 1-point F1 blow-up")
        _expect(out["P2.6"], 3, "K^2 on the cubic")
        return out

    def lines27():
        lat = lattice.make_blowup_lattice("P2", 6)
        lines = lattice.exceptional_classes(lat)
        _expect(len(lines), 27, "line count")
        gram = lattice.gram_matrix(lat, lines)
        _expect(set((gram == 1).sum(axis=1).tolist()), {10}, "lines met by each line")
        _expect(set((gram == 0).sum(axis=1).tolist()), {16}, "lines disjoint from each line")
        return {"lines": 27, "meets_each": 10, "disjoint_each": 16}

    def root_counts():
        f14 = lattice.make_blowup_lattice("F1", 4)
        cub = lattice.make_blowup_lattice("P2", 6)
        d4 = folding.ambient_root_system("D", f14)
        a3 = folding.ambient_root_system("A", f14)
        e6 = folding.ambient_root_system("E6", cub)
        return {
            "D4": _expect(len(d4), 24, "D4 roots"),
            "A3": _expect(len(a3), 12, "A3 roots"),
            "E6": _expect(len(e6), 72, "E6 roots"),
        }

    def spinor_counts():
        f14 = lattice.make_blowup_lattice("F1", 4)
        return {
            kind: _expect(len(repbundles.weight_bundle(kind, f14)), 8, kind)
            for kind in ("vector", "spinor_plus", "spinor_minus")
        }

    return [
        ("lattice.K.selfint", k_squares),
        ("E6.lines.27", lines27),
        ("roots.counts", root_counts),
        ("D4.bundles.rank8", spinor_counts),
    ]


def _suite_folding(cfg: RunConfig):
    claims = []

    def folded_tags():
        out = {}
        # the fold of each ambient type, on the lattice of one case it folds to
        for key, case in (("B", "B3"), ("C", "C2"), ("E6", "F4"), ("D4-triality", "G2")):
            roots = folding.folded_simple_system(case)
            out[key] = rootsys.identify_cartan_type(
                rootsys.cartan_matrix_of(roots, cases.case_spec(case).lattice))
        _expect(out["D4-triality"], "G2", "triality fold")
        _expect(out["E6"], "F4", "E6 fold")
        _expect(out["B"], "B3", "fork fold")
        check(out["C"] in ("B2", "C2"), f"A fold gave {out['C']}, expected B2 or C2")
        return out

    claims.append(("fold.tags", folded_tags))

    def root_counts():
        out = {}
        for case in _case_names(cfg):
            n = cases.case_spec(case).rank
            out[case] = _expect(len(folding.folded_root_system(case)),
                                {"G2": 12, "F4": 48}.get(case, 2 * n * n), f"R({case})")
        return out

    claims.append(("fold.root.counts", root_counts))

    def weyl_orders():
        out = {}
        for case in [f"B{n}" for n in range(2, cfg.rank_b + 1)] + ["G2", "F4"]:
            out[f"W.{case}"] = _expect(len(folding.folded_weyl_group(case, cfg.weyl_cap)),
                                       _weyl_order(case), f"|W({case})|")
        return out

    claims.append(("W.folded.orders", weyl_orders))

    def second_reduction():
        rows, cap = {}, cfg.weyl_cap
        for n in range(2, cfg.rank_c + 1):
            rows[f"C{n}"] = (len(folding.folded_weyl_group(f"C{n}", cap)), 2**n, factorial(n))
            check(rows[f"C{n}"][0] == rows[f"C{n}"][1] * rows[f"C{n}"][2],
                  f"C{n}: {rows[f'C{n}']}")
        for n in range(2, cfg.rank_b + 1):
            # W(D_n), the ambient group of B_{n-1}, on n points
            wdn = folding.ambient_weyl_group(f"B{n - 1}", cap)
            wbn = folding.folded_weyl_group(f"B{n}", cap)
            rows[f"B{n}"] = (len(wbn), len(wdn), 2)
            check(len(wbn) == len(wdn) * 2, f"B{n}: {rows[f'B{n}']}")
        f14 = cases.case_spec("G2").lattice
        l = f14.l
        a2 = (l(2) - l(3), l(3) - f14.f + l(4))
        wa2 = rootsys.CoxeterWeylGroup(rootsys.simple_reflections(a2, f14), a2, f14, cap)
        rows["G2"] = (len(folding.folded_weyl_group("G2", cap)), len(wa2), 2)
        check(rows["G2"][0] == rows["G2"][1] * rows["G2"][2] == _weyl_order("G2"),
              f"G2: {rows['G2']}")
        wd4 = folding.ambient_weyl_group("G2", cap)  # W(D4)
        rows["F4"] = (len(folding.folded_weyl_group("F4", cap)), len(wd4), 6)
        check(rows["F4"][0] == rows["F4"][1] * rows["F4"][2] == _weyl_order("F4"),
              f"F4: {rows['F4']}")
        return {k: list(v) for k, v in rows.items()}

    claims.append(("W.second.reduction.identities", second_reduction))

    def presentations():
        out = {}
        for case in ("B2", "B3", "C2", "G2", "F4"):
            folding.check_presentations(case)
            out[case] = len(folding.folded_weyl_group(case, cfg.weyl_cap))
        return out

    claims.append(("fold.presentations.agree", presentations))
    return claims


def _suite_cubic(cfg: RunConfig):
    lat = lattice.make_blowup_lattice("P2", 6)

    def combinatorics():
        data = configs.cubic_combinatorics(lat)
        _expect(len(data.lines), 27, "lines")
        _expect(len(data.triangles), 45, "triangles")
        _expect(len(data.double_sixes), 36, "double sixes")
        per = set(np.bincount(data.triangles.ravel(), minlength=len(data.lines)).tolist())
        check(per == {5}, f"triangles per line: {sorted(per)}")
        return {"lines": 27, "triangles": 45, "double_sixes": 36, "per_line": 5}

    def weyl_order():
        _expect(len(folding.ambient_weyl_group("F4", cfg.weyl_cap)), 51840, "|W(E6)|")
        return {"order": 51840}

    def bijection():
        data = configs.cubic_combinatorics(lat)
        simple = rootsys.standard_simple_system("E6", lat)
        roots = configs.double_six_roots(data, lat, simple)
        _expect(len(set(rootsys.row_keys(roots))), 36, "distinct positive roots")
        # the images and their negatives are the E6 roots, and the images sum to 2 rho:
        # a set with a negative root in place of a positive one sums to less
        e6 = folding.ambient_root_system("E6", lat)
        check(sorted(map(tuple, np.concatenate([roots, -roots]).tolist()))
              == sorted(r.coords for r in e6), "the images and their negatives are not the E6 roots")
        total = lattice.DivisorClass(tuple(roots.sum(axis=0).tolist()))
        pairings = [lat.pair(total, b) for b in simple]
        check(pairings == [-2] * len(pairings), f"(sum of images, simple roots) = {pairings}")
        base = sorted(data.lines.index(lat.l(i)) for i in range(1, 7))
        [k] = np.flatnonzero((data.double_sixes == base).all(axis=2).any(axis=1))
        alpha0 = roots[k].tolist()
        expected = list((2 * lat.h - sum((lat.l(i) for i in range(2, 7)), lat.l(1))).coords)
        check(alpha0 == expected, f"base double six maps to {alpha0}, expected {expected}")
        return {"image_size": 36, "base_root": alpha0}

    def stabilizers():
        w = folding.ambient_weyl_group("F4", cfg.weyl_cap)  # W(E6)
        h, l = lat.h, lat.l
        tri = (h - l(1) - l(6), h - l(2) - l(5), h - l(3) - l(4))
        (order, orbit), (ordered, ordered_orbit) = configs.triangle_stabilizer(
            configs.cubic_combinatorics(lat), tri, w)
        _expect(order, _weyl_order("F4"), "unordered stabilizer")
        _expect(orbit, 45, "triangle orbit")
        _expect(ordered, 192, "ordered stabilizer")
        _expect(ordered_orbit, 270, "ordered orbit")
        # W(F4) fixes the triangle and has the stabilizer's order, so it is the stabilizer
        wf4 = folding.folded_weyl_group("F4", cfg.weyl_cap)
        check(len(wf4) == order
              and all({g.apply(e) for e in tri} == set(tri) for g in wf4.gens),
              "triangle stabilizer is not W(F4)")
        return {"unordered": order, "ordered": 192, "orbit": 45, "ordered_orbit": 270}

    return [
        ("E6.cubic.combinatorics", combinatorics),
        ("W.E6.order.51840", weyl_order),
        ("E6.doublesix.root.bijection", bijection),
        ("F4.triangle.stabilizers", stabilizers),
    ]


def _case_names(cfg: RunConfig) -> list[str]:
    """B2..B{rank_b}, C2..C{rank_c}, G2 and F4, in that order."""
    return ([f"B{n}" for n in range(2, cfg.rank_b + 1)]
            + [f"C{n}" for n in range(2, cfg.rank_c + 1)] + ["G2", "F4"])


def _suite_configs(cfg: RunConfig):
    names = _case_names(cfg)

    def counts():
        out = {}
        for case in names:
            systems = configs.enumerate_exceptional_systems(case, cfg.weyl_cap)
            out[case] = _expect(len(systems), _weyl_order(case), f"{case} system count")
        lat = cases.case_spec("G2").lattice
        listed = (lat.f - lat.l(1), lat.f - lat.l(2), lat.l(4), lat.l(3))
        check(listed in configs.enumerate_exceptional_systems("G2", cfg.weyl_cap),
              f"listed G2 system {listed} not enumerated")
        return out

    def transitive():
        out = {}
        for case in names:
            systems = configs.enumerate_exceptional_systems(case, cfg.weyl_cap)
            w = folding.folded_weyl_group(case, cfg.weyl_cap)
            rep = configs.simple_transitivity_check(systems, w)
            check(rep.simply_transitive, f"{case}: {rep.offending}")
            out[case] = rep.orbit_size
        return out

    def blowdown():
        lat = cases.case_spec("G2").lattice
        l, f = lat.l, lat.f
        check(configs.is_blowdown_sequence(lat, (l(1), l(2), l(3), l(4))),
              "(l1, l2, l3, l4) rejected")
        check(configs.is_blowdown_sequence(lat, (f - l(1), f - l(2), l(4), l(3))),
              "(f - l1, f - l2, l4, l3) rejected")
        check(not configs.is_blowdown_sequence(lat, (l(1), f - l(1), l(3), l(4))),
              "(l1, f - l1, l3, l4) accepted")
        return {"checked": 3}

    return [
        ("configs.counts", counts),
        ("configs.simply.transitive", transitive),
        ("configs.blowdown.examples", blowdown),
    ]


def _suite_moduli(cfg: RunConfig):
    sigma = abelian.SigmaModel(*cfg.sigma)
    claims = []

    def agreement():
        out = {}
        for case in ("B2", "C2", "G2", "F4"):
            out[case] = moduli.invariance_agreement_exhaustive(case, sigma, cfg.action_cap)
        return out

    claims.append(("moduli.invariance.agreement", agreement))

    def components():
        out = {}
        for case in ("B2", "C2", "G2"):
            fc = moduli.fixed_components(case, sigma)
            n = folding.case_points(case).torsion
            torsion = [(a, b) for a, b in sigma.elements() if n * a % sigma.m1 == 0 == n * b % sigma.m2]
            _expect(list(fc.labels), torsion, f"{case} labels, the {n}-torsion points")
            _expect(fc.full_torsion, len(fc.labels) == n * n, f"{case} full torsion")
            out[case] = {"labels": len(fc.labels), "full": fc.full_torsion}
        return out

    claims.append(("moduli.fixed.components", components))

    def chi_small():
        out = {}
        for case in ("B2", "B3", "C2", "G2"):
            rep = moduli.chi_injectivity_check(case, sigma, cfg.action_cap, cfg.weyl_cap)
            check(rep.passed, f"{case}: {rep.counterexample}")
            out[case] = {"domain": rep.domain_size, "orbits": rep.orbits_checked}
        return out

    claims.append(("moduli.chi.injective.small", chi_small))

    def chi_f4():
        try:
            rep = moduli.chi_injectivity_check("F4", sigma, cfg.action_cap, cfg.weyl_cap)
        except rootsys.BudgetExceededError as exc:
            raise SkipClaim(str(exc)) from None
        check(rep.passed, f"F4: {rep.counterexample}")
        return {"domain": rep.domain_size, "orbits": rep.orbits_checked}

    claims.append(("moduli.chi.injective.F4", chi_f4))

    def round_trip():
        rng = random.Random(20240801)
        out = {}
        for case in ("B2", "B3", "C2", "G2", "F4"):
            x = _random_admissible(case, sigma, rng, 20)
            images = moduli.folded_images(case, x, sigma)
            # one solve per distinct image; each draw must lie in the block of its own
            first, block = moduli.distinct_images(images)
            res = moduli.reconstruct_points(case, images[first], sigma)
            missing = np.flatnonzero(~res.contains(x, block))
            if len(missing):
                points = tuple(map(tuple, x[missing[0]].tolist()))
                raise CheckFailed(f"{case}: {points} not reconstructed")
            out[case] = len(x)
        return out

    claims.append(("moduli.reconstruction.roundtrip", round_trip))
    return claims


def _random_admissible(case, sigma, rng, count):
    """x = P t for count draws of rank random group elements t, drawn in order: (count, npoints, 2)."""
    els = list(sigma.elements())
    t = [[rng.choice(els) for _ in range(cases.case_spec(case).rank)] for _ in range(count)]
    return moduli.point_table(case, np.array(t, dtype=np.int64).reshape(count, -1, 2), sigma)


def _suite_liealg(cfg: RunConfig):
    def tables():
        out = {}
        f14 = lattice.make_blowup_lattice("F1", 4)
        cub = lattice.make_blowup_lattice("P2", 6)
        systems = {name: (lat, folding.ambient_root_system(kind, lat),
                          rootsys.standard_simple_system(kind, lat))
                   for name, kind, lat in (("D4", "D", f14), ("E6", "E6", cub))}
        for case in ("B2", "B3", "C2", "G2", "F4"):
            systems[case] = (cases.case_spec(case).lattice, folding.folded_root_system(case),
                             folding.folded_simple_system(case))
        seen3 = set()
        for name, (lat, roots, delta) in systems.items():
            table = liealg.structure_constants(lat, roots, delta)
            rep = liealg.verify_jacobi(table)
            check(rep.ok, f"{name}: Jacobi fails at {rep.first_failure}")
            a, b = np.nonzero(table.N)
            v = table.N[a, b]
            # beta - k alpha for k = 1..4, below 2^63 as three codes sum below 2^62; r counts
            # the leading roots, and each of them is within the codes' injective range
            drop = table.codes[b] - np.arange(1, 5)[:, None] * table.codes[a]
            r = np.cumprod(liealg.root_index(table.codes, drop) >= 0, axis=0).sum(axis=0)
            bad = np.flatnonzero(np.abs(v) != r + 1)
            if bad.size:
                n = bad[0]
                raise CheckFailed(f"{name}: N({table.roots[a[n]]}, {table.roots[b[n]]}) = {v[n]}, "
                                  f"string length {r[n]}")
            if (np.abs(v) == 3).any():
                seen3.add(name)
            out[name] = {"triples": rep.triples_checked, "pairs": len(a)}
        check(seen3 == {"G2"}, f"|N| = 3 occurs in {sorted(seen3)}")
        return out

    return [("liealg.jacobi.all", tables)]


def _suite_repbundles(cfg: RunConfig):
    def spinor_iff():
        lat = lattice.make_blowup_lattice("F1", 3)
        sig = abelian.SigmaModel(5, 5)
        ident, zero = repbundles.spinor_locus(lat, sig, cfg.action_cap)
        check(np.array_equal(ident, zero), "spinor identity locus differs from the zero locus")
        return {"tuples": int(ident.shape[1]), "indices": 3}

    def g2_iff():
        lat = lattice.make_blowup_lattice("F1", 4)
        sig = abelian.SigmaModel(5, 5)
        locus = repbundles.g2_triple_locus(lat, sig, cfg.action_cap)
        check(np.array_equal(locus.identity, locus.relations),
              "G2 triple locus differs from the G2 point relations")
        check(locus.w_sm.all(), "vector ⊗ O(-l4) differs from spinor_minus on the G2 locus")
        return {"tuples": int(locus.identity.shape[0]), "locus": int(locus.relations.sum())}

    def wedge_iff():
        lat = lattice.make_blowup_lattice("F1", 4)
        sig = abelian.SigmaModel(7, 7)
        identity, paired = repbundles.wedge_locus(lat, sig, cfg.action_cap)
        check(np.array_equal(identity, paired), "wedge identity locus differs from the paired locus")
        return {"tuples": int(identity.shape[0]), "locus": int(paired.sum())}

    def f4_decomp():
        # x = P t on the rows P over free parameters t: one exact run covers every group
        dec = repbundles.f4_rep_decomposition(lattice.make_blowup_lattice("P2", 6),
                                              folding.case_points("F4").points)
        return {"zero_lines": len(dec.zero_lines), "short_roots": len(dec.short_root_map),
                "kernel_rank": dec.trace_kernel_rank}

    return [
        ("bundles.spinor.iff.zero", spinor_iff),
        ("bundles.G2.triple.iff", g2_iff),
        ("bundles.C2.wedge.iff", wedge_iff),
        ("bundles.F4.rep.27=3+24", f4_decomp),
    ]


_SUITE_BUILDERS = {
    "lattice": _suite_lattice,
    "folding": _suite_folding,
    "cubic": _suite_cubic,
    "configs": _suite_configs,
    "moduli": _suite_moduli,
    "liealg": _suite_liealg,
    "repbundles": _suite_repbundles,
}

SUITES = tuple(_SUITE_BUILDERS)


def run_suite(name: str, cfg: RunConfig) -> list[VerificationReport]:
    if name == "all":
        return [r for suite in SUITES for r in run_suite(suite, cfg)]
    if name not in _SUITE_BUILDERS:
        raise ConfigError(f"unknown suite {name!r}")
    return _run_claims(_SUITE_BUILDERS[name](cfg))


def emit_report(reports, fmt: str, cfg: RunConfig) -> str:
    if fmt == "json":
        doc = {
            "run": {"config": _jsonable(cfg._asdict()), "version": VERSION},
            "results": [
                {"id": r.claim_id, "status": r.status,
                 "witness": _jsonable(r.witness), "ms": round(r.ms, 3)}
                for r in reports
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=False)
    width = max((len(r.claim_id) for r in reports), default=10)
    lines = [f"{'claim':<{width}}  status   ms"]
    lines.append("-" * (width + 18))
    for r in reports:
        lines.append(f"{r.claim_id:<{width}}  {r.status:<7}  {r.ms:9.1f}")
        if r.status in ("fail", "skipped"):  # the witness, or why the claim was skipped
            lines.append(f"    {r.witness}")
    npass = sum(r.status == "pass" for r in reports)
    nfail = sum(r.status == "fail" for r in reports)
    nskip = sum(r.status == "skipped" for r in reports)
    lines.append(f"{npass} passed, {nfail} failed, {nskip} skipped")
    return "\n".join(lines)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return str(obj)


def report_difference(a: dict, b: dict) -> str | None:
    """Where two JSON reports first differ apart from ``ms``: "run", a claim id, or None."""
    if a.get("run") != b.get("run"):
        return "run"
    for x, y in zip_longest(a["results"], b["results"], fillvalue={}):
        if {k: v for k, v in x.items() if k != "ms"} != {k: v for k, v in y.items() if k != "ms"}:
            return x.get("id", y.get("id"))
    return None


def _report_diff(paths) -> int:
    try:
        docs = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                docs.append(json.load(fh))
    except (OSError, ValueError) as exc:
        print(f"cannot read report: {exc}", file=sys.stderr)
        return 2
    if not all(isinstance(d, dict) and isinstance(d.get("results"), list)
               and all(isinstance(r, dict) for r in d["results"]) for d in docs):
        print("cannot read report: not a JSON report of picfold verify", file=sys.stderr)
        return 2
    where = report_difference(*docs)
    if where is None:
        print("reports differ only in ms")
        return 0
    print(f"reports differ at {where}")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="picfold", description="exact verification suites"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser("report", help="compare JSON reports")
    report.add_argument("action", choices=("diff",))
    report.add_argument("reports", nargs=2, metavar="REPORT")
    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITES + ("all",))
    verify.add_argument("--sigma", help="m1,m2 for the finite group model")
    verify.add_argument("--curve", help="p,a,b for the Weierstrass adapter")
    verify.add_argument("--rank-b", type=int, dest="rank_b")
    verify.add_argument("--rank-c", type=int, dest="rank_c")
    verify.add_argument("--config", help="key = value configuration file")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out", help="write the report to a file")
    args = parser.parse_args(argv)
    if args.command == "report":
        return _report_diff(args.reports)

    try:
        values = load_config_file(args.config) if args.config else {}
        cfg = config_from(values, args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.out:  # refused before any claim runs; an existing report is kept till the end
            open(args.out, "a", encoding="utf-8").close()
        reports = run_suite(args.suite, cfg)  # a claim's errors are its witness, not raised
        rendered = emit_report(reports, args.format, cfg)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        print(rendered)
    return 0 if all(r.status in ("pass", "skipped") for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
