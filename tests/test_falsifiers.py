"""A claim's check can fail under ``python -O``: one broken src fact per claim.

Each entry is keyed by its claim id, followed after a ``#`` by a label when
the claim has several, and is (suite, the start of the failure witness, a
patch of one fact the claim certifies).  The claim's suite runs under
``python -O`` after the patch; the claim must read "fail", and it must be
the only claim of the suite that does.
"""

import pytest

from under_optimize import run_under_optimize

FALSIFIERS = {
    # D4 short of one root (A3 and E6 read the same function, but D4 is checked first)
    "roots.counts": ("lattice", "D4 roots: got 23", (
        "from picfold import folding\n"
        "build = folding.ambient_root_system\n"
        "folding.ambient_root_system = lambda ambient, lat: build(ambient, lat)[1:]\n")),
    # the spinor_minus bundle short of one summand
    "D4.bundles.rank8": ("lattice", "spinor_minus: got 7", (
        "from picfold import repbundles\n"
        "build = repbundles.weight_bundle\n"
        "def broken(kind, lat):\n"
        "    bundle = build(kind, lat)\n"
        "    return bundle[:-1] if kind == 'spinor_minus' else bundle\n"
        "repbundles.weight_bundle = broken\n")),
    # one of the 27 lines replaced by h, which meets other lines than a line does
    "E6.lines.27": ("lattice", "lines met by each line", (
        "from picfold import lattice\n"
        "lines = lattice.exceptional_classes\n"
        "lattice.exceptional_classes = lambda lat: lines(lat)[:-1] + (lat.h,)\n")),
    # one triangle row repeated (a dropped row also fails F4.triangle.stabilizers, whose
    # orbit must land on the rows)
    "E6.cubic.combinatorics": ("cubic", "triangles: got 46", (
        "from picfold import configs\n"
        "build = configs.cubic_combinatorics\n"
        "def broken(lat):\n"
        "    data = build(lat)\n"
        "    return data._replace(triangles=data.triangles[[0, *range(45)]])\n"
        "configs.cubic_combinatorics = broken\n")),
    # one root negated: the images and their negatives are still the E6 roots
    "E6.doublesix.root.bijection": ("cubic", "(sum of images, simple roots)", (
        "from picfold import configs\n"
        "solve = configs.double_six_roots\n"
        "def broken(data, lat, simple):\n"
        "    roots = solve(data, lat, simple)\n"
        "    roots[5] *= -1\n"
        "    return roots\n"
        "configs.double_six_roots = broken\n")),
    # W(F4) short of a generator no longer has the stabilizer's order
    "F4.triangle.stabilizers": ("cubic", "triangle stabilizer is not W(F4)", (
        "from picfold import folding\n"
        "from picfold.rootsys import weyl_generate\n"
        "build = folding.folded_weyl_group\n"
        "folding.folded_weyl_group = lambda case, cap=10**6: weyl_generate(\n"
        "    build(case, cap).gens[:-1])\n")),
    # W(G) short of a generator: its orbit misses systems (configs imports its own binding, so
    # the systems and their count are unchanged)
    "configs.simply.transitive": ("configs", "B2: ('unreached'", (
        "from picfold import folding\n"
        "from picfold.rootsys import weyl_generate\n"
        "build = folding.folded_weyl_group\n"
        "folding.folded_weyl_group = lambda case, cap=10**6: weyl_generate(\n"
        "    build(case, cap).gens[:-1])\n")),
    # the Hirzebruch table without its f - l_i: l_1 and l_2 read as one point
    "configs.blowdown.examples": ("configs", "(l1, l2, l3, l4) rejected", (
        "from picfold import configs\n"
        "table = configs._hirzebruch_table\n"
        "configs._hirzebruch_table = lambda lat: table(lat)[::2]\n")),
    # the zero label missing from the n-torsion
    "moduli.fixed.components": ("moduli", "B2 labels, the 2-torsion points", (
        "from picfold import abelian\n"
        "torsion = abelian.SigmaModel.torsion\n"
        "abelian.SigmaModel.torsion = lambda self, n: torsion(self, n)[1:]\n")),
    # the closed form Q without its last row: G2 loses x1 + x4 = x2 + x3, which the direct
    # comparison keeps (B2 and C2 lose a row that holds on all of 2 x 2 anyway)
    "moduli.invariance.agreement": ("moduli", "G2: closed form and direct comparison disagree", (
        "from picfold import moduli\n"
        "spec = moduli.case_spec\n"
        "moduli.case_spec = lambda name: spec(name)._replace(invariance=spec(name).invariance[:-1])\n")),
    # the B2 point relation on x2 in place of x1: the zero locus moves off the identity locus
    "bundles.spinor.iff.zero": ("repbundles", "spinor identity locus differs from the zero locus", (
        "from picfold import repbundles\n"
        "points = repbundles.case_points\n"
        "repbundles.case_points = lambda case: (points(case)._replace(relations=((0, 1, 0),))\n"
        "                                       if case == 'B2' else points(case))\n")),
    # the G2 point relations without x4 = x2 + x3: the relation side holds on more tuples
    "bundles.G2.triple.iff": ("repbundles", "G2 triple locus differs from the G2 point relations", (
        "from picfold import repbundles\n"
        "points = repbundles.case_points\n"
        "repbundles.case_points = lambda case: (points(case)._replace(\n"
        "    relations=points(case).relations[:1]) if case == 'G2' else points(case))\n")),
    # vector ⊗ O(-l3) in place of vector ⊗ O(-l4): the third identity, compared on the G2
    # locus only, fails there while the first two still cut out the locus
    "bundles.G2.triple.iff#w_sm": ("repbundles", "vector ⊗ O(-l4) differs from spinor_minus "
                                   "on the G2 locus", (
        "from picfold import repbundles\n"
        "identities = repbundles._triality_identities\n"
        "def broken(lat):\n"
        "    sp_sm, w_sp, ((w, twist), sm) = identities(lat)\n"
        "    return sp_sm, w_sp, ((w, twist + lat.l(4) - lat.l(3)), sm)\n"
        "repbundles._triality_identities = broken\n")),
    # a wedge power with its last summand replaced by its first: same degrees, other points
    "bundles.C2.wedge.iff": ("repbundles", "wedge identity locus differs from the paired locus", (
        "from picfold import repbundles\n"
        "power = repbundles.wedge_power\n"
        "repbundles.wedge_power = lambda bundle, i: power(bundle, i)[:-1] + power(bundle, i)[:1]\n")),
    # h - l1 - l6 projects to h in place of 0: two lines are left of zero doubled projection
    # (test_cli.py breaks the short roots of the same claim)
    "bundles.F4.rep.27=3+24": ("repbundles", "the lines of zero doubled projection are ("
                               "DivisorClass(1, 0, -1, 0, 0, -1, 0), DivisorClass(1, 0, 0, -1, -1, 0, 0))", (
        "from picfold import repbundles\n"
        "project = repbundles._fixed_part_projection\n"
        "def broken(lat, classes):\n"
        "    line = lat.h - lat.l(1) - lat.l(6)\n"
        "    return [lat.h if e == line else img for e, img in zip(classes, project(lat, classes))]\n"
        "repbundles._fixed_part_projection = broken\n")),
}


@pytest.mark.parametrize("entry", list(FALSIFIERS))
def test_a_broken_fact_fails_its_claim_alone_under_optimize(entry):
    suite, witness, setup = FALSIFIERS[entry]
    claim = entry.partition("#")[0]
    status = run_under_optimize(setup, suite)
    failed = [cid for cid, r in status.items() if r["status"] == "fail"]
    assert failed == [claim], (failed, status.get(claim))
    assert status[claim]["witness"].startswith(f"assertion failed: {witness}"), status[claim]
