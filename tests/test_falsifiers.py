"""A claim's check can fail under ``python -O``: one broken src fact per claim.

Each entry is (suite, the start of the failure witness, a patch of one fact
the claim certifies).  The claim's suite runs under ``python -O`` after the
patch; the claim must read "fail", and it must be the only claim of the
suite that does.
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
}


@pytest.mark.parametrize("claim", list(FALSIFIERS))
def test_a_broken_fact_fails_its_claim_alone_under_optimize(claim):
    suite, witness, setup = FALSIFIERS[claim]
    status = run_under_optimize(setup, suite)
    failed = [cid for cid, r in status.items() if r["status"] == "fail"]
    assert failed == [claim], (failed, status.get(claim))
    assert status[claim]["witness"].startswith(f"assertion failed: {witness}"), status[claim]
