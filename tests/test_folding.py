from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from picfold.lattice import F1, P2, DivisorClass, make_blowup_lattice
from picfold.folding import (
    FOLDED_TO_SIMPLY_LACED,
    ambient_weyl_group,
    f4_short_roots,
    fixed_sublattice,
    fold_simple_system,
    folded_root_system,
    folded_weyl_generators,
    folded_weyl_group,
    outer_automorphism,
    restricted_reflection_matrices,
)
from picfold.rootsys import (
    basis_coordinates,
    cartan_matrix_of,
    decompose_in_basis,
    identify_cartan_type,
    simple_reflections,
    standard_simple_system,
    weyl_generate,
)


def _apply(rho, x):
    """Image of a class under rho, on the span of its simple roots and K.

    Raises ValueError unless x has integer coordinates in (simple roots,
    K); K is primitive, so an integral image needs an integral K part.
    """
    basis = np.array([r.coords for r in rho.simple_system.roots] + [rho.lattice.K.coords],
                     dtype=np.int64).T
    coeffs = basis_coordinates(basis, np.array(x.coords, dtype=np.int64))
    perm = list(rho.permutation) + [len(rho.permutation)]
    return DivisorClass(tuple((basis[:, perm] @ coeffs).tolist()))


@pytest.fixture(scope="module")
def f1_4():
    return make_blowup_lattice(F1, 4)


@pytest.fixture(scope="module")
def cubic():
    return make_blowup_lattice(P2, 6)


def test_outer_automorphism_permutes_simple_roots(f1_4, cubic):
    rho = outer_automorphism("D", f1_4)
    d = rho.simple_system.roots
    assert _apply(rho, d[0]) == d[1]
    assert _apply(rho, d[1]) == d[0]
    assert _apply(rho, d[2]) == d[2]
    e6 = outer_automorphism("E6", cubic)
    r = e6.simple_system.roots
    assert _apply(e6, r[0]) == r[5]
    assert _apply(e6, r[1]) == r[4]
    assert _apply(e6, r[2]) == r[2]


def test_triality_has_order_three(f1_4):
    rho = outer_automorphism("D4-triality", f1_4)
    assert rho.order == 3
    d = rho.simple_system.roots
    assert _apply(rho, d[0]) == d[1]
    assert _apply(rho, d[1]) == d[3]
    assert _apply(rho, d[3]) == d[0]
    assert _apply(rho, d[2]) == d[2]


def test_rho_fixes_k(f1_4, cubic):
    for rho in (outer_automorphism("D", f1_4), outer_automorphism("E6", cubic),
                outer_automorphism("D4-triality", f1_4)):
        assert _apply(rho, rho.lattice.K) == rho.lattice.K


def test_rho_rejects_classes_outside_domain(f1_4):
    rho = outer_automorphism("D", f1_4)
    with pytest.raises(ValueError):
        _apply(rho, f1_4.l(1))  # not in root lattice + ZK


def test_fold_simple_system_tags(f1_4, cubic):
    tri = outer_automorphism("D4-triality", f1_4)
    folded = fold_simple_system(tri.simple_system, tri)
    assert folded.type_tag == "G2"
    third = Fraction(1, 3)
    d = tri.simple_system.roots
    avg = tuple(third * (d[0].coords[i] + d[1].coords[i] + d[3].coords[i]) for i in range(6))
    assert folded.vectors[0] == avg

    e6 = outer_automorphism("E6", cubic)
    assert fold_simple_system(e6.simple_system, e6).type_tag == "F4"

    rho_d = outer_automorphism("D", f1_4)
    assert fold_simple_system(rho_d.simple_system, rho_d).type_tag == "B3"

    a3 = outer_automorphism("A", f1_4)
    assert fold_simple_system(a3.simple_system, a3).type_tag in ("B2", "C2")


def test_identity_fold_is_noop(f1_4):
    rho = outer_automorphism("D", f1_4)
    ident = type(rho)(rho.case, rho.lattice, rho.simple_system,
                      tuple(range(len(rho.simple_system))), 1)
    folded = fold_simple_system(rho.simple_system, ident)
    assert len(folded.vectors) == len(rho.simple_system)
    for v, r in zip(folded.vectors, rho.simple_system.roots):
        assert tuple(int(x) for x in v) == r.coords


def test_folded_weyl_orders(f1_4, cubic):
    assert len(folded_weyl_group("G2", f1_4)) == 12
    assert len(folded_weyl_group("B3", f1_4)) == 2**3 * factorial(3)
    assert len(folded_weyl_group("C2", f1_4)) == 8
    assert len(folded_weyl_group("F4", cubic)) == 1152
    lat5 = make_blowup_lattice(F1, 5)
    assert len(folded_weyl_group("B4", lat5)) == 2**4 * factorial(4)
    lat6 = make_blowup_lattice(F1, 6)
    assert len(folded_weyl_group("C3", lat6)) == 2**3 * factorial(3)


def test_folded_root_counts(cubic):
    for n in (2, 3, 4):
        lat = make_blowup_lattice(F1, n + 1)
        assert len(folded_root_system(f"B{n}", lat)) == 2 * n * n
        lat_c = make_blowup_lattice(F1, 2 * n)
        assert len(folded_root_system(f"C{n}", lat_c)) == 2 * n * n
    lat4 = make_blowup_lattice(F1, 4)
    assert len(folded_root_system("G2", lat4)) == 12
    assert len(folded_root_system("F4", cubic)) == 48
    assert len(f4_short_roots(cubic)) == 24


def test_folded_roots_are_rho_fixed(f1_4, cubic):
    cases = [("B3", outer_automorphism("D", f1_4), f1_4),
             ("C2", outer_automorphism("A", f1_4), f1_4),
             ("G2", outer_automorphism("D4-triality", f1_4), f1_4),
             ("F4", outer_automorphism("E6", cubic), cubic)]
    for case, rho, lat in cases:
        for root in folded_root_system(case, lat):
            assert _apply(rho, root) == root


def test_fixed_sublattice_f4_is_d4(cubic):
    rho = outer_automorphism("E6", cubic)
    basis = fixed_sublattice(rho)
    assert len(basis) == 4
    h, l = cubic.h, cubic.l
    listed = [h - l(1) - l(2) - l(3), l(1) - l(6), l(2) - l(5), l(3) - l(4)]
    # same sublattice: every listed class is an integral combination and back
    for cls in listed:
        decompose_in_basis(cls, basis)
    for cls in basis:
        decompose_in_basis(cls, listed)
    assert identify_cartan_type(cartan_matrix_of(listed, cubic)) == "D4"


def test_fixed_sublattice_triality_rank2(f1_4):
    rho = outer_automorphism("D4-triality", f1_4)
    assert len(fixed_sublattice(rho)) == 2


def test_fixed_sublattice_identity_is_whole(f1_4):
    rho = outer_automorphism("D", f1_4)
    ident = type(rho)(rho.case, rho.lattice, rho.simple_system,
                      tuple(range(len(rho.simple_system))), 1)
    assert len(fixed_sublattice(ident)) == len(rho.simple_system)


def test_presentations_agree(f1_4, cubic):
    lat3 = make_blowup_lattice(F1, 3)
    for case, lat in [("B2", lat3), ("B3", f1_4), ("C2", f1_4), ("G2", f1_4), ("F4", cubic)]:
        side_a, side_b, _ = restricted_reflection_matrices(case, lat)
        assert side_a == side_b, case


def test_second_reduction_order_identities(f1_4, cubic):
    # |W(G)| = |W(G'')| * |Out(G'')| for the four folded families
    lat3 = make_blowup_lattice(F1, 3)
    lat5 = make_blowup_lattice(F1, 5)
    # C_n: G'' = n copies of A1, Out = S_n
    for n, lat in ((2, f1_4), (3, make_blowup_lattice(F1, 6))):
        assert len(folded_weyl_group(f"C{n}", lat)) == 2**n * factorial(n)
    # G2: G'' = A2, Out = Z2
    l = f1_4.l
    a2 = [3 * (l(2) - l(3)), 3 * (l(3) - (f1_4.f - l(4)))]
    a2_scaled = [l(2) - l(3), l(3) - f1_4.f + l(4)]
    wa2 = weyl_generate([r for r in simple_reflections(
        type(standard_simple_system("D", f1_4))(tuple(a2_scaled), "A2"), f1_4)])
    assert len(folded_weyl_group("G2", f1_4)) == len(wa2) * 2 == 12
    # B_n: G'' = D_n, Out = Z2
    for n, lat, lat_dn in ((2, lat3, make_blowup_lattice(F1, 2)),
                           (3, f1_4, lat3), (4, lat5, f1_4)):
        wdn = weyl_generate(simple_reflections(standard_simple_system("D", lat_dn), lat_dn))
        assert len(folded_weyl_group(f"B{n}", lat)) == len(wdn) * 2
    # F4: G'' = D4, Out = S3
    wd4 = weyl_generate(simple_reflections(standard_simple_system("D", f1_4), f1_4))
    assert len(folded_weyl_group("F4", cubic)) == len(wd4) * 6 == 1152


def test_non_orthogonal_orbit_rejected(f1_4):
    rho = outer_automorphism("D", f1_4)
    bad = type(rho)(rho.case, rho.lattice, rho.simple_system, (2, 1, 0, 3), 2)
    with pytest.raises(ValueError):
        folded_weyl_generators(rho.simple_system, bad)


def test_groups_are_built_once_and_read_only():
    lat = make_blowup_lattice(F1, 4)
    w = folded_weyl_group("B3", lat)
    # an equal lattice and a positional or keyword cap all hit the same entry
    assert folded_weyl_group("B3", make_blowup_lattice(F1, 4), 10**6) is w
    assert folded_weyl_group("B3", lat, cap=10**6) is w
    big = ambient_weyl_group("B3", lat)
    assert ambient_weyl_group("B3", lat, cap=10**6) is big
    assert (len(w), len(big)) == (48, 192)
    for group in (w, big):
        arrays = [group.mats, group._points, *(g.mat for g in group.gens),
                  *(a for level in group._levels for pair in level.values() for a in pair)]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 7


def test_automorphisms_and_fixed_sublattices_are_built_once_and_not_mutated(f1_4, cubic):
    from picfold.abelian import make_sigma_model
    from picfold.moduli import chi_injectivity_check

    rho = outer_automorphism("D", f1_4)
    basis = fixed_sublattice(rho)
    before = (rho.permutation, rho.simple_system.roots, basis)
    big = ambient_weyl_group("B3", f1_4)
    mats = big.mats.copy()
    assert chi_injectivity_check("B3", make_sigma_model(2, 2)).passed  # reads all three
    # an equal lattice hits the same entries, which the check left as they were
    assert outer_automorphism("D", make_blowup_lattice(F1, 4)) is rho
    assert fixed_sublattice(outer_automorphism("D", f1_4)) is basis
    assert (rho.permutation, rho.simple_system.roots, basis) == before
    assert rho.permutation == (1, 0, 2, 3)
    assert np.array_equal(big.mats, mats) and not big.mats.flags.writeable
    assert outer_automorphism("E6", cubic) is outer_automorphism("E6", cubic)
    with pytest.raises(ValueError, match="unknown folding case"):
        outer_automorphism("E7", f1_4)
