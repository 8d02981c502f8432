import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from picfold import liealg
from picfold._linalg import rational_solve
from picfold.cases import case_spec
from picfold.folding import ambient_root_system, folded_root_system, folded_simple_system
from picfold.lattice import F1, P2, make_blowup_lattice
from picfold.liealg import (
    JacobiReport,
    StructureConstantError,
    root_codes,
    root_string,
    structure_constants,
    verify_jacobi,
)
from picfold.rootsys import standard_simple_system


def _simply_laced(case, lat):
    return lat, ambient_root_system(case, lat), standard_simple_system(case, lat)


def test_root_string_b2():
    lat = case_spec("B2").lattice
    rs = folded_root_system("B2")
    b1 = lat.f - 2 * lat.l(2)
    b2 = 2 * (lat.l(2) - lat.l(3))
    assert root_string(b1, b2, set(rs)) == (0, 2)
    # D4 is simply laced: strings have length at most 2
    lat4 = make_blowup_lattice(F1, 4)
    d4 = ambient_root_system("D", lat4)
    a = lat4.l(1) - lat4.l(2)
    b = lat4.l(2) - lat4.l(3)
    d4_roots = set(d4)
    assert lat4.pair(a, b) == 1 and root_string(a, b, d4_roots) == (0, 1)
    # no string at all when neither sum nor difference is a root
    c = lat4.l(3) - lat4.l(4)
    assert root_string(a, c, d4_roots) == (0, 0)


def as_dicts(t):
    """The table's arrays as dicts keyed by roots: n_map (nonzero N), cartan and coroot_coords."""
    n_map = {(t.roots[a], t.roots[b]): int(t.N[a, b]) for a, b in zip(*np.nonzero(t.N))}
    cartan = {(rt, i): int(t.cartan[a, i]) for a, rt in enumerate(t.roots) for i in range(t.rank)}
    coroot_coords = {rt: tuple(t.coroots[a].tolist()) for a, rt in enumerate(t.roots)}
    return SimpleNamespace(rank=t.rank, roots=t.roots, n_map=n_map, cartan=cartan,
                           coroot_coords=coroot_coords)


def from_dicts(t, n_map, cartan, coroot_coords):
    """The table t with its arrays rebuilt from dicts of the form ``as_dicts`` gives."""
    index = {rt: a for a, rt in enumerate(t.roots)}
    N = np.zeros_like(t.N)
    for (a, b), v in n_map.items():
        N[index[a], index[b]] = v
    rows = [[cartan[(rt, i)] for i in range(t.rank)] for rt in t.roots]
    return t._replace(N=N, cartan=np.array(rows, dtype=np.int64).reshape(t.cartan.shape),
                      coroots=np.array([coroot_coords[rt] for rt in t.roots],
                                       dtype=np.int64).reshape(t.coroots.shape))


@pytest.fixture(scope="module")
def tables():
    out = {}
    lat4 = make_blowup_lattice(F1, 4)
    out["D4"] = structure_constants(*_simply_laced("D", lat4))
    cubic = make_blowup_lattice(P2, 6)
    out["E6"] = structure_constants(*_simply_laced("E6", cubic))
    for case in ("B2", "B3", "B4", "C2", "C3", "G2", "F4"):
        out[case] = structure_constants(case_spec(case).lattice, folded_root_system(case),
                                        folded_simple_system(case))
    return out


def fraction_structure_constants(lat, roots, simple):
    """Oracle: the table computed in Fractions, with a rational solve per coroot."""
    roots = set(roots)
    srl = list(simple)

    def integral_solve(a, b, message):
        sol = rational_solve(a, b)
        if any(x.denominator != 1 for x in sol):
            raise StructureConstantError(message)
        return tuple(int(x) for x in sol)

    bmat = [[b.coords[i] for b in srl] for i in range(lat.rank)]
    coords = {}
    for rt in roots:
        c = integral_solve(bmat, list(rt.coords), f"{rt} is not integral in the simple roots")
        if not (all(v >= 0 for v in c) or all(v <= 0 for v in c)):
            raise StructureConstantError(
                "root is neither positive nor negative for the given simple system")
        coords[rt] = c
    positive = sorted(
        (rt for rt in roots if all(v >= 0 for v in coords[rt])),
        key=lambda rt: (sum(coords[rt]), coords[rt]),
    )
    index = {rt: i for i, rt in enumerate(positive)}
    norm = {rt: lat.pair(rt, rt) for rt in roots}
    pos_n, extraspecial = {}, set()

    def n_any(a, b):
        s = a + b
        if s not in roots:
            return 0
        a_pos, b_pos = a in index, b in index
        if a_pos and b_pos:
            return pos_n[(a, b)] if index[a] < index[b] else -pos_n[(b, a)]
        if not a_pos and not b_pos:
            return -n_any(-a, -b)
        if a_pos and not b_pos:
            if s in index:
                val = Fraction(norm[s], norm[a]) * (-n_any(-b, s))
            else:
                val = Fraction(norm[s], norm[b]) * n_any(-s, a)
            if val.denominator != 1:
                raise StructureConstantError("a structure constant is not an integer")
            return int(val)
        return -n_any(b, a)

    for gamma in positive:
        if sum(coords[gamma]) == 1:
            continue
        decomps = [(alpha, gamma - alpha) for alpha in positive[:index[gamma]]
                   if gamma - alpha in index]
        a0, b0 = decomps[0]
        pos_n[(a0, b0)] = root_string(a0, b0, roots)[0] + 1
        extraspecial.add((a0, b0))
        for alpha, beta in decomps[1:]:
            if index[alpha] >= index[beta]:
                continue
            t2 = t3 = Fraction(0)
            if b0 - alpha in roots:
                t2 = Fraction(n_any(b0, -alpha) * n_any(a0, -beta), norm[b0 - alpha])
            if a0 - alpha in roots:
                t3 = Fraction(n_any(-alpha, a0) * n_any(b0, -beta), norm[a0 - alpha])
            val = Fraction(norm[gamma]) * (t2 + t3) / pos_n[(a0, b0)]
            if val.denominator != 1:
                raise StructureConstantError("sign propagation produced a non-integer")
            if abs(int(val)) != root_string(alpha, beta, roots)[0] + 1:
                raise StructureConstantError(f"sign-propagation conflict at {alpha}, {beta}")
            pos_n[(alpha, beta)] = int(val)

    n_map = {(a, b): n_any(a, b) for a in roots for b in roots if a + b in roots}
    cartan = {}
    for rt in roots:
        for i, si in enumerate(srl):
            val = Fraction(2 * lat.pair(rt, si), lat.pair(si, si))
            if val.denominator != 1:
                raise StructureConstantError(f"non-integral Cartan pairing of {rt}")
            cartan[(rt, i)] = int(val)
    cols = [[Fraction(2 * si.coords[t], lat.pair(si, si)) for si in srl]
            for t in range(lat.rank)]
    coroot_coords = {
        rt: integral_solve(cols, [Fraction(2 * c, norm[rt]) for c in rt.coords],
                           f"coroot of {rt} is not integral")
        for rt in roots
    }
    return SimpleNamespace(
        roots=tuple(sorted(roots)), positive=tuple(positive), n_map=n_map, cartan=cartan,
        coroot_coords=coroot_coords, extraspecial=frozenset(extraspecial),
    )


def test_integer_tables_match_the_fraction_oracle(tables):
    assert set(tables) == {"D4", "E6", "B2", "B3", "B4", "C2", "C3", "G2", "F4"}
    for case, t in tables.items():
        want = fraction_structure_constants(t.lattice, t.roots, t.simple)
        got = as_dicts(t)
        assert t.roots == want.roots, case
        assert t.positive == want.positive, case
        assert got.n_map == want.n_map, case
        assert got.cartan == want.cartan, case
        assert got.coroot_coords == want.coroot_coords, case
        assert t.extraspecial == want.extraspecial, case
        assert [t.codes.dtype, t.N.dtype, t.cartan.dtype, t.coroots.dtype] == [np.int64] * 4, case
        assert np.array_equal(t.codes, root_codes(t.roots)), case


def test_a_root_set_without_integral_constants_is_refused():
    # a1 and a2 span a B2-shaped set, but (a1, a1) = -2, (a2, a2) = -8 and
    # (a1 + a2, a1 + a2) = -6, so no Chevalley table exists
    lat = make_blowup_lattice(F1, 3)
    a1, a2 = lat.l(1) - lat.l(2), 2 * (lat.l(2) - lat.l(3))
    roots = (a1, -a1, a2, -a2, a1 + a2, -a1 - a2)
    for build in (structure_constants, fraction_structure_constants):
        with pytest.raises(StructureConstantError, match="not an integer"):
            build(lat, roots, (a1, a2))


def test_single_pair_table():
    lat = make_blowup_lattice(F1, 2)
    _, rs, simple = _simply_laced("A", lat)
    assert len(rs) == 2
    t = structure_constants(lat, rs, simple)
    assert not t.N.any()
    a = simple[0]
    assert as_dicts(t).coroot_coords[a] == (1,)
    assert verify_jacobi(t).ok


def test_b2_constants(tables):
    t = tables["B2"]
    n_map = as_dicts(t).n_map
    b1, b2 = t.simple
    # every pair with a root sum gets a nonzero constant
    brute = sum(
        1 for a in t.roots for b in t.roots if a + b in set(t.roots)
    )
    assert len(n_map) == brute
    assert all(v != 0 for v in n_map.values())
    assert abs(n_map[(b1, b2)]) == 1
    assert abs(n_map[(b1, b1 + b2)]) == 2


def test_jacobi_all_cases(tables):
    for case, t in tables.items():
        rep = verify_jacobi(t)
        assert rep.ok, (case, rep.first_failure)


def test_n_values_match_string_lengths(tables):
    seen_three = set()
    for case, t in tables.items():
        roots = set(t.roots)
        code = dict(zip(t.roots, t.codes.tolist()))
        codes = set(code.values())
        n_map = as_dicts(t).n_map
        for (a, b), v in n_map.items():
            string = root_string(a, b, roots)
            assert root_string(code[a], code[b], codes) == string
            r = string[0]
            assert abs(v) == r + 1
            assert abs(v) in (1, 2, 3)
            if abs(v) == 3:
                seen_three.add(case)
        if case in ("D4", "E6"):
            assert all(abs(v) == 1 for v in n_map.values())
    assert seen_three == {"G2"}


def test_antisymmetry_and_negation(tables):
    n_map = as_dicts(tables["F4"]).n_map
    for (a, b), v in n_map.items():
        assert n_map[(b, a)] == -v
        assert n_map[(-a, -b)] == -v


def test_grading_compatibility(tables):
    for t in tables.values():
        roots = set(t.roots)
        for (a, b), v in as_dicts(t).n_map.items():
            assert v != 0
            assert a + b in roots  # the bracket lands in the summand of the sum class


def test_h_alpha_integral(tables):
    for t in tables.values():
        d = as_dicts(t)
        for rt in t.roots:
            coords = d.coroot_coords[rt]
            # h_alpha acting on x_alpha gives 2
            acc = sum(c * d.cartan[(rt, i)] for i, c in enumerate(coords))
            assert acc == 2


def _bracket_basis(table, e1, e2):
    """[e1, e2] for two basis labels of an ``as_dicts`` table, as labels to coefficients."""
    k1, v1 = e1
    k2, v2 = e2
    if k1 == "h" and k2 == "h":
        return {}
    if k1 == "h" and k2 == "x":
        return {("x", v2): table.cartan[(v2, v1)]}
    if k1 == "x" and k2 == "h":
        return {("x", v1): -table.cartan[(v1, v2)]}
    s = v1 + v2
    if all(c == 0 for c in s.coords):
        return {("h", i): c for i, c in enumerate(table.coroot_coords[v1]) if c}
    n = table.n_map.get((v1, v2), 0)
    return {("x", s): n} if n else {}


def _bracket(table, d1: dict, d2: dict) -> dict:
    out: dict = {}
    for e1, c1 in d1.items():
        for e2, c2 in d2.items():
            for k, v in _bracket_basis(table, e1, e2).items():
                out[k] = out.get(k, 0) + c1 * c2 * v
    return {k: v for k, v in out.items() if v}


def brute_force_jacobi(table) -> JacobiReport:
    """Oracle: evaluate the Jacobi sum of every basis triple, no grading."""
    table = as_dicts(table)
    basis = [("h", i) for i in range(table.rank)]
    basis += [("x", rt) for rt in table.roots]
    singles = {b: {b: 1} for b in basis}
    checked = 0
    nb = len(basis)
    for i in range(nb):
        for j in range(i, nb):
            bij = _bracket(table, singles[basis[i]], singles[basis[j]])
            for k in range(j, nb):
                checked += 1
                acc = _bracket(table, bij, singles[basis[k]])
                for key, val in _bracket(
                    table, _bracket(table, singles[basis[j]], singles[basis[k]]),
                    singles[basis[i]],
                ).items():
                    acc[key] = acc.get(key, 0) + val
                for key, val in _bracket(
                    table, _bracket(table, singles[basis[k]], singles[basis[i]]),
                    singles[basis[j]],
                ).items():
                    acc[key] = acc.get(key, 0) + val
                if any(v != 0 for v in acc.values()):
                    return JacobiReport(False, checked, (basis[i], basis[j], basis[k]))
    return JacobiReport(True, checked, None)


def _with_n_map(t, n_map):
    d = as_dicts(t)
    return from_dicts(t, n_map, d.cartan, d.coroot_coords)


def _sign_flipped(t):
    """The table with one non-extraspecial constant (and its images) negated."""
    index = {rt: i for i, rt in enumerate(t.positive)}
    n_map = as_dicts(t).n_map
    flip = None
    for (a, b) in n_map:
        if a in index and b in index and index[a] < index[b] and (a, b) not in t.extraspecial:
            flip = (a, b)
            break
    assert flip is not None
    a, b = flip
    mutated = dict(n_map)
    for key in [(a, b), (b, a), (-a, -b), (-b, -a)]:
        mutated[key] = -mutated[key]
    return _with_n_map(t, mutated)


def test_graded_jacobi_matches_brute_force(tables):
    for case, t in tables.items():
        rep = verify_jacobi(t)
        assert rep == brute_force_jacobi(t), case
        nb = t.rank + len(t.roots)
        assert rep.triples_checked == nb * (nb + 1) * (nb + 2) // 6
    assert verify_jacobi(tables["E6"]).triples_checked == 82160
    assert verify_jacobi(tables["F4"]).triples_checked == 24804


def test_jacobi_forms_exactly_the_graded_triples(tables, monkeypatch):
    """Each triple i <= j <= k of root or zero weight is evaluated once, and no other."""
    ranges, formed = liealg._ranges, []

    def recorded(lo, count):
        formed.append(int(count.sum()))
        return ranges(lo, count)

    monkeypatch.setattr(liealg, "_ranges", recorded)
    for case in ("G2", "F4", "E6"):
        t = tables[case]
        w = np.concatenate((np.zeros(t.rank, dtype=np.int64), t.codes))
        i, j, k = np.array([(i, j, k) for i in range(len(w)) for j in range(i, len(w))
                            for k in range(j, len(w))]).T
        want = np.isin(w[i] + w[j] + w[k], np.append(t.codes, 0)).sum()
        formed.clear()
        assert verify_jacobi(t).ok
        assert sum(formed) == want, case
    assert want == 15416  # E6: of its 82,160 triples


def test_graded_jacobi_matches_brute_force_on_broken_tables(tables):
    for case in ("G2", "F4"):
        broken = _sign_flipped(tables[case])
        rep = verify_jacobi(broken)
        assert not rep.ok
        assert rep == brute_force_jacobi(broken), case


def test_n_map_key_off_the_grading_fails(tables):
    t = tables["B3"]
    roots = set(t.roots)
    a, b = next((a, b) for a in t.roots for b in t.roots
                if a + b not in roots and a + b != t.lattice.zero)
    rep = verify_jacobi(_with_n_map(t, {**as_dicts(t).n_map, (a, b): 1}))
    assert rep == JacobiReport(False, 0, (("x", a), ("x", b)))


def test_sign_flip_breaks_jacobi(tables):
    assert not verify_jacobi(_sign_flipped(tables["G2"])).ok


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_graded_jacobi_matches_brute_force_on_mutated_tables(tables, monkeypatch, data):
    """One to three entries of n_map (alone or with their images), cartan or coroot_coords.

    The block size is drawn too, so that block boundaries fall between many i values.
    """
    monkeypatch.setattr(liealg, "_CHUNK", data.draw(st.sampled_from([1, 50, 1000, 1 << 13])))
    t = tables[data.draw(st.sampled_from(["B2", "B3", "G2", "F4"]))]
    d = as_dicts(t)
    n_map, cartan, coroots = d.n_map, d.cartan, d.coroot_coords
    delta = st.sampled_from([-3, -2, -1, 1, 2, 3])
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["n_map", "n_map_images", "cartan", "coroot"]))
        if kind == "cartan":
            key = data.draw(st.sampled_from(sorted(cartan)))
            cartan[key] += data.draw(delta)
        elif kind == "coroot":
            rt = data.draw(st.sampled_from(t.roots))
            i = data.draw(st.integers(0, t.rank - 1))
            coroots[rt] = tuple(c + data.draw(delta) * (n == i) for n, c in enumerate(coroots[rt]))
        else:
            a, b = data.draw(st.sampled_from(sorted(n_map)))
            v = n_map[(a, b)] + data.draw(delta)
            n_map[(a, b)] = v
            if kind == "n_map_images":
                n_map[(b, a)], n_map[(-a, -b)], n_map[(-b, -a)] = -v, -v, v
    mutated = from_dicts(t, n_map, cartan, coroots)
    assert verify_jacobi(mutated) == brute_force_jacobi(mutated)


def test_root_codes_are_injective_on_sums_of_three_roots(tables):
    for case in ("D4", "B3", "C3", "G2", "F4"):
        t = tables[case]
        rows = np.array([rt.coords for rt in t.roots], dtype=np.int64)
        codes = root_codes(t.roots)
        sums = rows[:, None, None] + rows[None, :, None] + rows[None, None, :]
        sum_codes = codes[:, None, None] + codes[None, :, None] + codes[None, None, :]
        assert (len(np.unique(sums.reshape(-1, rows.shape[1]), axis=0))
                == len(np.unique(sum_codes))), case


def test_a_constant_beyond_int64_sums_is_refused(tables):
    t = tables["B3"]
    n_map = as_dicts(t).n_map
    key = next(iter(n_map))
    with pytest.raises(OverflowError):
        verify_jacobi(_with_n_map(t, {**n_map, key: 2**40}))


def test_codes_beyond_int64_are_refused_before_any_product(tables):
    # on F1 with 25 points l1 - l25 is (0, 0, 1, 0, ..., 0, -1), of code 7^2 - 7^26,
    # and 7^26 > 2^63: the table must refuse it, not wrap it
    lat = make_blowup_lattice(F1, 25)
    a = lat.l(1) - lat.l(25)
    with pytest.raises(OverflowError):
        structure_constants(lat, (a, -a), (a,))
    t = tables["B3"]
    codes = t.codes.copy()
    codes[0] = 2**61  # three of them reach 2^62
    with pytest.raises(OverflowError):
        verify_jacobi(t._replace(codes=codes))
    N = t.N.copy()
    a, b = np.argwhere(N)[0]
    N[a, b] = np.iinfo(np.int64).min  # np.abs wraps it to itself
    with pytest.raises(OverflowError):
        verify_jacobi(t._replace(N=N))


def test_jacobi_memory_is_bounded(tables):
    verify_jacobi(tables["E6"])
    tracemalloc.start()
    try:
        rep = verify_jacobi(tables["E6"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.triples_checked == 82160
    assert peak < 1.5 * 2**20


def test_bundle_decompositions():
    """The Lie(G)-bundle is O^rank plus one line bundle per root of the folded system."""
    for case, rank, nroots in (("B3", 3, 18), ("G2", 2, 12), ("F4", 4, 48)):
        assert case_spec(case).rank == rank
        assert len(folded_root_system(case)) == nroots
