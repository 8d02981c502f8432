import random
from itertools import combinations

import numpy as np
import pytest

from picfold.lattice import (
    F1,
    P2,
    SELF,
    DivisorClass,
    UnboundedSearchError,
    enumerate_classes,
    exceptional_classes,
    gram_matrix,
    make_blowup_lattice,
)


def test_f1_lattice_shape():
    lat = make_blowup_lattice(F1, 4)
    assert lat.rank == 6
    assert lat.basis_labels == ("s", "f", "l1", "l2", "l3", "l4")
    assert lat.K == DivisorClass((-2, -3, 1, 1, 1, 1))
    assert lat.pair(lat.s, lat.s) == -1
    assert lat.pair(lat.s, lat.f) == 1
    assert lat.pair(lat.f, lat.f) == 0
    assert lat.pair(lat.l(1), lat.l(1)) == -1
    assert lat.pair(lat.l(1), lat.l(2)) == 0
    assert lat.pair(lat.s, lat.l(3)) == 0
    assert lat.pair(lat.K, lat.K) == 8 - 4


def test_p2_lattice_shape():
    lat = make_blowup_lattice(P2, 6)
    assert lat.rank == 7
    assert lat.pair(lat.h, lat.h) == 1
    assert lat.pair(lat.h, lat.l(2)) == 0
    assert lat.pair(lat.K, lat.K) == 3


def test_k_squared_one_point():
    assert make_blowup_lattice(F1, 1).pair(
        make_blowup_lattice(F1, 1).K, make_blowup_lattice(F1, 1).K
    ) == 7


def test_unimodular_and_signature():
    import numpy as np

    from picfold._linalg import bareiss_det

    for lat in (make_blowup_lattice(F1, 4), make_blowup_lattice(P2, 6), make_blowup_lattice(F1, 1)):
        g = [list(r) for r in lat.gram]
        assert abs(bareiss_det(g)) == 1
        eig = np.linalg.eigvalsh(np.array(g, dtype=float))
        assert sum(e > 0 for e in eig) == 1
        assert sum(e < 0 for e in eig) == lat.rank - 1


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        make_blowup_lattice(F1, 0)
    with pytest.raises(ValueError):
        make_blowup_lattice("F2", 3)
    lat = make_blowup_lattice(F1, 2)
    with pytest.raises(ValueError):
        lat.pair(DivisorClass((1, 0)), lat.f)


def test_pair_examples():
    lat = make_blowup_lattice(F1, 4)
    assert lat.pair(lat.f, -lat.K) == 2
    d = lat.l(1) - lat.l(2)
    assert lat.pair(d, d) == -2


def test_gram_invariant_under_label_permutation():
    lat = make_blowup_lattice(F1, 4)
    rng = random.Random(7)
    perm = list(range(4))
    rng.shuffle(perm)

    def permute(d):
        head = d.coords[:2]
        tail = d.coords[2:]
        return DivisorClass(head + tuple(tail[perm[i]] for i in range(4)))

    for _ in range(50):
        a = DivisorClass(tuple(rng.randint(-3, 3) for _ in range(6)))
        b = DivisorClass(tuple(rng.randint(-3, 3) for _ in range(6)))
        assert lat.pair(a, b) == lat.pair(permute(a), permute(b))


def test_27_lines():
    lat = make_blowup_lattice(P2, 6)
    lines = exceptional_classes(lat)
    assert len(lines) == 27
    # each line meets 10 others and is disjoint from 16: one Gram matrix, read per row
    gram = gram_matrix(lat, lines)
    assert (np.diag(gram) == -1).all()
    assert ((gram == 1).sum(axis=1) == 10).all() and ((gram == 0).sum(axis=1) == 16).all()
    for line, row in zip(lines, gram.tolist()):
        assert row == [lat.pair(line, other) for other in lines]


def test_d4_roots_by_enumeration():
    lat = make_blowup_lattice(F1, 4)
    roots = enumerate_classes(lat, [(SELF, -2), (lat.K, 0), (lat.f, 0)])
    assert len(roots) == 24


def test_spinor_family_counts():
    lat = make_blowup_lattice(F1, 4)
    sp = enumerate_classes(lat, [(SELF, -1), (lat.K, -1), (lat.f, 1)])
    assert len(sp) == 8
    sm = enumerate_classes(lat, [(SELF, -2), (lat.K, 0), (lat.f, 1)])
    assert len(sm) == 8
    w = enumerate_classes(lat, [(SELF, -1), (lat.K, -1), (lat.f, 0)])
    assert set(w) == {lat.l(i) for i in range(1, 5)} | {lat.f - lat.l(i) for i in range(1, 5)}


def test_enumeration_oracle_brute_force():
    # independent check of the structured search on a small box
    lat = make_blowup_lattice(P2, 6)
    lines = set(exceptional_classes(lat))
    brute = set()
    span = range(-3, 4)
    for a in range(0, 3):
        for cs in _tuples(span, 6):
            d = DivisorClass((a,) + cs)
            if lat.pair(d, d) == -1 and lat.pair(d, lat.K) == -1:
                brute.add(d)
    assert brute == lines


def _tuples(rng, n):
    if n == 0:
        yield ()
        return
    for head in rng:
        for rest in _tuples(rng, n - 1):
            yield (head,) + rest


def test_unbounded_reported():
    lat = make_blowup_lattice(P2, 6)
    with pytest.raises(UnboundedSearchError):
        enumerate_classes(lat, [(SELF, -1)])
    with pytest.raises(UnboundedSearchError):
        enumerate_classes(lat, [(lat.K, -1)])
    # on F1 too: f and s pin D.f and D.s, but without K the sum of the li is free
    f1 = make_blowup_lattice(F1, 4)
    with pytest.raises(UnboundedSearchError, match="needs a pairing against K"):
        enumerate_classes(f1, [(SELF, -2), (f1.f, 0), (f1.s, 0)])


def test_a3_root_count_with_section_constraint():
    lat = make_blowup_lattice(F1, 4)
    roots = enumerate_classes(
        lat, [(SELF, -2), (lat.K, 0), (lat.f, 0), (lat.s, 0)]
    )
    assert len(roots) == 12


def test_gram_matrix_matches_pair_and_refuses_overflow():
    for lat in (make_blowup_lattice(F1, 4), make_blowup_lattice(P2, 6)):
        rng = random.Random(lat.rank)
        classes = [DivisorClass(tuple(rng.randint(-5, 5) for _ in range(lat.rank)))
                   for _ in range(8)]
        g = gram_matrix(lat, classes)
        assert g.dtype == np.int64
        assert g.tolist() == [[lat.pair(a, b) for b in classes] for a in classes]
    lat = make_blowup_lattice(P2, 6)
    with pytest.raises(OverflowError):
        gram_matrix(lat, [lat.h * 2**32])  # h.h = 2^64 would wrap in int64


def test_divisor_class_hash_agrees_with_equality():
    lat = make_blowup_lattice(F1, 4)
    built = [lat.f - lat.l(1) - lat.l(2), 2 * (lat.l(3) - lat.l(4)), -lat.s, lat.K - lat.K]
    literal = [DivisorClass((0, 1, -1, -1, 0, 0)), DivisorClass((0, 0, 0, 0, 2, -2)),
               DivisorClass((-1, 0, 0, 0, 0, 0)), DivisorClass((0,) * 6)]
    table = {c: i for i, c in enumerate(built)}
    for i, (b, c) in enumerate(zip(built, literal)):
        assert b == c and hash(b) == hash(c) == hash(c.coords)
        assert table[c] == i and c in set(built)
    assert DivisorClass((1, 0)) not in {DivisorClass((0, 1))}
