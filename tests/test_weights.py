"""Tests for partitions, weights, dominance, and weight decomposition."""

import random

import pytest

from crystalline import weights
from crystalline.weights import (
    DominantShape,
    InvalidShapeError,
    Weight,
    conjugate,
    decompose_weight,
    dominant_weight,
    fuse_zero_dominant,
    is_dominant,
    is_partition,
    level,
    level_shapes,
    make_partition,
    orbit_representative,
    pairing,
    partitions_in_box,
    partitions_of,
    shape_of_weight,
    truncation_shape,
)

TYPES = ("b", "c", "d")


# ---------------------------------------------------------------------------
# oracles


def same_orbit(w1: Weight, w2: Weight, lie_type: str) -> bool:
    """Orbit test under permutations and sign flips of the coordinates.

    Two eventually-constant weights lie in one orbit iff their tails agree
    and the multisets of absolute coordinate values agree; in type d, when
    no coordinate vanishes, the parity of the number of positive
    coordinates must also agree (flips come in pairs).
    """
    if w1.tail != w2.tail:
        return False
    n = max(w1.support(), w2.support()) + 1
    win1, win2 = w1.window(n), w2.window(n)
    if sorted(map(abs, win1)) != sorted(map(abs, win2)):
        return False
    if lie_type != "d":
        return True
    if w1.tail == 0 or 0 in win1:
        return True
    return sum(1 for v in win1 if v > 0) % 2 == sum(1 for v in win2 if v > 0) % 2


def random_weyl_image(w: Weight, lie_type: str, rng: random.Random) -> Weight:
    """Apply a random permutation plus admissible sign flips to ``w``."""
    n = w.support() + rng.randint(1, 3)
    window = list(w.window(n))
    rng.shuffle(window)
    if lie_type == "d":
        count = 2 * rng.randint(0, n // 2)
        for i in rng.sample(range(n), count):
            window[i] = -window[i]
    else:
        for i in range(n):
            if rng.random() < 0.5:
                window[i] = -window[i]
    return Weight(tuple(window), w.tail)


def random_weight(rng: random.Random) -> Weight:
    tail = -rng.randint(0, 5)
    k = rng.randint(0, 6)
    prefix = tuple(rng.randint(-8, 8) for _ in range(k))
    return Weight(prefix, tail)


# ---------------------------------------------------------------------------
# partitions


def test_partition_validation():
    assert is_partition(())
    assert is_partition((3, 3, 1))
    assert not is_partition((1, 2))
    assert not is_partition((2, 0, 1))
    assert not is_partition((2, -1))
    assert make_partition((3, 2, 0, 0)) == (3, 2)
    with pytest.raises(InvalidShapeError):
        make_partition((1, 3))
    # non-integer parts are rejected, not truncated or parsed
    for parts in [(1.5,), (2.0,), ("2",), (3, 2.5), (1, None)]:
        with pytest.raises(TypeError):
            make_partition(parts)
    with pytest.raises(TypeError):
        DominantShape("c", (1.5,), 1)


def test_conjugate_involution():
    assert conjugate(()) == ()
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    for lam in partitions_in_box(5, 5):
        assert conjugate(conjugate(lam)) == lam
        assert sum(conjugate(lam)) == sum(lam)


def test_conjugate_is_the_column_lengths_and_validates():
    for size in range(13):
        for lam in partitions_of(size):
            cols = tuple(sum(1 for p in lam if p >= j) for j in range(1, size + 1))
            assert conjugate(lam) == weights._transpose(lam) == make_partition(cols)
    assert conjugate((2, 1, 0, 0)) == (2, 1)
    with pytest.raises(InvalidShapeError):
        conjugate((1, 2))


def test_partition_counts():
    assert len(list(partitions_of(5))) == 7
    assert len(list(partitions_of(10))) == 42
    assert list(partitions_of(3)) == [(3,), (2, 1), (1, 1, 1)]
    assert len(list(partitions_in_box(2, 2))) == 6


# ---------------------------------------------------------------------------
# weights


def test_weight_normalization_and_coeffs():
    w = Weight((2, -4, -4), -4)
    assert w.prefix == (2,)
    assert w.coeff(1) == 2
    assert w.coeff(2) == -4
    assert w.coeff(100) == -4
    assert w.window(4) == (2, -4, -4, -4)
    assert Weight((5, -4, 3), -4).prefix == (5, -4, 3)
    with pytest.raises(IndexError):
        w.coeff(0)


def test_weight_arithmetic():
    a = Weight((1, 2), 0)
    b = Weight((3,), -1)
    assert a + b == Weight((4, 1), -1)
    assert a - a == Weight()
    assert -b == Weight((-3,), 1)
    assert (a + b) - b == a


def test_weight_json_roundtrip():
    w = Weight((5, -4, 3), -4)
    data = w.to_json()
    assert data == {"tail": -4, "exceptions": {"1": 5, "3": 3}}
    assert all(isinstance(k, str) for k in data["exceptions"])
    assert Weight.from_json(data) == w
    assert Weight.from_json('{"tail": 0, "exceptions": {"2": -1}}') == Weight((0, -1), 0)


def test_weight_rejects_non_integers():
    # coordinates and tails are rejected, not truncated or parsed
    for prefix, tail in [((1.5, 2.9), 0), ((2.0,), 0), (("3",), 0), ((1,), 0.5)]:
        with pytest.raises(TypeError):
            Weight(prefix, tail)
    with pytest.raises(TypeError):
        Weight.from_exceptions(0, {"1": 1.5})


def test_pairing_rules():
    w = Weight((1, -1), -2)
    assert pairing(w, 1, "c") == 2
    assert pairing(w, 2, "c") == 1
    assert pairing(w, 0, "c") == -1
    assert pairing(w, 0, "b") == -2
    assert pairing(w, 0, "d") == 0
    with pytest.raises(IndexError):
        pairing(w, -1, "c")


def test_level_values():
    w = Weight((), -3)
    assert level(w, "c") == 3
    assert level(w, "b") == 6
    assert level(w, "d") == 6
    assert level(Weight((2, -2), 0), "c") == 0


def test_dominance_examples():
    assert is_dominant(Weight((), -1), "c")
    assert is_dominant(Weight((0, -1), -1), "c")
    assert not is_dominant(Weight((1,), -1), "c")
    assert not is_dominant(Weight((1,), -1), "b")
    # type d admits one positive first coordinate balanced by the second
    assert is_dominant(Weight((1, -1), -1), "d")
    assert is_dominant(Weight((4,), -4), "d")
    assert not is_dominant(Weight((2, -1), -1), "d")
    assert not is_dominant(Weight((-2, -1), -3), "c")


# ---------------------------------------------------------------------------
# dominant shapes


def test_shape_validation():
    DominantShape("c", (3, 3, 2, 1), 4)
    DominantShape("b", (2, 1), 2)
    with pytest.raises(InvalidShapeError):
        DominantShape("c", (1, 1, 1), 2)
    with pytest.raises(InvalidShapeError):
        DominantShape("b", (2, 2, 1), 2)
    # type d allows tall shapes while lam'_1 + lam'_2 stays within 2*ell
    DominantShape("d", (1, 1, 1), 2)
    DominantShape("d", (1,) * 8, 4)
    DominantShape("d", (2, 2, 1, 1), 3)
    with pytest.raises(InvalidShapeError):
        DominantShape("d", (2, 2, 2, 1), 2)
    with pytest.raises(InvalidShapeError):
        DominantShape("d", (1,), -1)
    with pytest.raises(InvalidShapeError):
        DominantShape("e", (1,), 1)


def test_shape_json_roundtrip():
    s = DominantShape("d", (2, 1, 1), 2)
    assert s.to_json() == {"type": "D", "lam": [2, 1, 1], "ell": 2}
    assert DominantShape.from_json(s.to_json()) == s
    assert str(s) == "2,1,1@2"
    assert str(DominantShape("c", (), 1)) == "0@1"


def test_dominant_weight_values():
    # columns of the partition, shifted down by the column count
    s = DominantShape("c", (3, 3, 2, 1), 4)
    assert dominant_weight(s) == Weight((0, -1, -2), -4)
    assert dominant_weight(DominantShape("c", (), 2)) == Weight((), -2)
    assert dominant_weight(DominantShape("d", (1, 1), 1)) == Weight((1, -1), -1)
    assert dominant_weight(DominantShape("d", (1,) * 8, 4)) == Weight((4,), -4)


def test_shape_weight_roundtrip_exhaustive():
    for lie_type in TYPES:
        for ell in range(0, 4):
            for lam in partitions_in_box(ell, 5):
                s = DominantShape(lie_type, lam, ell)
                w = dominant_weight(s)
                assert is_dominant(w, lie_type), s
                assert level(w, lie_type) == (ell if lie_type == "c" else 2 * ell)
                assert shape_of_weight(w, lie_type) == s
    # tall type-d shapes
    for ell in range(1, 4):
        for cols in partitions_in_box(2, 2 * ell):
            if sum(cols) == 0 or (cols[0] if cols else 0) <= ell:
                continue
            if sum(cols) > 2 * ell:
                continue
            lam = conjugate(cols)
            s = DominantShape("d", lam, ell)
            w = dominant_weight(s)
            assert is_dominant(w, "d"), s
            assert shape_of_weight(w, "d") == s


def test_shape_of_weight_rejects_non_dominant():
    with pytest.raises(InvalidShapeError):
        shape_of_weight(Weight((1,), -1), "c")
    with pytest.raises(InvalidShapeError):
        shape_of_weight(Weight((1,), 1), "c")


# ---------------------------------------------------------------------------
# orbits and decomposition


def test_orbit_representative_basics():
    assert orbit_representative(Weight((0, -1, 0, 3), 0)) == (3, 1)
    assert orbit_representative(Weight((), 0)) == ()
    with pytest.raises(InvalidShapeError):
        orbit_representative(Weight((), -1))


def test_orbit_representative_invariance():
    rng = random.Random(20260815)
    for lie_type in TYPES:
        for _ in range(60):
            k = rng.randint(0, 6)
            w = Weight(tuple(rng.randint(-5, 5) for _ in range(k)), 0)
            image = random_weyl_image(w, lie_type, rng)
            assert orbit_representative(image) == orbit_representative(w)
            assert same_orbit(w, image, lie_type)


def test_decompose_worked_example_symplectic():
    # frozen: mixed-sign level -4 weight in the symplectic family
    w = Weight((-2, -4, 1, -7, -5, 4, 0), -4)
    nu, nu0, nuplus = decompose_weight(w, "c")
    assert nu == Weight((0, -1, -2, -5, -7), -4)
    assert nu0 == Weight((0, 0, 0, -1, -3), 0)
    assert nuplus == Weight((0, -1, -2), -4)
    assert shape_of_weight(nuplus, "c") == DominantShape("c", (3, 3, 2, 1), 4)
    assert orbit_representative(nu0) == (3, 1)


def test_decompose_worked_example_even_orthogonal():
    # frozen: odd positive-coordinate count with no vanishing coordinate
    w = Weight((5,), -4)
    nu, nu0, nuplus = decompose_weight(w, "d")
    assert nu == Weight((4, -5), -4)
    assert nuplus == Weight((4,), -4)
    assert nu0 == Weight((0, -1), 0)
    assert shape_of_weight(nuplus, "d") == DominantShape("d", (1,) * 8, 4)


def test_decompose_level_zero_convention():
    w = Weight((2, -1), 0)
    assert decompose_weight(w, "c") == (w, w, Weight())


def test_decompose_reports_broken_invariants(monkeypatch):
    # both checks raise explicitly, so they also hold under python -O
    w = Weight((-2, -4, 1, -7, -5, 4, 0), -4)
    with monkeypatch.context() as patch:
        patch.setattr(weights, "is_dominant", lambda *args: False)
        with pytest.raises(RuntimeError, match="is not dominant"):
            decompose_weight(w, "c")
    with monkeypatch.context() as patch:
        patch.setattr(Weight, "__add__", lambda self, other: Weight((1,), 0))
        with pytest.raises(RuntimeError, match="does not give"):
            decompose_weight(w, "c")
    assert decompose_weight(w, "c")[2] == Weight((0, -1, -2), -4)


def test_decompose_properties_random():
    rng = random.Random(515)
    for lie_type in TYPES:
        for _ in range(200):
            w = random_weight(rng)
            nu, nu0, nuplus = decompose_weight(w, lie_type)
            assert nuplus + nu0 == nu
            assert nu0.tail == 0
            assert nuplus.tail == w.tail
            assert is_dominant(nuplus, lie_type)
            assert same_orbit(w, nu, lie_type), (lie_type, w, nu)
            if w.tail < 0:
                shape_of_weight(nuplus, lie_type)  # must not raise
                # canonical form is a fixed point
                assert decompose_weight(nu, lie_type) == (nu, nu0, nuplus)


def test_decompose_invariant_on_orbit():
    # only negative-tail weights are canonicalized; level zero passes through
    rng = random.Random(982)
    for lie_type in TYPES:
        seen = 0
        while seen < 120:
            w = random_weight(rng)
            if w.tail == 0:
                continue
            seen += 1
            image = random_weyl_image(w, lie_type, rng)
            assert decompose_weight(image, lie_type) == decompose_weight(w, lie_type)


def test_decompose_type_d_parity_split():
    # same absolute values, opposite parity: different canonical forms
    odd = Weight((5,), -4)
    even = Weight((4, 5), -4)
    assert not same_orbit(odd, even, "d")
    nu_e, nu0_e, nuplus_e = decompose_weight(even, "d")
    assert nuplus_e == Weight((), -4)
    assert nu_e == Weight((-5,), -4)
    assert nu0_e == Weight((-1,), 0)


def test_fuse_roundtrip():
    rng = random.Random(77)
    for lie_type in TYPES:
        for _ in range(150):
            w = random_weight(rng)
            if w.tail == 0:
                continue
            nu, nu0, nuplus = decompose_weight(w, lie_type)
            lam = orbit_representative(nu0)
            assert fuse_zero_dominant(lam, nuplus, lie_type) == nu


def test_fuse_explicit():
    mu = Weight((0, -1, -2), -4)
    assert fuse_zero_dominant((3, 1), mu, "c") == Weight((0, -1, -2, -5, -7), -4)
    assert fuse_zero_dominant((), mu, "c") == mu
    with pytest.raises(InvalidShapeError):
        fuse_zero_dominant((1,), Weight((1,), -1), "c")


# ---------------------------------------------------------------------------
# rank-n truncation shapes


def test_truncation_shape_single_row():
    # a single row (a) at column count 1 truncates to one column of n - a
    for lie_type in TYPES:
        for n in range(2, 7):
            for a in range(0, n + 1):
                shape = DominantShape(lie_type, (a,) if a else (), 1)
                assert truncation_shape(shape, n) == (1,) * (n - a)
    assert truncation_shape(DominantShape("c", (1, 1), 3), 4) == (3, 3, 3, 1)


def test_truncation_shape_frozen_values():
    assert truncation_shape(DominantShape("c", (), 2), 3) == (2, 2, 2)
    assert truncation_shape(DominantShape("c", (3, 3, 2, 1), 4), 4) == (4, 2, 1)
    # tall type-d shapes end with a negative entry
    assert truncation_shape(DominantShape("d", (1, 1), 1), 4) == (1, 1, 1, -1)
    assert truncation_shape(DominantShape("d", (1, 1, 1), 2), 4) == (2, 2, 2, -1)
    assert truncation_shape(DominantShape("d", (3, 2, 1, 1, 1), 4), 4) == (4, 3, 2, -1)
    assert truncation_shape(DominantShape("d", (1,) * 4, 2), 3) == (2, 2, -2)


def test_truncation_shape_partition_cases():
    for lie_type in TYPES:
        for ell in range(0, 4):
            for lam in partitions_in_box(ell, 4):
                shape = DominantShape(lie_type, lam, ell)
                for n in range(max(lam[0] if lam else 0, 1), 6):
                    rho = truncation_shape(shape, n)
                    assert is_partition(rho)
                    assert len(rho) <= n
                    assert all(p <= ell for p in rho)
                    assert sum(rho) == n * ell - sum(lam)


def test_truncation_shape_rank_too_small():
    with pytest.raises(InvalidShapeError):
        truncation_shape(DominantShape("c", (5,), 1), 4)


def test_level_shapes_takes_any_iterable_of_sizes():
    # a list of sizes is unhashable, so the cached core sees it as a tuple
    shapes = level_shapes("c", 1, [0, 1, 2])
    assert shapes == level_shapes("c", 1, (0, 1, 2)) == level_shapes("c", 1, range(3))
    assert [shape.lam for shape in shapes] == [(), (1,), (2,)]
    assert level_shapes("d", 2, [3], 2) == level_shapes("d", 2, iter([3]), 2)
