"""Tests for the crystal-class ring and its rewriting-algebra realization."""

import itertools
import json
import os

import pytest

from crystalline.grothendieck import (
    AElement,
    AMonomial,
    GrothElement,
    StructureCache,
    a_h,
    a_hbar,
    a_normalize,
    a_one,
    a_z,
    barred_class,
    column_class,
    delta,
    groth_basis,
    groth_mul,
    groth_one,
    level_determinant,
    make_label,
    mul_posi_posi,
    mul_zero_posi,
    mul_zero_zero,
    psi,
    psi_plus,
    psi_zero,
    row_class,
    shape_class,
    structure_constant,
)
from crystalline import grothendieck
from crystalline.grothendieck import _expand_in_level_basis, _label_size
from crystalline.symfunc import SchurSeries, lr_expand, s_g_series
from crystalline.weights import (
    DominantShape,
    InvalidShapeError,
    StabilizationError,
    level_shapes,
    partitions_of,
)


def generator_letters(lie_type):
    letters = [("z", 1), ("z", 2), ("h", 0), ("h", 1)]
    if lie_type == "d":
        letters.append(("hb", 0))
    return letters


# ---------------------------------------------------------------------------
# correction tables


def test_delta_symplectic_one_row_zero():
    assert delta(1, ("h", 0), "c") == a_h("c", 1)


def test_delta_odd_orthogonal_one_row_zero():
    assert delta(1, ("h", 0), "b") == a_h("b", 1) + a_h("b", 0)


def test_delta_even_orthogonal_multiplicity_two():
    """The width-one row past a height-two column: the plain width-one class
    comes back twice, once directly and once as its barred twin."""
    got = delta(2, ("h", 1), "d")
    expected = (
        a_h("d", 3)
        + a_h("d", 1).scale(2)
        + a_z("d", 1) * (a_h("d", 2) + a_h("d", 0) + a_hbar())
    )
    assert got == expected


def test_delta_symplectic_column_two():
    got = delta(2, ("h", 0), "c")
    assert got == a_h("c", 2) + a_z("c", 1) * a_h("c", 1)


def test_delta_barred_letter():
    got = delta(2, ("hb", 0), "d")
    expected = a_hbar() + a_h("d", 2) + a_z("d", 1) * a_h("d", 1)
    assert got == expected


def test_delta_rejects_bad_inputs():
    with pytest.raises(ValueError):
        delta(0, ("h", 1), "c")
    with pytest.raises(ValueError):
        delta(1, ("hb", 0), "c")
    with pytest.raises(ValueError):
        delta(1, ("z", 1), "c")


# ---------------------------------------------------------------------------
# normal ordering


def test_normalize_basic_crossing():
    got = a_normalize([("h", 0), ("z", 1)], "c")
    assert got == a_z("c", 1) * a_h("c", 0) + a_h("c", 1)


def test_normalize_already_ordered():
    got = a_normalize([("z", 2), ("z", 1), ("h", 3)], "b")
    assert got == AElement("b", {AMonomial(zs=(2, 1), hs=(3,)): 1})


def test_columns_and_rows_commute_among_themselves():
    for lie in ("b", "c", "d"):
        assert a_z(lie, 1) * a_z(lie, 2) == a_z(lie, 2) * a_z(lie, 1)
        assert a_h(lie, 1) * a_h(lie, 2) == a_h(lie, 2) * a_h(lie, 1)


def test_algebra_product_is_associative():
    """Exhaustive over triples of generator letters per type.  Termination of
    the rewriting plus agreement of both bracketings is the confluence check."""
    for lie in ("b", "c", "d"):
        gens = []
        for kind, idx in generator_letters(lie):
            gens.append(a_normalize([(kind, idx)], lie))
        for x in gens:
            for y in gens:
                xy = x * y
                for z in gens:
                    assert (xy) * z == x * (y * z)


def test_monomial_validation():
    with pytest.raises(ValueError):
        AMonomial(zs=(-1,))
    with pytest.raises(ValueError):
        AMonomial(hs=(-2,))
    with pytest.raises(ValueError):
        AElement("c", {AMonomial(barred=1): 1})
    assert AMonomial(zs=(0, 2)).zs == (2,)


def test_monomial_rejects_non_integers():
    for fields in [{"zs": (2.5,)}, {"hs": ("3",)}, {"zs": (0.0,)}, {"barred": 1.5}]:
        with pytest.raises(TypeError):
            AMonomial(**fields)


def test_algebra_string_and_json():
    x = a_z("d", 2) * a_h("d", 1) + a_hbar().scale(3)
    assert str(x) == "z2*h1 + 3*hbar0"
    blob = x.to_json()
    assert blob["lie_type"] == "d"
    assert {"zs": [], "hs": [], "barred": 1, "coeff": 3} in blob["terms"]
    assert str(a_one("c")) == "1"
    assert str(AElement("c")) == "0"


# ---------------------------------------------------------------------------
# ring elements and the four basis products


def test_level_zero_shapes_must_be_empty():
    with pytest.raises(InvalidShapeError):
        DominantShape("c", (1,), 0)
    with pytest.raises(InvalidShapeError):
        DominantShape("d", (1, 1), 0)
    with pytest.raises(InvalidShapeError):
        make_label("c", (), DominantShape("b", (), 1))


def test_element_validation_and_arithmetic():
    x = row_class("c", 2)
    y = column_class("c", 1)
    assert (x + y) - y == x
    assert x.scale(0).is_zero()
    with pytest.raises(InvalidShapeError):
        x + row_class("b", 2)
    assert groth_one("c").coefficient(make_label("c")) == 1


def test_zero_zero_is_littlewood_richardson():
    for lie in ("b", "c", "d"):
        got = groth_mul(column_class(lie, 2), column_class(lie, 1))
        expected = mul_zero_zero(lie, (1, 1), (1,))
        assert got == expected
        for nu, c in lr_expand((1, 1), (1,)).items():
            assert got.coefficient(make_label(lie, nu)) == c


def test_zero_posi_fuses():
    for lie in ("b", "c", "d"):
        got = groth_mul(column_class(lie, 2), row_class(lie, 3))
        assert got == mul_zero_posi(lie, (1, 1), DominantShape(lie, (3,), 1))
        assert got == groth_basis(lie, (1, 1), DominantShape(lie, (3,), 1))


def test_posi_zero_splits_with_corrections():
    got = groth_mul(row_class("c", 1), column_class("c", 1))
    expected = (
        groth_basis("c", (1,), DominantShape("c", (1,), 1))
        + row_class("c", 0)
        + row_class("c", 2)
    )
    assert got == expected


def test_ring_is_not_commutative():
    hz = groth_mul(row_class("c", 1), column_class("c", 1))
    zh = groth_mul(column_class("c", 1), row_class("c", 1))
    assert hz != zh
    assert len(zh.terms) == 1 and len(hz.terms) == 3


def test_mixed_product_associativity():
    for lie in ("b", "c", "d"):
        h, z1, z2 = row_class(lie, 1), column_class(lie, 1), column_class(lie, 2)
        assert groth_mul(groth_mul(h, z1), z2) == groth_mul(h, groth_mul(z1, z2))
        assert groth_mul(groth_mul(z1, h), z2) == groth_mul(z1, groth_mul(h, z2))


def test_unit_element():
    for lie in ("b", "c", "d"):
        one = groth_one(lie)
        for x in (row_class(lie, 2), column_class(lie, 2)):
            assert groth_mul(one, x) == x
            assert groth_mul(x, one) == x


# ---------------------------------------------------------------------------
# dominant times dominant: infinite series with an exactness window


def test_empty_shape_square_symplectic_is_the_rectangle_family():
    """The square of the level-one empty-shape class expands over all
    two-row rectangles, one each; in particular it is not a single class
    and not a finite sum."""
    sq = groth_mul(row_class("c", 0), row_class("c", 0), 8)
    expected = {
        make_label("c", (), DominantShape("c", (k, k) if k else (), 2)): 1
        for k in range(5)
    }
    assert sq.terms == expected
    assert sq.through_degree == 8
    assert sq.coefficient(make_label("c", (), DominantShape("c", (2, 1), 2))) == 0
    assert sq.coefficient(make_label("c", (), DominantShape("c", (2,), 2))) == 0


def test_empty_shape_square_even_orthogonal():
    sq = groth_mul(row_class("d", 0), row_class("d", 0), 6)
    lams = sorted(label.kappa.lam for label in sq.terms)
    assert lams == [(), (2,), (2, 2), (4,), (4, 2), (6,)]
    assert all(c == 1 for c in sq.terms.values())


def test_barred_square_even_orthogonal():
    sq = groth_mul(barred_class(), barred_class(), 6)
    lams = sorted(label.kappa.lam for label in sq.terms)
    assert lams == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (4, 1, 1), (4, 2)]
    assert all(c == 1 for c in sq.terms.values())


def test_barred_times_plain_commutes():
    a = groth_mul(row_class("d", 0), barred_class(), 6)
    b = groth_mul(barred_class(), row_class("d", 0), 6)
    assert a == b
    lams = sorted(label.kappa.lam for label in a.terms)
    assert lams == [(1, 1), (3, 1), (3, 3), (5, 1)]


def test_dominant_products_commute():
    for lie in ("b", "c", "d"):
        p = groth_mul(row_class(lie, 1), row_class(lie, 2), 7)
        q = groth_mul(row_class(lie, 2), row_class(lie, 1), 7)
        assert p == q


def test_window_bookkeeping():
    sq = groth_mul(row_class("c", 0), row_class("c", 0), 8)
    with pytest.raises(ValueError):
        sq.coefficient(make_label("c", (), DominantShape("c", (5, 5), 2)))
    assert str(sq).endswith("+ O(9)")
    # a default window appears when none is given
    assert groth_mul(row_class("c", 0), row_class("c", 0)).through_degree is not None
    # crossing a finite class costs two boxes of window per box crossed
    shifted = groth_mul(sq, column_class("c", 1))
    assert shifted.through_degree == 6
    # adding windowed and exact keeps the smaller window
    assert (sq + row_class("c", 0).scale(0)).through_degree == 8
    assert (sq + shape_class("c", (1, 1), 2)).through_degree == 8


def test_posi_posi_direct_call_matches_mul():
    k1 = DominantShape("c", (1,), 1)
    k2 = DominantShape("c", (2,), 1)
    direct = mul_posi_posi("c", k1, k2, 7)
    via_mul = groth_mul(shape_class("c", (1,), 1), shape_class("c", (2,), 1), 7)
    assert direct == via_mul


def _small_basis(lie_type, max_size=3):
    """(size, basis element) for every label of level 0 to 2 with
    |mu| + |lam| <= max_size."""
    out = [(sum(mu), groth_basis(lie_type, mu)) for mu in _partitions_upto(max_size)]
    for ell in (1, 2):
        for kappa in level_shapes(lie_type, ell, range(max_size + 1)):
            for mu in _partitions_upto(max_size - sum(kappa.lam)):
                out.append((sum(mu) + sum(kappa.lam), groth_basis(lie_type, mu, kappa)))
    return out


def _partitions_upto(size):
    return [mu for k in range(size + 1) for mu in partitions_of(k)]


@pytest.mark.parametrize("lie_type", ["b", "c", "d"])
def test_trusted_products_match_validated_elements(lie_type):
    # the products build their labels without validating them again; each
    # result must be what the validating constructor makes of its terms.
    # Pairs whose sizes add up to at most 3 keep the sweep to seconds.
    basis = _small_basis(lie_type)
    for window in (None, 4, 6):
        for size_x, x in basis:
            for size_y, y in basis:
                if size_x + size_y > 3:
                    continue
                out = groth_mul(x, y, window)
                assert out == GrothElement(lie_type, out.terms, out.through_degree)
                if out.through_degree is not None:
                    assert all(_label_size(l) <= out.through_degree for l in out.terms)


@pytest.mark.parametrize("lie_type", ["b", "c", "d"])
def test_posi_posi_cache_answers_a_narrower_window(lie_type):
    k1 = DominantShape(lie_type, (1,), 1)
    k2 = DominantShape(lie_type, (), 1)
    grothendieck._posi_posi.cache_clear()
    wide = mul_posi_posi(lie_type, k1, k2, 6)
    assert any(_label_size(l) > 4 for l in wide.terms)
    narrow = mul_posi_posi(lie_type, k1, k2, 4)
    grothendieck._posi_posi.cache_clear()
    assert narrow == mul_posi_posi(lie_type, k1, k2, 4)
    assert narrow.through_degree == 4


def test_basis_series_cuts_a_narrower_cutoff_from_the_widest(monkeypatch):
    shape = DominantShape("c", (1,), 2)
    built = []

    def counted(kappa, cutoff):
        built.append(cutoff)
        return s_g_series(kappa, cutoff)

    monkeypatch.setattr(grothendieck, "s_g_series", counted)
    grothendieck._basis_series.cache_clear()
    grothendieck._basis_series(shape, 8)
    narrow = grothendieck._basis_series(shape, 6)
    assert built == [8]
    assert narrow == s_g_series(shape, 6)
    grothendieck._basis_series.cache_clear()
    grothendieck._basis_series(shape, 6)
    assert grothendieck._basis_series(shape, 8) == s_g_series(shape, 8)
    assert built == [8, 6, 8]


def test_element_labels_must_carry_partitions():
    kappa = DominantShape("c", (1,), 1)
    for mu in [(1, 2), (2, 0), (-1,)]:
        with pytest.raises(InvalidShapeError):
            GrothElement("c", {grothendieck.StableComponent(mu, kappa): 1})


# ---------------------------------------------------------------------------
# level determinants


def test_level_determinant_telescopes_to_single_class():
    """Every valid shape of level at most 3 with at most 3 boxes, which
    reaches the even orthogonal t < ell, t = ell and t > ell branches, at
    the default window and at windows |lam| and |lam| + 2."""
    shapes = [DominantShape("d", (1, 1, 1, 1), 2)]
    for lie in ("b", "c", "d"):
        for ell in range(1, 4):
            for size in range(4):
                for lam in partitions_of(size):
                    try:
                        shapes.append(DominantShape(lie, lam, ell))
                    except InvalidShapeError:
                        continue
    for shape in shapes:
        size = sum(shape.lam)
        for window in (None, size, size + 2):
            det = level_determinant(shape, window)
            assert det.terms == {make_label(shape.lie_type, (), shape): 1}, (
                shape,
                window,
            )


def test_two_row_determinant_identity_symplectic():
    """H((1,1),2) = H1 (H3 + H1) - H2 (H2 + H0); the infinite tails of the
    four products cancel inside the window."""
    H = lambda a: row_class("c", a)
    rhs = groth_mul(H(1), H(3) + H(1), 8) - groth_mul(H(2), H(2) + H(0), 8)
    assert rhs.terms == {make_label("c", (), DominantShape("c", (1, 1), 2)): 1}
    assert rhs.through_degree == 8


# ---------------------------------------------------------------------------
# structure constants


def test_structure_constant_diagonal_is_one():
    for lie in ("b", "c", "d"):
        for lam in [(1,), (2,), (1, 1)]:
            for ell in (2, 3):
                target = DominantShape(lie, lam, ell)
                assert structure_constant(lie, lam, ell, target) == 1, (lie, lam, ell)


def test_structure_constant_box_bound():
    """Nonzero constants need the row partition inside the lam_1 x level box."""
    for lie in ("b", "c", "d"):
        target = DominantShape(lie, (1, 1), 2)
        assert structure_constant(lie, (2,), 2, target) == 0
        assert structure_constant(lie, (3,), 2, target) == 0


def test_structure_constant_off_level_vanishes():
    assert structure_constant("c", (1,), 3, DominantShape("c", (1,), 2)) == 0
    assert structure_constant("b", (2,), 2, DominantShape("b", (2,), 3)) == 0


def test_structure_constant_inside_box():
    assert structure_constant("c", (1, 1), 2, DominantShape("c", (2,), 2)) == 1


def test_structure_constant_even_orthogonal_tall_rows():
    assert structure_constant("d", (1, 1, 1), 2, DominantShape("d", (1, 1, 1), 2)) == 1
    assert (
        structure_constant("d", (1, 1, 1, 1), 2, DominantShape("d", (1, 1, 1, 1), 2))
        == 1
    )


def test_structure_constant_rejects_bad_tall_rows():
    with pytest.raises(InvalidShapeError):
        structure_constant("c", (1, 1, 1), 2, DominantShape("c", (1,), 2))
    with pytest.raises(InvalidShapeError):
        structure_constant("d", (2, 2, 2), 2, DominantShape("d", (2,), 2))
    with pytest.raises(InvalidShapeError):
        structure_constant("d", (1,) * 5, 2, DominantShape("d", (1,), 2))
    with pytest.raises(InvalidShapeError):
        structure_constant("c", (1,), 0, DominantShape("c", (1,), 1))


def test_structure_cache_round_trip(tmp_path):
    path = str(tmp_path / "cache.json")
    cache = StructureCache(path)
    target = DominantShape("c", (2,), 2)
    value = structure_constant("c", (1, 1), 2, target, cache=cache)
    assert value == 1
    with open(path, "r", encoding="utf-8") as fh:
        stored = json.load(fh)
    assert stored == {"c|2|1,1|2@2": 1}
    # a fresh cache object reads the persisted value and short-circuits
    seeded = StructureCache(path)
    seeded.put("c|2|1,1|2@2", 77)
    assert structure_constant("c", (1, 1), 2, target, cache=seeded) == 77


def test_structure_cache_opens_a_truncated_file_empty(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text('{"c|2|1|1@2": 1,\n"c|2|', encoding="utf-8")
    cache = StructureCache(str(path))
    assert cache.data == {}
    cache.put("k", 5)
    assert path.read_text(encoding="utf-8") == json.dumps(
        {"k": 5}, indent=0, sort_keys=True
    )
    assert os.listdir(tmp_path) == ["cache.json"]
    for text in ("[1, 2]", '{"k": "5"}', '{"k": 1.5}', '{"k": true}'):
        path.write_text(text, encoding="utf-8")
        assert StructureCache(str(path)).data == {}, text


def test_structure_cache_failed_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    cache = StructureCache(str(path))
    cache.put("a", 1)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        cache.put("b", 2)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["cache.json"]


def test_structure_cache_env_var(tmp_path, monkeypatch):
    path = str(tmp_path / "env_cache.json")
    monkeypatch.setenv("CRYSTALLINE_CACHE", path)
    cache = StructureCache()
    assert cache.path == path
    cache.put("k", 5)
    assert StructureCache().get("k") == 5
    monkeypatch.delenv("CRYSTALLINE_CACHE")
    assert StructureCache().path is None


# ---------------------------------------------------------------------------
# the realization map


def test_psi_on_generators():
    for lie in ("b", "c", "d"):
        assert psi(row_class(lie, 2)) == a_h(lie, 2)
        assert psi(column_class(lie, 3)) == a_z(lie, 3)
        assert psi(groth_one(lie)) == a_one(lie)
    assert psi(barred_class()) == a_hbar()


def test_psi_zero_dual_determinant():
    got = psi_zero("c", (2, 1))
    expected = a_z("c", 2) * a_z("c", 1) - a_z("c", 3)
    assert got == expected


def test_psi_plus_level_one_even_orthogonal_branches():
    assert psi_plus(DominantShape("d", (), 1)) == a_h("d", 0)
    assert psi_plus(DominantShape("d", (1, 1), 1)) == a_hbar()
    assert psi_plus(DominantShape("d", (4,), 1)) == a_h("d", 4)


def test_psi_plus_matches_two_row_determinant():
    got = psi_plus(DominantShape("c", (1, 1), 2))
    h = lambda a: a_h("c", a)
    expected = h(1) * (h(3) + h(1)) - h(2) * (h(2) + h(0))
    assert got == expected


def test_psi_plus_matches_two_row_determinants_of_b_and_d():
    h = lambda a: a_h("d", a)
    hbar = a_hbar()
    # t < ell and t > ell: the half-sums leave one reflected determinant
    got = psi_plus(DominantShape("d", (1,), 2))
    assert got == h(3) * hbar - h(2) * h(1) + h(1) * h(0)
    got = psi_plus(DominantShape("d", (1, 1, 1), 2))
    assert got == h(3) * h(0) - h(2) * h(1) + h(1) * hbar
    h = lambda a: a_h("b", a)
    got = psi_plus(DominantShape("b", (1,), 2))
    assert got == h(0) * (h(3) + h(1)) - (h(1) + h(0)) * h(2)


def test_half_rejects_odd_coefficients():
    x = GrothElement("c", {make_label("c", (1,)): 2}, 5)
    assert x.half() == GrothElement("c", {make_label("c", (1,)): 1}, 5)
    with pytest.raises(ArithmeticError):
        (x + groth_basis("c", (2,))).half()
    y = a_h("c", 1).scale(2)
    assert y.half() == a_h("c", 1)
    with pytest.raises(ArithmeticError):
        (y + a_h("c", 2)).half()


def test_psi_is_a_homomorphism_rows_past_columns():
    """The scan-based products match the closed-form corrections through the
    realization map, for every type, widths up to four and columns up to
    nine boxes: past five boxes the right model has too many fillings to
    list, and below six the scans once started under the rank where every
    component appears."""
    for lie, a, b in itertools.product(("b", "c", "d"), range(5), range(1, 10)):
        x = row_class(lie, a)
        y = column_class(lie, b)
        assert psi(groth_mul(x, y)) == psi(x) * psi(y), (lie, a, b)


def test_psi_is_a_homomorphism_barred_cases():
    for b in range(1, 10):
        x = barred_class()
        y = column_class("d", b)
        assert psi(groth_mul(x, y)) == psi(x) * psi(y), b


def test_psi_is_a_homomorphism_composite_elements():
    for lie in ("b", "c", "d"):
        u = groth_basis(lie, (1,), DominantShape(lie, (1,), 1))
        v = column_class(lie, 2)
        assert psi(groth_mul(u, v)) == psi(u) * psi(v), lie


def test_level_basis_expansion_names_its_leftover():
    # level 1 of type c has one shape per degree, read at s[1,1,1,1] in
    # degree 4, so the other four terms are left over
    product = SchurSeries(
        4, {(4,): 2, (3, 1): -1, (2, 2): 3, (2, 1, 1): -1, (1, 1, 1, 1): 1}
    )
    with pytest.raises(StabilizationError) as info:
        _expand_in_level_basis(product, "c", 1, 4)
    err = info.value
    assert err.first is err.second is err.expected is None
    assert err.leftover == SchurSeries(
        4, {(4,): 2, (3, 1): -1, (2, 2): 3, (2, 1, 1): -1}
    )
    assert str(err) == (
        "degree 4 of the product is outside the level 1 basis span, leaving "
        "-1*s[2,1,1] + 3*s[2,2] + -1*s[3,1] + 1 more term(s)"
    )


def test_psi_rejects_windowed_elements():
    sq = groth_mul(row_class("c", 0), row_class("c", 0), 6)
    with pytest.raises(ValueError):
        psi(sq)


# ---------------------------------------------------------------------------
# serialization and printing


def test_element_string_and_json_are_deterministic():
    x = groth_mul(row_class("c", 1), column_class("c", 1))
    assert str(x) == "[0 | 0@1] + [1 | 1@1] + [0 | 2@1]"
    blob = x.to_json()
    assert blob["lie_type"] == "c"
    assert blob["through_degree"] is None
    assert blob["terms"] == [
        {"mu": [], "kappa": {"lam": [], "ell": 1}, "coeff": 1},
        {"mu": [1], "kappa": {"lam": [1], "ell": 1}, "coeff": 1},
        {"mu": [], "kappa": {"lam": [2], "ell": 1}, "coeff": 1},
    ]
