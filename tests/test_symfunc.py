"""Tests for Schur arithmetic, E-series identities, and rank-n characters."""

import json
import random

import pytest

from crystalline import symfunc
from crystalline.grothendieck import AElement, a_h, a_z
from crystalline.weights import (
    DominantShape,
    InvalidShapeError,
    conjugate,
    level_shapes,
    partitions_of,
)
from crystalline.symfunc import (
    CutoffMismatchError,
    LaurentPoly,
    SchurSeries,
    alternating_e_product,
    cap_e,
    cap_e_variant,
    determinant,
    e_series,
    elementary_laurent,
    elementary_variant,
    laurent_specialize,
    lr_expand,
    monomials_to_schur,
    one_series,
    pm_alphabet,
    s_g_series,
    schur_basis,
    schur_mul,
    schur_poly,
    sigma_char,
    spinor_char,
    spinor_char_barred,
    two_column_schur,
    zero_series,
)


# ---------------------------------------------------------------------------
# brute-force oracle: skew semistandard fillings with lattice reading words


def brute_lr(lam, mu, nu) -> int:
    """Count skew semistandard tableaux of shape nu/lam, content mu, whose
    right-to-left, top-to-bottom reading word is a lattice word."""
    lam = tuple(lam) + (0,) * (len(nu) - len(lam))
    if any(lam[i] > nu[i] for i in range(len(nu))) or sum(nu) != sum(lam) + sum(mu):
        return 0
    grid = [[0] * nu[r] for r in range(len(nu))]
    cells = [(r, c) for r in range(len(nu)) for c in range(lam[r], nu[r])]
    count = 0

    def ok_word() -> bool:
        seen = [0] * (len(mu) + 1)
        for r in range(len(grid)):
            for c in range(len(grid[r]) - 1, lam[r] - 1, -1):
                v = grid[r][c]
                seen[v] += 1
                if v > 1 and seen[v] > seen[v - 1]:
                    return False
        return all(seen[i + 1] == mu[i] for i in range(len(mu)))

    def fill(k: int, left: tuple[int, ...]) -> None:
        nonlocal count
        if k == len(cells):
            if ok_word():
                count += 1
            return
        r, c = cells[k]
        lo = 1
        if c > 0 and c - 1 >= lam[r]:
            lo = max(lo, grid[r][c - 1])
        if r > 0 and c < nu[r - 1] and c >= lam[r - 1]:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, len(mu) + 1):
            if left[v - 1] == 0:
                continue
            if r > 0 and c < nu[r - 1] and c >= lam[r - 1] and grid[r - 1][c] >= v:
                continue
            grid[r][c] = v
            fill(k + 1, left[: v - 1] + (left[v - 1] - 1,) + left[v:])
        grid[r][c] = 0

    fill(0, tuple(mu))
    return count


def test_lr_rule_vs_brute_force():
    parts = [p for s in range(0, 5) for p in partitions_of(s)]
    for lam in parts:
        for mu in parts:
            table = lr_expand(lam, mu)
            top = sum(lam) + sum(mu)
            for nu in partitions_of(top):
                assert table.get(nu, 0) == brute_lr(lam, mu, nu), (lam, mu, nu)


def test_lr_frozen_examples():
    assert lr_expand((1,), (1,)) == {(2,): 1, (1, 1): 1}
    assert lr_expand((2, 1), (1,)) == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}
    assert lr_expand((2, 1), (2, 1)) == {
        (4, 2): 1,
        (4, 1, 1): 1,
        (3, 3): 1,
        (3, 2, 1): 2,
        (3, 1, 1, 1): 1,
        (2, 2, 2): 1,
        (2, 2, 1, 1): 1,
    }
    assert lr_expand((2, 2), (2, 2)).get((4, 3, 1)) == 1
    assert lr_expand((), (3, 2)) == {(3, 2): 1}


def test_lr_fast_path_matches_reference_filling(monkeypatch):
    # the orientation-fixed filling is the reference; the fast path may run
    # it on the conjugate pair, with the factors swapped, or both
    reference = symfunc._lr_fill
    forms = []

    def recording_fill(lam, mu):
        forms.append((lam, mu))
        return reference(lam, mu)

    monkeypatch.setattr(symfunc, "_lr_fill", recording_fill)
    parts = [p for s in range(0, 11) for p in partitions_of(s)]
    seen = set()
    for lam in parts:
        for mu in parts:
            if sum(lam) + sum(mu) > 10:
                continue
            forms.clear()
            fast = symfunc._lr_cheapest(lam, mu)
            (form,) = forms
            assert fast == reference(lam, mu), (lam, mu)
            assert lr_expand(lam, mu) == fast, (lam, mu)
            lam_c, mu_c = conjugate(lam), conjugate(mu)
            branch = {
                (lam, mu): ("as given", "unswapped"),
                (mu, lam): ("as given", "swapped"),
                (lam_c, mu_c): ("conjugated", "unswapped"),
                (mu_c, lam_c): ("conjugated", "swapped"),
            }
            if len(branch) == 4:  # the four forms are told apart
                seen.add(branch[form])
    assert len(seen) == 4, seen


def test_cached_results_cannot_be_poisoned():
    table = lr_expand((1,), (1,))
    with pytest.raises(TypeError):
        table[(9,)] = 5
    assert lr_expand((1,), (1,)) == {(2,): 1, (1, 1): 1}
    box = schur_basis((1,), 4)
    assert schur_mul(box, box) == SchurSeries(4, {(2,): 1, (1, 1): 1})
    poly = schur_poly((1,), 2)
    with pytest.raises(TypeError):
        poly.terms[(5, 5)] = 7
    assert schur_poly((1,), 2).terms == {(1, 0): 1, (0, 1): 1}


def test_public_constructors_still_validate():
    with pytest.raises(InvalidShapeError):
        SchurSeries(5, {(1, 2): 1})
    with pytest.raises(ValueError):
        LaurentPoly(2, {(1, 0, 0): 1})
    # sums and products skip re-validation but keep integrality checks
    box = schur_basis((1,), 4)
    with pytest.raises(ArithmeticError):
        (box + box + box).half()


def test_even_orthogonal_series_still_checks_its_halving(monkeypatch):
    # with the alternating correction removed, the half-sum is odd
    monkeypatch.setattr(symfunc, "alternating_e_product", zero_series)
    with pytest.raises(ArithmeticError):
        s_g_series(DominantShape("d", (1,), 2), 6)


def test_schur_mul_symmetry_random():
    rng = random.Random(4711)
    parts = [p for s in range(0, 6) for p in partitions_of(s)]
    for _ in range(40):
        lam, mu = rng.choice(parts), rng.choice(parts)
        a = schur_basis(lam, 8)
        b = schur_basis(mu, 8)
        assert schur_mul(a, b) == schur_mul(b, a)


def test_series_mechanics():
    f = schur_basis((1,), 6)
    assert f * one_series(6) == f
    assert (f + f).coefficient((1,)) == 2
    assert (f - f).is_zero()
    with pytest.raises(CutoffMismatchError):
        f + schur_basis((1,), 5)
    with pytest.raises(CutoffMismatchError):
        f + f.with_t_power(2)
    assert f.truncate(0).is_zero()
    with pytest.raises(CutoffMismatchError):
        f.truncate(9)
    data = cap_e(1, 5).to_json()
    assert SchurSeries.from_json(data) == cap_e(1, 5)
    with pytest.raises(ArithmeticError):
        f.half()
    assert f.scale(2).half() == f


# ---------------------------------------------------------------------------
# E series


def cap_e_closed(r: int, cutoff: int) -> SchurSeries:
    """Independent two-column closed form of E_r."""
    total = zero_series(cutoff)
    rr = abs(r)
    for p in range(0, cutoff + 1):
        for q in range(0, min(p, cutoff - p) + 1):
            if p - q >= rr and (p - q - rr) % 2 == 0:
                total = total + two_column_schur(p, q, cutoff)
    return total


def test_cap_e_against_closed_form():
    for r in range(0, 7):
        assert cap_e(r, 10) == cap_e_closed(r, 10), r


def test_cap_e_reflection():
    for r in range(0, 9):
        assert cap_e(r, 12) == cap_e(-r, 12)


def test_cap_e_basics():
    assert cap_e(13, 12).is_zero()
    diff = cap_e(0, 6) - cap_e(2, 6)
    # degree 2: e_1^2 - e_2 = s_(2); equivalently the column pair (1,1)
    assert diff.homogeneous(2) == SchurSeries(6, {(2,): 1})
    assert diff.coefficient(()) == 1


def test_e_variant_relations():
    for r in range(-2, 6):
        assert cap_e_variant(r, "prime", 12) == cap_e(r, 12) - cap_e(r + 2, 12)
        assert cap_e_variant(r, "second", 12) == cap_e(r, 12) + cap_e(r + 1, 12)
    with pytest.raises(ValueError):
        cap_e_variant(0, "mystery", 4)


# ---------------------------------------------------------------------------
# spinor characters and the five generating-function identities


def test_spinor_char_symplectic_example():
    f = spinor_char(1, "c", 3)
    assert f.t_power == 1
    assert f.coeffs == {(1,): 1, (2, 1): 1}


def test_spinor_identities():
    cutoff = 8
    for a in range(0, 4):
        lhs = spinor_char(a, "c", cutoff)
        assert lhs == (cap_e(a, cutoff) - cap_e(a + 2, cutoff)).with_t_power(1)
        lhs = spinor_char(a, "b", cutoff)
        assert lhs == (cap_e(a, cutoff) + cap_e(a + 1, cutoff)).with_t_power(1)
    for a in range(1, 4):
        assert spinor_char(a, "d", cutoff) == cap_e(a, cutoff).with_t_power(1)
    plain = spinor_char(0, "d", cutoff)
    barred = spinor_char_barred(cutoff)
    assert plain + barred == cap_e(0, cutoff).with_t_power(1)
    assert plain - barred == alternating_e_product(cutoff).with_t_power(1)


# ---------------------------------------------------------------------------
# Jacobi-Trudi determinants


def test_jt_determinant_single_row():
    # at level one the determinant is its one entry, E of the row's flavor
    def level_det(lam, flavor):
        return symfunc._level_det(
            lam, 1, lambda r: cap_e_variant(r, flavor, 8), zero_series(8), one_series(8)
        )

    for a in range(0, 4):
        lam = (a,) if a else ()
        assert level_det(lam, "prime") == cap_e_variant(a, "prime", 8)
        assert level_det(lam, "plain") == cap_e(a, 8)


def test_s_series_matches_spinor_chars():
    cutoff = 8
    assert s_g_series(DominantShape("c", (), 1), cutoff) == cap_e(0, cutoff) - cap_e(2, cutoff)
    for a in range(0, 4):
        for lie_type in ("b", "c"):
            shape = DominantShape(lie_type, (a,) if a else (), 1)
            assert s_g_series(shape, cutoff).with_t_power(1) == spinor_char(a, lie_type, cutoff)
    for a in range(1, 4):
        shape = DominantShape("d", (a,), 1)
        assert s_g_series(shape, cutoff).with_t_power(1) == spinor_char(a, "d", cutoff)
    # the two even orthogonal degree-zero companions
    assert s_g_series(DominantShape("d", (), 1), cutoff).with_t_power(1) == spinor_char(0, "d", cutoff)
    assert s_g_series(DominantShape("d", (1, 1), 1), cutoff).with_t_power(1) == spinor_char_barred(cutoff)


def test_s_series_integrality_and_constant_term():
    for shape in (
        DominantShape("d", (1,), 2),
        DominantShape("d", (), 2),
        DominantShape("d", (1, 1, 1), 2),
        DominantShape("d", (2, 1, 1), 2),
    ):
        series = s_g_series(shape, 8)  # halving inside must not raise
        assert all(isinstance(c, int) for c in series.coeffs.values())
    assert s_g_series(DominantShape("c", (), 3), 6).coefficient(()) == 1
    assert s_g_series(DominantShape("b", (2, 1), 2), 6).coefficient(()) == 0


# ---------------------------------------------------------------------------
# Laurent polynomials and rank-n characters


def test_laurent_mechanics():
    x = LaurentPoly.monomial(2, (1, 0))
    y = LaurentPoly.monomial(2, (0, 1))
    assert (x + y) * (x - y) == x * x - y * y
    assert (x - x).is_zero()
    p = x * y.scale(3) + LaurentPoly.one(2)
    assert LaurentPoly.from_json(p.to_json()) == p
    assert p.at_ones() == 4
    with pytest.raises(ArithmeticError):
        (x + x + y).half()
    assert str(LaurentPoly.monomial(1, (-1,))) == "x1^-1"


def test_elementary_laurent_values():
    letters = pm_alphabet("c", 2)
    assert len(letters) == 4
    assert len(pm_alphabet("b", 2)) == 5
    e1 = elementary_laurent(1, letters, 2)
    assert e1.terms == {(1, 0): 1, (0, 1): 1, (-1, 0): 1, (0, -1): 1}
    e4 = elementary_laurent(4, letters, 2)
    assert e4 == LaurentPoly.one(2)  # product of all four letters
    assert elementary_laurent(5, letters, 2).is_zero()
    assert elementary_laurent(-1, letters, 2).is_zero()
    assert elementary_laurent(0, letters, 2) == LaurentPoly.one(2)


def test_finite_alphabet_reflection():
    # e_{n-r} = e_{n+r} on the 2n-letter alphabet
    for n in (1, 2, 3):
        letters = pm_alphabet("d", n)
        for r in range(0, n + 3):
            lhs = elementary_laurent(n - r, letters, n)
            rhs = elementary_laurent(n + r, letters, n)
            assert lhs == rhs, (n, r)


def test_odd_alphabet_recursion():
    # e_r(x^{pm}, 1) = e_r(x^{pm}) + e_{r-1}(x^{pm})
    for n in (1, 2, 3):
        plain = pm_alphabet("d", n)
        odd = pm_alphabet("b", n)
        for r in range(0, 2 * n + 2):
            lhs = elementary_laurent(r, odd, n)
            rhs = elementary_laurent(r, plain, n) + elementary_laurent(r - 1, plain, n)
            assert lhs == rhs, (n, r)


def test_elementary_bridge_equations():
    # the three labeled bridges between rank-n alphabets and E series
    for n in (1, 2, 3):
        cutoff = 2 * n + 2
        shift = LaurentPoly.monomial(n, (-1,) * n)
        plain = pm_alphabet("d", n)
        odd = pm_alphabet("b", n)
        for r in range(-n, 3 * n + 1):
            e_side = elementary_laurent(n - r, plain, n)
            series_side = laurent_specialize(cap_e(r, cutoff).with_t_power(1), n)
            assert e_side == series_side, ("plain", n, r)
            e_side = elementary_variant(n - r, "prime", plain, n)
            series_side = laurent_specialize(
                cap_e_variant(r, "prime", cutoff).with_t_power(1), n
            )
            assert e_side == series_side, ("prime", n, r)
            e_side = elementary_laurent(n - r, odd, n)
            series_side = laurent_specialize(
                cap_e_variant(r, "second", cutoff).with_t_power(1), n
            )
            assert e_side == series_side, ("second", n, r)


def test_sigma_char_anchors():
    assert sigma_char((), "c", 2) == LaurentPoly.one(2)
    one_box_c = sigma_char((1,), "c", 2)
    assert one_box_c.terms == {(1, 0): 1, (0, 1): 1, (-1, 0): 1, (0, -1): 1}
    one_box_b = sigma_char((1,), "b", 2)
    assert one_box_b.terms == {
        (1, 0): 1,
        (0, 1): 1,
        (0, 0): 1,
        (-1, 0): 1,
        (0, -1): 1,
    }
    col_c = sigma_char((1, 1), "c", 2)
    assert col_c.terms == {
        (1, 1): 1,
        (1, -1): 1,
        (-1, 1): 1,
        (-1, -1): 1,
        (0, 0): 1,
    }
    col_d = sigma_char((1, 1), "d", 2)
    assert col_d.terms == {(1, 1): 1, (-1, -1): 1, (0, 0): 1}
    col_d_neg = sigma_char((1, -1), "d", 2)
    assert col_d_neg.terms == {(1, -1): 1, (-1, 1): 1, (0, 0): 1}
    assert sigma_char((1, 1), "b", 2).at_ones() == 10
    assert sigma_char((1, 1, 1), "d", 3).at_ones() == 10
    assert sigma_char((1, 1, 1), "c", 3).at_ones() == 14


def test_sigma_char_dimension_formula():
    # odd orthogonal adjoint and vector reps at a few ranks
    assert sigma_char((1,), "b", 3).at_ones() == 7
    assert sigma_char((1, 1), "b", 3).at_ones() == 21
    assert sigma_char((1,), "c", 3).at_ones() == 6
    assert sigma_char((1, 1), "c", 3).at_ones() == 14
    assert sigma_char((1,), "d", 3).at_ones() == 6
    assert sigma_char((1, 1), "d", 3).at_ones() == 15


def test_sigma_char_rejects_bad_shapes():
    from crystalline.weights import InvalidShapeError

    with pytest.raises(InvalidShapeError):
        sigma_char((1, -1), "c", 2)
    with pytest.raises(InvalidShapeError):
        sigma_char((1, -1), "d", 3)
    with pytest.raises(InvalidShapeError):
        sigma_char((3,), "c", 2)
    with pytest.raises(InvalidShapeError):
        sigma_char((1, 1, 1), "b", 2)


def test_sigma_char_rejects_non_integers():
    for shape in [(1.7,), (2.0, 1), ("1",), (1, -1.0)]:
        with pytest.raises(TypeError):
            sigma_char(shape, "d", 2)
    assert sigma_char((1, 0, 0), "c", 2) == sigma_char((1,), "c", 2)


def test_schur_poly_values():
    assert schur_poly((1,), 2).terms == {(1, 0): 1, (0, 1): 1}
    assert schur_poly((2, 1), 2).at_ones() == 2
    assert schur_poly((1, 1, 1), 2).is_zero()
    assert schur_poly((), 3) == LaurentPoly.one(3)
    # hook content formula check: s_{(2,1)} at n=3 has 8 tableaux
    assert schur_poly((2, 1), 3).at_ones() == 8


def ssyt_terms(lam, n) -> dict:
    """Oracle: the exponent vectors of every semistandard tableau of shape
    lam with entries in 1..n, counted by listing the tableaux."""
    terms: dict = {}
    if len(lam) > n:
        return terms
    rows = [[0] * p for p in lam]

    def fill(r: int, c: int, counts: list) -> None:
        if r == len(lam):
            exp = tuple(counts)
            terms[exp] = terms.get(exp, 0) + 1
            return
        if c == lam[r]:
            fill(r + 1, 0, counts)
            return
        lo = 1
        if c > 0:
            lo = max(lo, rows[r][c - 1])
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, n + 1):
            rows[r][c] = v
            counts[v - 1] += 1
            fill(r, c + 1, counts)
            counts[v - 1] -= 1

    fill(0, 0, [0] * n)
    return terms


def test_branching_schur_poly_matches_tableau_listing():
    symfunc._SSYT_CACHE.clear()
    checked = 0
    for n in range(0, 7):
        for size in range(0, 9):
            for lam in partitions_of(size):
                got = schur_poly(lam, n)
                assert got.nvars == n
                assert dict(got.terms) == ssyt_terms(lam, n), (lam, n)
                checked += 1
    assert checked == 7 * 67
    assert schur_poly((), 0) == LaurentPoly.one(0)
    assert schur_poly((), 4) == LaurentPoly.one(4)
    assert schur_poly((1, 1, 1), 2) == LaurentPoly.zero(2)
    assert schur_poly((1,), 0) == LaurentPoly.zero(0)


def test_branching_schur_poly_caches_its_intermediate_shapes():
    symfunc._SSYT_CACHE.clear()
    top = schur_poly((2, 1), 3)
    # the cells holding 3 come off (2, 1) leaving the shapes interlacing it
    below = {lam for lam, n in symfunc._SSYT_CACHE if n == 2}
    assert {(2, 1), (2,), (1, 1), (1,)} <= below
    assert schur_poly([2, 1, 0], 3) is top
    assert symfunc._SSYT_CACHE[((1,), 1)] == LaurentPoly.monomial(1, (1,))


def test_laurent_specialize_basics():
    assert laurent_specialize(e_series(1, 4), 2).terms == {(1, 0): 1, (0, 1): 1}
    f = laurent_specialize(cap_e(0, 2).with_t_power(1), 1)
    assert f.terms == {(1,): 1, (-1,): 1}


def test_monomials_to_schur_roundtrip():
    rng = random.Random(99)
    parts = [p for s in range(0, 6) for p in partitions_of(s) if len(p) <= 3]
    for _ in range(25):
        chosen = rng.sample(parts, k=3)
        weights = {lam: rng.randint(1, 4) for lam in chosen}
        total = LaurentPoly.zero(3)
        for lam, c in weights.items():
            total = total + schur_poly(lam, 3).scale(c)
        peeled = monomials_to_schur(total)
        assert peeled == {l: c for l, c in weights.items()}
    with pytest.raises(ValueError):
        monomials_to_schur(LaurentPoly.monomial(2, (2, 1)))


def test_determinant_basics():
    m = [[LaurentPoly.one(1), LaurentPoly.one(1)], [LaurentPoly.one(1), LaurentPoly.one(1)]]
    assert determinant(m, LaurentPoly.zero(1)).is_zero()
    x = LaurentPoly.monomial(1, (1,))
    assert determinant([[x]], LaurentPoly.zero(1)) == x


def cofactor_determinant(matrix, zero):
    """Reference: expansion down the first column, minors recomputed."""
    if len(matrix) == 1:
        return matrix[0][0]
    total = zero
    rest = [row[1:] for row in matrix]
    for i in range(len(matrix)):
        minor = [rest[k] for k in range(len(matrix)) if k != i]
        term = matrix[i][0] * cofactor_determinant(minor, zero)
        total = total + term if i % 2 == 0 else total - term
    return total


def _random_entries(rng, size, draw):
    return [[draw(rng) for _ in range(size)] for _ in range(size)]


def _draw_int(rng):
    return rng.randint(-5, 5)


def _draw_laurent(rng):
    total = LaurentPoly.zero(2)
    for _ in range(rng.randint(0, 3)):
        exp = (rng.randint(-2, 2), rng.randint(-2, 2))
        total = total + LaurentPoly.monomial(2, exp, rng.randint(-3, 3))
    return total


_SMALL_PARTS = [p for s in range(0, 4) for p in partitions_of(s)]


def _draw_series(rng):
    total = zero_series(6)
    for _ in range(rng.randint(0, 3)):
        total = total + schur_basis(rng.choice(_SMALL_PARTS), 6).scale(rng.randint(-2, 2))
    return total


def _draw_algebra(rng):
    # column and row letters do not commute, so a product-order slip shows
    total = AElement("c")
    for _ in range(rng.randint(0, 2)):
        letter = a_z("c", rng.randint(0, 2)) if rng.random() < 0.5 else a_h("c", rng.randint(0, 2))
        total = total + letter.scale(rng.choice((-1, 1, 2)))
    return total


@pytest.mark.parametrize(
    "draw, zero",
    [
        (_draw_int, 0),
        (_draw_laurent, LaurentPoly.zero(2)),
        (_draw_series, zero_series(6)),
        (_draw_algebra, AElement("c")),
    ],
    ids=["int", "laurent", "series", "algebra"],
)
def test_determinant_against_cofactor_oracle(draw, zero):
    rng = random.Random(2024)
    for size in (1, 2, 3, 4):
        for _ in range(6 if size < 4 else 3):
            matrix = _random_entries(rng, size, draw)
            assert determinant(matrix, zero) == cofactor_determinant(matrix, zero), matrix
    with pytest.raises(ValueError):
        determinant([], zero)


# ---------------------------------------------------------------------------
# right-sized character determinants and row-bounded series


def padded_sigma_det(mu, flavor, letters, n):
    """The reference for ``_sigma_det``: the n x n determinant, mu padded with zeros."""
    padded = tuple(mu) + (0,) * (n - len(mu))
    matrix = symfunc._reflected_matrix(
        [padded[i] - i for i in range(n)],
        lambda r: elementary_variant(r, flavor, letters, n),
    )
    return determinant(matrix, LaurentPoly.zero(n))


def _reference_shapes(lie_type, n):
    """Small, full-height and (type d) signed shapes of rank n; a few at n = 5."""
    if n == 5:
        extra = {"b": [], "c": [(1,) * 5], "d": [(1,) * 5, (1, 1, 1, 1, -1)]}
        return [(1,)] + extra[lie_type]
    shapes = [(), (1,), (1,) * n]
    if n >= 2:
        shapes += [(2, 1), (2,) * n]
        if lie_type == "d":
            shapes += [(1,) * (n - 1) + (-1,), (2,) * (n - 1) + (-1,)]
    return shapes


def test_sigma_char_matches_the_padded_determinant(monkeypatch):
    cases = [
        (lie, n, shape)
        for lie in "bcd"
        for n in range(2 if lie == "d" else 1, 6)
        for shape in _reference_shapes(lie, n)
    ]
    fast = [sigma_char(shape, lie, n) for lie, n, shape in cases]
    monkeypatch.setattr(symfunc, "_sigma_det", padded_sigma_det)
    for (lie, n, shape), got in zip(cases, fast):
        assert got == sigma_char(shape, lie, n), (lie, n, shape)


def test_padded_rows_of_the_rank_n_matrix_are_unitriangular():
    # rows i >= len(mu) are zero left of the diagonal and 1 on it, so the
    # padded determinant is its leading len(mu) x len(mu) minor
    for lie in "bcd":
        for n in range(1, 5):
            letters = pm_alphabet(lie, n)
            for flavor in ("plain", "prime"):
                for mu in [p for s in range(4) for p in partitions_of(s) if len(p) <= n]:
                    padded = tuple(mu) + (0,) * (n - len(mu))
                    matrix = symfunc._reflected_matrix(
                        [padded[i] - i for i in range(n)],
                        lambda r: elementary_variant(r, flavor, letters, n),
                    )
                    for i in range(len(mu), n):
                        assert all(matrix[i][j].is_zero() for j in range(i))
                        assert matrix[i][i] == LaurentPoly.one(n)


def test_row_bounded_series_is_the_restricted_series():
    cutoff = 8
    for lie in "bcd":
        for ell in (1, 2):
            for shape in level_shapes(lie, ell, range(2 * ell * 2 + 1), 2):
                # the type d half-sums halve inside; that must not raise
                full = s_g_series(shape, cutoff)
                for n in range(1, 5):
                    bounded = s_g_series(shape, cutoff, rows=n)
                    assert bounded.rows == n
                    assert bounded == full.restrict(n), (shape, n)


def test_row_bound_mechanics():
    f = cap_e(1, 6)
    g = f.restrict(2)
    assert g.rows == 2 and f.rows is None
    assert all(len(lam) <= 2 for lam in g.coeffs)
    assert g.restrict(1) == f.restrict(1)
    assert g.truncate(4).rows == 2
    assert g.with_t_power(1).rows == 2
    assert g.homogeneous(3).rows == 2
    bounded = SchurSeries(6, {(1, 1, 1): 1, (1,): 2}, rows=2)
    assert bounded == schur_basis((1,), 6).scale(2).restrict(2)
    with pytest.raises(CutoffMismatchError):
        g.restrict(3)
    for bad in (-1, 2.0, "2"):
        with pytest.raises(ValueError):
            f.restrict(bad)
        with pytest.raises(ValueError):
            SchurSeries(6, {(1,): 1}, rows=bad)
    # bounded and unbounded series never mix, nor do different bounds
    for a, b in ((f, g), (g, f), (g, f.restrict(3))):
        with pytest.raises(CutoffMismatchError):
            a + b
        with pytest.raises(CutoffMismatchError):
            a * b
    # products stay inside the bound
    assert g * g == (f * f).restrict(2)


def test_row_bound_json():
    g = s_g_series(DominantShape("d", (1,), 2), 6, rows=2)
    data = g.to_json()
    assert data["rows"] == 2
    assert SchurSeries.from_json(data) == g
    assert SchurSeries.from_json(json.loads(json.dumps(data))) == g
    # unbounded output is as before: no rows key, same bytes
    assert json.dumps(cap_e(1, 3).to_json()) == (
        '{"cutoff": 3, "t_power": 0, "terms": [{"partition": [1], "coeff": 1}, '
        '{"partition": [1, 1, 1], "coeff": 1}, {"partition": [2, 1], "coeff": 1}]}'
    )
    assert SchurSeries.from_json(cap_e(1, 3).to_json()).rows is None


def test_laurent_specialize_rejects_a_too_narrow_series():
    shape = DominantShape("c", (1,), 1)
    full = s_g_series(shape, 8).with_t_power(1)
    for n in (1, 2, 3):
        want = laurent_specialize(full, n)
        assert laurent_specialize(full.restrict(n), n) == want
        assert laurent_specialize(full.restrict(n + 1), n) == want
        if n > 1:
            with pytest.raises(ValueError):
                laurent_specialize(full.restrict(n - 1), n)
