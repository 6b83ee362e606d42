"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Every test prints ``ACCEPTANCE NN name: PASS`` or ``FAIL`` so a log scan
shows the full scorecard; the assertions themselves carry the details.
"""

import argparse

from crystalline import (
    DominantShape,
    Weight,
    build_graph,
    decompose_weight,
    enumerate_kn,
    enumerate_spinor_columns,
    enumerate_spinor_columns_barred,
    groth_mul,
    letter_graph_edges,
    lr_expand,
    make_label,
    orbit_representative,
    partitions_of,
    row_class,
    shape_of_weight,
    sigma_char,
    simple_root,
    t_lambda,
    tableau_eps,
    tableau_op,
    tableau_phi,
)
from crystalline.cli import (
    suite_dominance_lemma,
    suite_jt_character,
    suite_laurent_bridge,
    suite_psi_homomorphism,
    suite_residue_character,
    suite_tensor_decomp,
)
from crystalline.grothendieck import column_class
from crystalline.symfunc import (
    LaurentPoly,
    alternating_e_product,
    cap_e,
    cap_e_variant,
    elementary_laurent,
    elementary_variant,
    laurent_specialize,
    monomials_to_schur,
    pm_alphabet,
)
from crystalline.tableaux import alphabet
from crystalline.weights import pairing


class _gate:
    """Prints the verdict line whether or not the body raised."""

    def __init__(self, num: int, name: str):
        self.num = num
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.num:02d} {self.name}: {verdict}")
        return False


def _suite_args(**overrides) -> argparse.Namespace:
    base = dict(
        type=None,
        a="0..2",
        b="0..2",
        c="0..2",
        degree=8,
        rank=4,
        lam=2,
        ell=2,
        shape=None,
        shape_ell=None,
        max_vertices=1_000_000,
        max_degree=10,
        max_rank=6,
        seed=None,
        output=None,
    )
    base.update(overrides)
    return argparse.Namespace(**base)


def _assert_all_pass(instances):
    failures = [(name, detail) for name, ok, detail in instances if not ok]
    assert not failures, failures
    assert instances


def _shape_sweep(lie_type: str, n: int, budget: int) -> list[tuple[int, ...]]:
    out = []
    for m in range(budget + 1):
        for lam in partitions_of(m):
            if lam and (len(lam) > n or lam[0] > n):
                continue
            out.append(tuple(lam))
    if lie_type == "d":
        for m in range(2, budget + 1):
            for lam in partitions_of(m):
                if len(lam) == n and lam[0] <= n and lam[-1] >= 1:
                    out.append(tuple(lam[:-1]) + (-lam[-1],))
    return out


def test_01_letter_crystal_figures():
    with _gate(1, "letter-crystal-figures"):
        assert letter_graph_edges("b", 2) == (
            (-2, 1, -1), (-1, 0, 0), (0, 0, 1), (1, 1, 2),
        )
        assert letter_graph_edges("c", 2) == (
            (-2, 1, -1), (-1, 0, 1), (1, 1, 2),
        )
        assert letter_graph_edges("d", 2) == (
            (-2, 0, 1), (-2, 1, -1), (-1, 0, 2), (1, 1, 2),
        )
        assert letter_graph_edges("b", 3) == (
            (-3, 2, -2), (-2, 1, -1), (-1, 0, 0), (0, 0, 1), (1, 1, 2), (2, 2, 3),
        )
        assert letter_graph_edges("c", 3) == (
            (-3, 2, -2), (-2, 1, -1), (-1, 0, 1), (1, 1, 2), (2, 2, 3),
        )
        assert letter_graph_edges("d", 3) == (
            (-3, 2, -2), (-2, 0, 1), (-2, 1, -1), (-1, 0, 2), (1, 1, 2), (2, 2, 3),
        )
        for n in (2, 3):
            assert len(alphabet("b", n)) == 2 * n + 1
            assert len(alphabet("c", n)) == 2 * n
            assert len(alphabet("d", n)) == 2 * n


def test_02_crystal_axioms():
    with _gate(2, "crystal-axioms"):
        for lie in ("b", "c", "d"):
            for n in (1, 2, 3):
                if lie == "d" and n < 2:
                    continue
                for shape in _shape_sweep(lie, n, 4):
                    graph = build_graph(t_lambda(shape, lie, n))
                    assert graph.is_connected(), (lie, n, shape)
                    assert len(graph.sources()) == 1, (lie, n, shape)
                    everything = set(enumerate_kn(shape, lie, n))
                    assert {v.factors[0] for v in graph.vertices} == everything
                    for T in everything:
                        w = T.weight()
                        for i in range(n):
                            down = tableau_op(T, "f", i)
                            if down is not None:
                                assert tableau_op(down, "e", i) == T
                                assert down.weight() == w - simple_root(i, lie)
                            up = tableau_op(T, "e", i)
                            if up is not None:
                                assert tableau_op(up, "f", i) == T
                            diff = tableau_phi(T, i) - tableau_eps(T, i)
                            assert diff == pairing(w, i, lie), (lie, n, shape, i)


def test_03_character_oracle():
    with _gate(3, "character-oracle"):
        covered_signed = False
        for lie in ("b", "c", "d"):
            for n in (1, 2, 3):
                if lie == "d" and n < 2:
                    continue
                for shape in _shape_sweep(lie, n, 4):
                    ts = enumerate_kn(shape, lie, n)
                    got = LaurentPoly.from_weights(
                        n, [T.weight().window(n) for T in ts]
                    )
                    assert got == sigma_char(shape, lie, n), (lie, n, shape)
                    if shape == (1, -1):
                        covered_signed = True
        assert covered_signed


def test_04_spinor_residue_strata():
    with _gate(4, "spinor-residue-strata"):
        args = _suite_args(a="0..3", b="0..3", c="0..3", degree=8)
        _assert_all_pass(suite_residue_character(args))


def test_05_spinor_e_identities():
    with _gate(5, "spinor-e-identities"):
        D = 10

        def enumerated(pairs):
            total = {}
            for T in pairs:
                if T.size() <= D:
                    exp = T.entry_counts(D)
                    total[exp] = total.get(exp, 0) + 1
            poly = LaurentPoly(D, total) if total else LaurentPoly.zero(D)
            return monomials_to_schur(poly)

        def series_dict(s):
            return {lam: c for lam, c in s.coeffs.items() if sum(lam) <= D}

        for a in range(5):
            got = enumerated(enumerate_spinor_columns(a, "c", D))
            assert got == series_dict(cap_e(a, D) - cap_e(a + 2, D)), ("c", a)
            got = enumerated(enumerate_spinor_columns(a, "b", D))
            assert got == series_dict(cap_e(a, D) + cap_e(a + 1, D)), ("b", a)
        for a in range(1, 5):
            got = enumerated(enumerate_spinor_columns(a, "d", D))
            assert got == series_dict(cap_e(a, D)), ("d", a)
        plain = enumerated(enumerate_spinor_columns(0, "d", D))
        barred = enumerated(enumerate_spinor_columns_barred(D))
        keys = set(plain) | set(barred)
        total = {k: plain.get(k, 0) + barred.get(k, 0) for k in keys}
        diff = {k: plain.get(k, 0) - barred.get(k, 0) for k in keys}
        assert {k: v for k, v in total.items() if v} == series_dict(cap_e(0, D))
        assert {k: v for k, v in diff.items() if v} == series_dict(
            alternating_e_product(D)
        )


def test_06_alphabet_bridges():
    with _gate(6, "alphabet-bridges"):
        for n in (1, 2, 3, 4):
            cutoff = 2 * n + 2
            plain = pm_alphabet("d", n)
            odd = pm_alphabet("b", n)
            for r in range(-n, 3 * n + 1):
                e_side = elementary_laurent(n - r, plain, n)
                got = laurent_specialize(cap_e(r, cutoff).with_t_power(1), n)
                assert e_side == got, ("plain", n, r)
                e_side = elementary_variant(n - r, "prime", plain, n)
                got = laurent_specialize(
                    cap_e_variant(r, "prime", cutoff).with_t_power(1), n
                )
                assert e_side == got, ("prime", n, r)
                e_side = elementary_laurent(n - r, odd, n)
                got = laurent_specialize(
                    cap_e_variant(r, "second", cutoff).with_t_power(1), n
                )
                assert e_side == got, ("second", n, r)


def test_07_dominant_character_bridge():
    with _gate(7, "dominant-character-bridge"):
        args = _suite_args(rank=4, lam=2, ell=2)
        bridge = suite_laurent_bridge(args)
        _assert_all_pass(bridge)
        enumerated = suite_jt_character(args)
        _assert_all_pass(enumerated)
        # the sweep must include an even orthogonal shape taller than its level
        assert any("type d shape 1,1,1@2" in name for name, _, _ in bridge)
        assert any("type d shape 1,1,1@2" in name for name, _, _ in enumerated)


def test_08_weight_decomposition_example():
    with _gate(8, "weight-decomposition-example"):
        w = Weight((-2, -4, 1, -7, -5, 4, 0), -4)
        nu, nu0, nuplus = decompose_weight(w, "c")
        assert nu == Weight((0, -1, -2, -5, -7), -4)
        assert nu0 == Weight((0, 0, 0, -1, -3), 0)
        assert orbit_representative(nu0) == (3, 1)
        assert nuplus == Weight((0, -1, -2), -4)
        assert shape_of_weight(nuplus, "c") == DominantShape("c", (3, 3, 2, 1), 4)


def test_09_tensor_decomposition_tables():
    with _gate(9, "tensor-decomposition-tables"):
        args = _suite_args(a="0..2", b="0..2")
        _assert_all_pass(suite_tensor_decomp(args))
        _assert_all_pass(suite_psi_homomorphism(args))
        # the stated multiplicity-two component in the even orthogonal
        # product of the width-one level-one class by the height-two column
        product = groth_mul(row_class("d", 1), column_class("d", 2))
        label = make_label("d", (), DominantShape("d", (1,), 1))
        assert product.coefficient(label) == 2


def test_10_dominance_and_determinant():
    with _gate(10, "dominance-and-determinant"):
        _assert_all_pass(suite_dominance_lemma(_suite_args()))
        # the two-row symplectic determinant identity between ring elements
        H = lambda a: row_class("c", a)
        rhs = groth_mul(H(1), H(3) + H(1), 8) - groth_mul(H(2), H(2) + H(0), 8)
        want = make_label("c", (), DominantShape("c", (1, 1), 2))
        assert rhs.terms == {want: 1}


def test_11_littlewood_richardson_oracle():
    with _gate(11, "littlewood-richardson-oracle"):
        parts = [p for s in range(0, 6) for p in partitions_of(s)]
        for lam in parts:
            for mu in parts:
                table = lr_expand(lam, mu)
                top = sum(lam) + sum(mu)
                for nu in partitions_of(top):
                    assert table.get(nu, 0) == _brute_lr(lam, mu, nu), (lam, mu, nu)


def _brute_lr(lam, mu, nu) -> int:
    """Skew semistandard fillings of nu/lam with content mu whose
    right-to-left reading word is a lattice word, counted directly."""
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
