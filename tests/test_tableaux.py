"""Tableau engine tests: filling rules, enumeration against the determinant
characters, canonical fillings, and the spinor column pairs with residues."""

import itertools
from collections import Counter
from dataclasses import dataclass

import pytest

from crystalline import tableaux
from crystalline.symfunc import (
    LaurentPoly,
    laurent_specialize,
    monomials_to_schur,
    schur_poly,
    sigma_char,
    spinor_char,
    spinor_char_barred,
)
from crystalline.tableaux import (
    _barred_frame_grid,
    _column_tally,
    _follower_builder,
    _frame_grid,
    _frame_strata,
    _keep_state,
    _max_residue,
    _sst_pairs,
    KNTableau,
    SpinorColumnPair,
    alphabet,
    column_pair_ok,
    enumerate_kn,
    enumerate_spinor_columns,
    enumerate_spinor_columns_barred,
    enumerate_sst_pairs,
    kn_validate,
    kn_violations,
    leq,
    letter_ok,
    lt,
    n_admissible,
    normalize_shape,
    residue,
    row_pair_ok,
    t_lambda,
)
from crystalline.weights import (
    InvalidShapeError,
    ResourceCapError,
    Weight,
    conjugate,
    partitions_of,
)


# ---------------------------------------------------------------------------
# oracles and sweep helpers


def brute_residue(T: SpinorColumnPair) -> int:
    """Independent slide check on the explicit visual grid."""
    best = 0
    for k in range(0, min(T.a, T.b) + 1):
        ok = True
        for row in range(1, T.a + T.b + T.c + 1):
            has_left = T.b < row <= T.a + T.b + T.c
            has_right = k < row <= T.b + T.c + k
            if has_left and has_right:
                if T.left[row - T.b - 1] > T.right[row - k - 1]:
                    ok = False
                    break
        if ok:
            best = k
    return best


def all_columns(lie_type: str, n: int, h: int) -> list[tuple[int, ...]]:
    """Every column filling of height h whose adjacent cells are allowed."""
    letters = alphabet(lie_type, n)
    out = []

    def extend(col):
        if len(col) == h:
            out.append(tuple(col))
            return
        for x in letters:
            if not col or column_pair_ok(col[-1], x, lie_type):
                col.append(x)
                extend(col)
                col.pop()

    extend([])
    return out


def weight_poly(tableaux, n: int) -> LaurentPoly:
    return LaurentPoly.from_weights(n, [T.weight().window(n) for T in tableaux])


def sweep_shapes(n: int, lie_type: str, budget: int) -> list[tuple[int, ...]]:
    out = []
    for m in range(0, budget + 1):
        for lam in partitions_of(m):
            if lam and (len(lam) > n or lam[0] > n):
                continue
            out.append(tuple(lam))
    if lie_type == "d":
        for total in range(2, budget + 1):
            for lam in partitions_of(total):
                if len(lam) == n and lam[0] <= n and lam[-1] >= 1:
                    out.append(tuple(lam[:-1]) + (-lam[-1],))
    return out


def signed_shapes(n: int, budget: int) -> list[tuple[int, ...]]:
    return [s for s in sweep_shapes(n, "d", budget) if s and s[-1] < 0]


def from_columns(shape, columns, lie_type, n) -> KNTableau:
    widths = [abs(x) for x in shape]
    rows = tuple(
        tuple(columns[j][i] for j in range(width)) for i, width in enumerate(widths)
    )
    return KNTableau(tuple(shape), rows, lie_type, n)


# ---------------------------------------------------------------------------
# letters, order, admissibility


def test_alphabet():
    assert alphabet("c", 2) == (-2, -1, 1, 2)
    assert alphabet("b", 2) == (-2, -1, 0, 1, 2)
    assert alphabet("d", 3) == (-3, -2, -1, 1, 2, 3)
    with pytest.raises(ValueError):
        alphabet("c", 0)


def test_letter_order():
    assert lt(-2, -1, "c") and lt(-1, 1, "c") and lt(1, 2, "c")
    assert lt(-1, 0, "b") and lt(0, 1, "b")
    # the even orthogonal letters 1 and -1 are incomparable
    assert not lt(-1, 1, "d") and not lt(1, -1, "d")
    assert not leq(-1, 1, "d") and not leq(1, -1, "d")
    assert leq(1, 1, "d") and lt(-2, 1, "d") and lt(-1, 2, "d")
    assert not letter_ok(0, "c", 2) and not letter_ok(0, "d", 2)
    assert letter_ok(0, "b", 2) and not letter_ok(3, "b", 2)


def test_row_and_column_rules():
    # zero may not repeat in a row but may repeat in a column
    assert not row_pair_ok(0, 0, "b")
    assert column_pair_ok(0, 0, "b")
    assert row_pair_ok(0, 1, "b") and row_pair_ok(-1, 0, "b")
    # columns are strict elsewhere
    assert not column_pair_ok(1, 1, "c")
    assert not column_pair_ok(2, 1, "c")
    assert column_pair_ok(-1, 1, "c")
    # the incomparable pair alternates in even orthogonal columns
    assert column_pair_ok(1, -1, "d") and column_pair_ok(-1, 1, "d")
    assert not column_pair_ok(1, 1, "d") and not column_pair_ok(-1, -1, "d")
    # and never shares a row
    assert not row_pair_ok(1, -1, "d") and not row_pair_ok(-1, 1, "d")


def test_n_admissible_examples():
    assert not n_admissible((-2, -1, 1, 2), 3, "c")  # four letters of size >= 1
    assert n_admissible((), 5, "b")
    assert n_admissible((-1, 1), 2, "c")
    assert not n_admissible((-2, 2), 2, "d")  # two letters of size >= 2
    assert not n_admissible((0, 0, 0), 2, "b")  # height above the rank
    assert n_admissible((0, 0), 2, "b")
    with pytest.raises(ValueError):
        n_admissible((4,), 3, "c")
    with pytest.raises(ValueError):
        n_admissible((0,), 3, "d")


def test_admissibility_is_rank_monotone():
    for lie_type in ("b", "c", "d"):
        for h in range(0, 5):
            for col in all_columns(lie_type, 4, h):
                if n_admissible(col, 4, lie_type):
                    for bigger in (5, 6, 7, 8):
                        assert n_admissible(col, bigger, lie_type)


# ---------------------------------------------------------------------------
# shapes, construction, serialization


def test_normalize_shape():
    assert normalize_shape((3, 2, 0, 0), "c", 3) == (3, 2)
    assert normalize_shape((2, 1, -1), "d", 3) == (2, 1, -1)
    with pytest.raises(InvalidShapeError):
        normalize_shape((1, 1, 1), "c", 2)  # too tall
    with pytest.raises(InvalidShapeError):
        normalize_shape((2, -1), "b", 2)  # signed shape outside type d
    with pytest.raises(InvalidShapeError):
        normalize_shape((2, -1), "d", 3)  # signed shape must fill the rank
    with pytest.raises(InvalidShapeError):
        normalize_shape((1, 1, -2), "d", 3)  # last row wider than the body
    with pytest.raises(InvalidShapeError):
        normalize_shape((2, 1, 2), "c", 3)  # not decreasing


def test_tableau_construction_checks():
    with pytest.raises(ValueError):
        KNTableau((2, 1), ((1, 1),), "c", 2)  # rows do not fill the shape
    with pytest.raises(ValueError):
        KNTableau((1,), ((3,),), "c", 2)  # letter outside the alphabet
    T = KNTableau((2, 1), ((1, 1), (2,)), "c", 2)
    assert T.columns() == ((1, 2), (1,))
    assert T.cell(2, 1) == 2
    assert T.size() == 3
    assert T.weight() == Weight((2, 1), 0)


def test_json_round_trip():
    T = t_lambda((4, 3, 1, -1), "d", 4)
    data = T.to_json()
    assert data == {
        "type": "D",
        "rank": 4,
        "shape": [4, 3, 1, -1],
        "rows": [["-4", "1", "1", "1"], ["1", "2", "2"], ["2"], ["3*"]],
    }
    assert KNTableau.from_json(data) == T
    U = t_lambda((2, 2), "b", 3)
    assert KNTableau.from_json(U.to_json()) == U


# ---------------------------------------------------------------------------
# canonical fillings


def test_t_lambda_examples():
    T = t_lambda((4, 3, 1, -1), "d", 4)
    assert T.rows == ((-4, 1, 1, 1), (1, 2, 2), (2,), (3,))
    assert kn_validate(T)
    assert T.weight() == Weight((4, 3, 1, -1), 0)

    for lie_type in ("b", "c", "d"):
        U = t_lambda((2, 1), lie_type, 3)
        assert U.rows == ((1, 1), (2,))
    assert t_lambda((1, 1, 1), "c", 3).columns() == ((1, 2, 3),)
    assert t_lambda((1, 1, -1), "d", 3).columns() == ((-3, 1, 2),)
    with pytest.raises(InvalidShapeError):
        t_lambda((1, 1, 1), "c", 2)


def test_t_lambda_sweep():
    for lie_type in ("b", "c", "d"):
        for n in range(1, 5):
            if lie_type == "d" and n < 2:
                continue
            shapes = [
                lam
                for m in range(0, 7)
                for lam in partitions_of(m)
                if len(lam) <= n
            ]
            if lie_type == "d":
                shapes += [
                    s
                    for s in signed_shapes(n, 6)
                    if True
                ]
            for shape in shapes:
                T = t_lambda(shape, lie_type, n)
                assert kn_validate(T), (lie_type, n, shape, kn_violations(T))
                assert T.weight() == Weight(tuple(shape), 0)


# ---------------------------------------------------------------------------
# frozen enumeration anchors


def test_single_column_anchors():
    assert {t.rows for t in enumerate_kn((1,), "c", 2)} == {
        ((-2,),),
        ((-1,),),
        ((1,),),
        ((2,),),
    }
    assert {t.rows[0][0] for t in enumerate_kn((1,), "b", 2)} == {-2, -1, 0, 1, 2}
    assert len(enumerate_kn((1, 1), "c", 2)) == 5
    assert len(enumerate_kn((1, 1), "b", 2)) == 10
    # the zero column of height two is allowed
    assert ((0,), (0,)) in {t.rows for t in enumerate_kn((1, 1), "b", 2)}


def test_even_orthogonal_column_anchors():
    assert {t.columns()[0] for t in enumerate_kn((1, 1), "d", 2)} == {
        (-2, -1),
        (1, -1),
        (1, 2),
    }
    assert {t.columns()[0] for t in enumerate_kn((1, -1), "d", 2)} == {
        (-2, 1),
        (-1, 1),
        (-1, 2),
    }
    assert {t.columns()[0] for t in enumerate_kn((1, 1, 1), "d", 3)} == {
        (-3, -2, 1),
        (-3, -1, 1),
        (-3, -1, 2),
        (-2, -1, 1),
        (-2, -1, 2),
        (-2, -1, 3),
        (1, -1, 1),
        (1, -1, 2),
        (1, -1, 3),
        (1, 2, 3),
    }


def test_full_height_columns_split_between_the_two_shapes():
    for n in (2, 3):
        plain = {t.columns()[0] for t in enumerate_kn((1,) * n, "d", n)}
        signed = {
            t.columns()[0] for t in enumerate_kn((1,) * (n - 1) + (-1,), "d", n)
        }
        admissible = {
            col
            for col in all_columns("d", n, n)
            if n_admissible(col, n, "d")
        }
        assert plain | signed == admissible
        assert not plain & signed


def test_two_column_symplectic_anchor():
    ts = enumerate_kn((2, 2), "c", 2)
    rows = {t.rows for t in ts}
    assert len(ts) == 14
    # the unique filling excluded by the bracket-pair rule
    assert ((-1, -1), (1, 1)) not in rows
    # both other zero-weight fillings survive
    assert ((-2, 1), (-1, 2)) in rows
    assert ((-2, -1), (1, 2)) in rows
    assert weight_poly(ts, 2) == sigma_char((2, 2), "c", 2)


def test_two_column_even_orthogonal_anchor():
    ts = enumerate_kn((2, 2), "d", 2)
    assert {t.rows for t in ts} == {
        ((-2, -2), (-1, -1)),
        ((-2, 1), (-1, -1)),
        ((-2, 1), (-1, 2)),
        ((1, 1), (-1, 2)),
        ((1, 1), (2, 2)),
    }
    assert weight_poly(ts, 2) == sigma_char((2, 2), "d", 2)


def test_empty_shape():
    for lie_type, n in (("b", 1), ("c", 2), ("d", 2)):
        ts = enumerate_kn((), lie_type, n)
        assert len(ts) == 1 and ts[0].rows == ()
        assert kn_validate(ts[0])
        assert ts[0].weight() == Weight((), 0)


def test_enumeration_cap():
    # (1,) has five fillings in type b at rank 2: the listing and the tally
    # take a cap of 5 and stop past 3 with the same text
    for count in (enumerate_kn, _column_tally):
        assert sum(Counter(count((1,), "b", 2, 5)).values()) == 5
        with pytest.raises(
            ResourceCapError, match=r"^more than 3 fillings of shape \(1,\) at rank 2$"
        ):
            count((1,), "b", 2, 3)


def test_enumeration_walks_shapes_wider_than_the_recursion_limit():
    # one column per box: x barred 1s then 1s, for x = 0..1500
    assert len(enumerate_kn((1500,), "c", 1)) == 1501


def tally_shapes(n: int, lie_type: str, budget: int) -> list[tuple[int, ...]]:
    """Every shape of at most ``budget`` boxes at rank n, the empty one and
    the full-height ones included, and in type d each full-height shape's
    signed twin."""
    out = []
    for m in range(budget + 1):
        for lam in partitions_of(m):
            if len(lam) <= n:
                out.append(tuple(lam))
                if lie_type == "d" and len(lam) == n:
                    out.append(tuple(lam[:-1]) + (-lam[-1],))
    return out


def test_column_tally_matches_the_listing():
    # the tally counts the fillings that enumerate_kn lists, window by window
    cases = [
        (shape, lie_type, n)
        for lie_type in ("b", "c", "d")
        for n in (1, 2, 3, 4)
        for shape in tally_shapes(n, lie_type, 5)
    ]
    cases += [
        ((2, 2, 1, 1), "c", 5),
        ((2, 2, 1, 1, 1), "b", 5),
        ((2, 2, 2, 1), "d", 5),
        ((2, 2, 1, 1, -1), "d", 5),
    ]
    for shape, lie_type, n in cases:
        signed = normalize_shape(shape, lie_type, n)
        listed = Counter(T.weight().window(n) for T in enumerate_kn(signed, lie_type, n))
        tally = _column_tally(signed, lie_type, n, tableaux.DEFAULT_MAX_VERTICES)
        assert tally == listed, (lie_type, n, shape)


def test_every_column_has_a_left_neighbour():
    # the tally holds each layer's partial fillings to the cap, which is the
    # listing's cap only if every partial filling extends to the left: every
    # valid column has a compatible left neighbour of each height >= its own
    for n in (1, 2, 3, 4):
        for lie_type in ("b", "c", "d"):
            shapes = [(1,) * n, (1,) * (n - 1)]
            if lie_type == "d":
                shapes.append((1,) * (n - 1) + (-1,))
            for signed in filter(None, shapes):
                options = _follower_builder(signed, lie_type, n, _keep_state)
                for h in range(1, n + 1):
                    for right, _ in options(h, (), ()):
                        for left_h in range(h, n + 1):
                            assert options(left_h, right, ()), (lie_type, signed, right, left_h)


# ---------------------------------------------------------------------------
# the determinant-character sweep (the adjudicating oracle)


def test_character_sweep_matches_determinants():
    for lie_type in ("b", "c", "d"):
        for n in (1, 2, 3):
            if lie_type == "d" and n < 2:
                continue
            for shape in sweep_shapes(n, lie_type, 4):
                ts = enumerate_kn(shape, lie_type, n)
                assert weight_poly(ts, n) == sigma_char(shape, lie_type, n), (
                    lie_type,
                    n,
                    shape,
                )


def test_character_extras_full_height_and_wide():
    # these shapes are exactly the ones that distinguish the rejected
    # readings of the two-column rules
    for shape, lie_type, n in [
        ((2, 2, 2, 2), "c", 4),
        ((2, 2, 2), "b", 3),
        ((2, 2, 2), "d", 3),
        ((3, 3, -3), "d", 3),
    ]:
        ts = enumerate_kn(shape, lie_type, n)
        assert weight_poly(ts, n) == sigma_char(shape, lie_type, n), (lie_type, shape)


def test_rank_monotone_inclusion():
    for lie_type in ("b", "c", "d"):
        for n in (2, 3):
            for m in range(0, 4):
                for lam in partitions_of(m):
                    if len(lam) > n or (lam and lam[0] > n):
                        continue
                    small = {t.rows for t in enumerate_kn(lam, lie_type, n)}
                    large = {t.rows for t in enumerate_kn(lam, lie_type, n + 1)}
                    assert small <= large, (lie_type, n, lam)


# ---------------------------------------------------------------------------
# the paper's reading of the filling rules and the rejected ones


@dataclass(frozen=True)
class Reading:
    """One reading of the three filling rules whose wording admits more
    than one: the library implements only the paper's (``PAPER``); the
    others live here, so that the tests can show where each one fails.

    pair_scope
        Where the witness pair (barred b above unbarred b) of the
        bracket-pair rule may live.  ``"same"`` requires one column, the
        left or the right one.  ``"mixed"`` also admits pairs straddling
        the two columns; a straddling pair never reuses both bracket cells.
    sign_span
        Which row span carries the parity of the sign-span rule.  With p/s
        the rows of the bracket (barred a left, unbarred a right) and q < r
        the rows of the right-column and left-column sign cells, the span is
        r-q+1 for ``"qr"``, s-q+1 for ``"qs"`` and r-p+1 for ``"pr"``.
    full_parity
        How the row parity of 1 and -1 in full-height columns is anchored:
        at the top row (``"row"``) or at the bottom row (``"depth"``).
    """

    pair_scope: str = "same"
    sign_span: str = "qr"
    full_parity: str = "row"


PAPER = Reading()

# The paper's reading and each alternative value.
ALL_READINGS = (
    PAPER,
    Reading(pair_scope="mixed"),
    Reading(sign_span="qs"),
    Reading(sign_span="pr"),
    Reading(full_parity="depth"),
)


def ref_parity_ok(x, k, n, sign, mode):
    """Whether 1 or -1 may sit at row k of a full-height column."""
    if mode == "row":
        return (k % 2 == 1) == ((x == 1) == (sign > 0))
    return ((n - k) % 2 == 0) == ((x == -1) == (sign > 0))


def ref_kn_ok(T, reading=PAPER):
    """Brute-force verdict on the filling rules of T under a reading, from
    the scanning reference generators below."""
    lie_type, n = T.lie_type, T.rank
    cols = T.columns()
    if not all(
        row_pair_ok(x, y, lie_type) for row in T.rows for x, y in zip(row, row[1:])
    ):
        return False
    for col in cols:
        if not ref_n_admissible(col, n, lie_type) or not all(
            column_pair_ok(x, y, lie_type) for x, y in zip(col, col[1:])
        ):
            return False
    if lie_type == "d" and len(T.shape) == n and T.shape:
        sign = 1 if T.shape[-1] > 0 else -1
        if not all(
            ref_parity_ok(x, k, n, sign, reading.full_parity)
            for col in cols
            if len(col) == n
            for k, x in enumerate(col, start=1)
            if abs(x) == 1
        ):
            return False
    for left, right in zip(cols, cols[1:]):
        hits = [ref_pair_hits(left, right, lie_type, n, reading)]
        if lie_type in ("b", "d"):
            hits.append(ref_band_hits(left, right, lie_type, n))
            hits.append(ref_overlap_hits(left, right, lie_type))
        if lie_type == "d":
            hits.append(ref_span_hits(left, right, n, reading))
        if any(next(h, None) for h in hits):
            return False
    return True


def ref_fillings(shape, lie_type, n, reading=PAPER):
    """The fillings of the shape that pass ref_kn_ok, filtered from every
    product of ordered columns."""
    heights = conjugate(tuple(abs(x) for x in shape))
    cands = [all_columns(lie_type, n, h) for h in heights]
    fillings = (
        from_columns(shape, columns, lie_type, n)
        for columns in itertools.product(*cands)
    )
    return [T for T in fillings if ref_kn_ok(T, reading)]


def ref_reading_report(T, reading):
    """The bracket-pair and sign-span witnesses of T under a reading, in
    the clause and detail format of kn_violations."""
    out = []
    cols = T.columns()
    for j, (left, right) in enumerate(zip(cols, cols[1:]), start=1):
        where = f"columns {j},{j + 1}"
        for a, p, s, b, q, r in ref_pair_hits(left, right, T.lie_type, T.rank, reading):
            out.append((
                "bracket-pair-distance",
                f"{where}: bracket {-a}@{p}..{a}@{s} with pair {-b}@{q},{b}@{r} "
                f"has gap {(q - p) + (s - r)} >= {a - b}",
            ))
        if T.lie_type == "d":
            for a, p, s, q, r, span in ref_span_hits(left, right, T.rank, reading):
                out.append((
                    "sign-span-parity",
                    f"{where}: bracket {-a}@{p}..{a}@{s} with signs "
                    f"{right[q - 1]}@{q} right, {left[r - 1]}@{r} left has span "
                    f"{span} and width {s - p} >= {a - 1}",
                ))
    return out


# ---------------------------------------------------------------------------
# violation reports and the rejected readings


def test_bracket_pair_violation():
    T = KNTableau((2, 2), ((-1, -1), (1, 1)), "c", 2)
    assert {v.clause for v in kn_violations(T)} == {"bracket-pair-distance"}


def test_zero_band_violation():
    T = KNTableau((2, 2, 2), ((-2, 0), (0, 1), (1, 2)), "b", 3)
    assert {v.clause for v in kn_violations(T)} == {"zero-band-distance"}


def test_zero_overlap_violation():
    T = KNTableau((2, 2), ((-1, 0), (0, 1)), "b", 2)
    assert {v.clause for v in kn_violations(T)} == {"zero-overlap"}


def test_sign_overlap_violation():
    T = KNTableau((2, 2), ((1, 1), (-1, -1)), "d", 2)
    assert {v.clause for v in kn_violations(T)} == {"sign-overlap"}


def test_sign_band_violation():
    # bracket from -2 at row one to 2 at row three around alternating cells
    T = KNTableau((2, 2, 2), ((-2, -1), (1, 1), (-1, 2)), "d", 4)
    assert {v.clause for v in kn_violations(T)} == {"sign-band-distance"}


def test_sign_span_violation():
    T = KNTableau((2, 2, 2), ((-2, 1), (1, 2), (2, 3)), "d", 4)
    assert {v.clause for v in kn_violations(T)} == {"sign-span-parity"}


def test_full_column_parity_violation():
    T = KNTableau((1, 1), ((-1,), (1,)), "d", 2)
    assert {v.clause for v in kn_violations(T)} == {"full-column-parity"}
    U = KNTableau((1, 1), ((1,), (-1,)), "d", 2)
    assert kn_validate(U)


def test_order_and_admissibility_violations():
    T = KNTableau((1, 1), ((2,), (1,)), "c", 2)
    assert {v.clause for v in kn_violations(T)} == {"column-order"}
    U = KNTableau((2,), ((2, 1),), "c", 2)
    assert {v.clause for v in kn_violations(U)} == {"row-order"}
    V = KNTableau((1, 1), ((-2,), (2,)), "d", 2)
    assert "column-admissibility" in {v.clause for v in kn_violations(V)}
    W = KNTableau((2,), ((0, 0),), "b", 2)
    assert {v.clause for v in kn_violations(W)} == {"row-order"}


# The fixtures of the violation tests above, each with its exact report:
# the messages are part of the interface, so the indexed two-column rules
# must keep them byte for byte.  The two rows before the last are witnesses
# that the paper's reading accepts and a rejected reading reports; the last
# row breaks several clauses and pins the report order: per column, left to
# right (order, admissibility, full-column parity), then per adjacent column
# pair (row order on the shared rows, then the two-column rules).
VIOLATION_STRINGS = [
    (((2, 2), ((-1, -1), (1, 1)), "c", 2), PAPER, [
        ("bracket-pair-distance",
         "columns 1,2: bracket -1@1..1@2 with pair -1@1,1@2 has gap 0 >= 0"),
        ("bracket-pair-distance",
         "columns 1,2: bracket -1@1..1@2 with pair -1@1,1@2 has gap 0 >= 0"),
    ]),
    (((2, 2, 2), ((-2, 0), (0, 1), (1, 2)), "b", 3), PAPER, [
        ("zero-band-distance", "columns 1,2: bracket -2@1..2@3 spans the band "
         "cells at rows 2,3 with gap 1 >= 1"),
        ("zero-band-distance", "columns 1,2: bracket -2@1..2@3 spans the band "
         "cells at rows 1,2 with gap 1 >= 1"),
    ]),
    (((2, 2), ((-1, 0), (0, 1)), "b", 2), PAPER, [
        ("zero-overlap", "columns 1,2: -1@1 left sits above 1@2 right"),
    ]),
    (((2, 2), ((1, 1), (-1, -1)), "d", 2), PAPER, [
        ("sign-overlap", "columns 1,2: 1@1 left sits above -1@2 right"),
    ]),
    (((2, 2, 2), ((-2, -1), (1, 1), (-1, 2)), "d", 4), PAPER, [
        ("sign-band-distance", "columns 1,2: bracket -2@1..2@3 spans the band "
         "cells at rows 2,3 with gap 1 >= 1"),
        ("sign-band-distance", "columns 1,2: bracket -2@1..2@3 spans the band "
         "cells at rows 1,2 with gap 1 >= 1"),
    ]),
    (((2, 2, 2), ((-2, 1), (1, 2), (2, 3)), "d", 4), PAPER, [
        ("sign-span-parity", "columns 1,2: bracket -2@1..2@2 with signs 1@1 "
         "right, 1@2 left has span 2 and width 1 >= 1"),
    ]),
    (((1, 1), ((-1,), (1,)), "d", 2), PAPER, [
        ("full-column-parity",
         "column 1: -1 at row 1 of a full column (last row count 1)"),
        ("full-column-parity",
         "column 1: 1 at row 2 of a full column (last row count 1)"),
    ]),
    (((1, 1), ((2,), (1,)), "c", 2), PAPER, [
        ("column-order", "column 1: 2 may not sit above 1"),
    ]),
    (((2,), ((2, 1),), "c", 2), PAPER, [
        ("row-order", "row 1: 2 may not precede 1"),
    ]),
    (((1, 1), ((-2,), (2,)), "d", 2), PAPER, [
        ("column-admissibility", "column 1: (-2, 2) at rank 2"),
    ]),
    (((2,), ((0, 0),), "b", 2), PAPER, [
        ("row-order", "row 1: 0 may not precede 0"),
    ]),
    (((2, 2, 2), ((-3, 1), (-1, -1), (1, 3)), "d", 3), Reading(sign_span="qs"), [
        ("sign-span-parity", "columns 1,2: bracket -3@1..3@3 with signs 1@1 "
         "right, -1@2 left has span 3 and width 2 >= 2"),
    ]),
    (((2, 2, 2, 2), ((-4, -1), (-2, 1), (-1, 2), (1, 4)), "c", 4),
     Reading(pair_scope="mixed"), [
        ("bracket-pair-distance",
         "columns 1,2: bracket -4@1..4@4 with pair -2@2,2@3 has gap 2 >= 2"),
    ]),
    (((3, 3), ((1, 1, -2), (-1, 1, -2)), "d", 2), PAPER, [
        ("column-order", "column 2: 1 may not sit above 1"),
        ("full-column-parity",
         "column 2: 1 at row 2 of a full column (last row count 3)"),
        ("column-order", "column 3: -2 may not sit above -2"),
        ("column-admissibility", "column 3: (-2, -2) at rank 2"),
        ("row-order", "row 2: -1 may not precede 1"),
        ("sign-overlap", "columns 1,2: 1@1 left sits above 1@2 right"),
        ("row-order", "row 1: 1 may not precede -2"),
        ("row-order", "row 2: 1 may not precede -2"),
    ]),
]


@pytest.mark.parametrize("args, config, expected", VIOLATION_STRINGS)
def test_violation_strings_are_unchanged(args, config, expected):
    T = KNTableau(*args)
    if config == PAPER:
        assert [(v.clause, v.detail) for v in kn_violations(T)] == expected
    else:
        assert kn_violations(T) == () and kn_validate(T)
        assert ref_reading_report(T, config) == expected


def test_sign_span_reading_is_adjudicated_by_characters():
    # the literal bottom-anchored span over-kills; the pairwise span matches
    literal = Reading(sign_span="qs")
    paper_set = {t.rows for t in ref_fillings((2, 2, 2), "d", 3)}
    literal_set = {t.rows for t in ref_fillings((2, 2, 2), "d", 3, literal)}
    assert len(paper_set) == 35 == sigma_char((2, 2, 2), "d", 3).at_ones()
    assert paper_set == {t.rows for t in enumerate_kn((2, 2, 2), "d", 3)}
    assert len(literal_set) == 31
    assert literal_set < paper_set
    witness = ((-3, 1), (-1, -1), (1, 3))
    T = KNTableau((2, 2, 2), witness, "d", 3)
    assert kn_validate(T) and not ref_kn_ok(T, literal)
    assert {clause for clause, _ in ref_reading_report(T, literal)} == {
        "sign-span-parity"
    }


def test_pair_scope_reading_is_adjudicated_by_characters():
    mixed = Reading(pair_scope="mixed")
    paper_set = {t.rows for t in ref_fillings((2, 2, 2, 2), "c", 4)}
    assert len(paper_set) == 594 == sigma_char((2, 2, 2, 2), "c", 4).at_ones()
    assert paper_set == {t.rows for t in enumerate_kn((2, 2, 2, 2), "c", 4)}
    assert len(ref_fillings((2, 2, 2, 2), "c", 4, mixed)) == 544
    T = KNTableau(
        (2, 2, 2, 2), ((-4, -1), (-2, 1), (-1, 2), (1, 4)), "c", 4
    )
    assert kn_validate(T) and not ref_kn_ok(T, mixed)
    assert {clause for clause, _ in ref_reading_report(T, mixed)} == {
        "bracket-pair-distance"
    }


def test_full_parity_reading_swaps_families_at_odd_rank():
    depth = Reading(full_parity="depth")
    ts = ref_fillings((1, 1, 1), "d", 3, depth)
    # same count, but the weights belong to the signed twin shape
    assert len(ts) == 10
    assert weight_poly(ts, 3) == sigma_char((1, 1, -1), "d", 3)
    assert weight_poly(ref_fillings((1, 1, 1), "d", 3), 3) == sigma_char(
        (1, 1, 1), "d", 3
    )
    # at even rank the two readings agree
    assert {t.rows for t in ref_fillings((1, 1), "d", 2, depth)} == {
        t.rows for t in enumerate_kn((1, 1), "d", 2)
    }


def check_shapes(lie_type: str, n: int) -> list[tuple[int, ...]]:
    """Small shapes whose column products are checked in full; they include
    the shapes on which each rejected reading changes a verdict."""
    shapes = {
        2: [(2,), (1, 1), (2, 1), (2, 2), (3, 1)],
        3: [(2, 1), (2, 2), (1, 1, 1), (2, 1, 1), (2, 2, 2)],
        4: [(2, 1), (1, 1, 1, 1), (2, 1, 1)],
    }[n]
    if lie_type == "d":
        shapes += {
            2: [(1, -1), (2, -1), (2, -2)],
            3: [(1, 1, -1), (2, 1, -1)],
            4: [(1, 1, 1, -1)],
        }[n]
    if (lie_type, n) == ("c", 4):
        shapes.append((2, 2, 2, 2))
    return shapes


def test_boolean_check_matches_violation_reports():
    # every column-product candidate, rejected ones included: at rank 2 the
    # columns are all letter strings, so column-order failures occur too
    differs = set()
    for lie_type in ("b", "c", "d"):
        for n in (2, 3, 4):
            for shape in check_shapes(lie_type, n):
                heights = conjugate(tuple(abs(x) for x in shape))
                if n == 2:
                    cands = [
                        list(itertools.product(alphabet(lie_type, n), repeat=h))
                        for h in heights
                    ]
                else:
                    cands = [all_columns(lie_type, n, h) for h in heights]
                accepted = set()
                for columns in itertools.product(*cands):
                    T = from_columns(shape, columns, lie_type, n)
                    ok = not kn_violations(T)
                    assert kn_validate(T) == ok, T
                    assert ref_kn_ok(T) == ok, T
                    if ok:
                        accepted.add(T.rows)
                    for reading in ALL_READINGS[1:]:
                        if reading not in differs and ref_kn_ok(T, reading) != ok:
                            differs.add(reading)
                enumerated = {t.rows for t in enumerate_kn(shape, lie_type, n)}
                assert enumerated == accepted, (lie_type, n, shape)
    # each rejected reading changes a verdict on these shapes
    assert differs == set(ALL_READINGS[1:])


# ---------------------------------------------------------------------------
# reference definitions of the fast paths: per-z admissibility counts and
# two-column witness generators that scan a column for every letter


def ref_n_admissible(column, n, lie_type):
    for x in column:
        if not letter_ok(x, lie_type, n):
            raise ValueError(f"letter {x} outside the rank-{n} alphabet")
    if len(column) > n:
        return False
    for z in range(1, n + 1):
        if sum(1 for x in column if abs(x) >= z) > n - z + 1:
            return False
    return True


def ref_rows_of(column, letter):
    return [i for i, x in enumerate(column, start=1) if x == letter]


def ref_bracket_pairs(left, right, a):
    for p in ref_rows_of(left, -a):
        for s in ref_rows_of(right, a):
            yield p, s


def ref_pair_hits(left, right, lie_type, n, reading=PAPER):
    b_lo = 1 if lie_type == "c" else 2
    for a in range(b_lo, n + 1):
        for p, s in ref_bracket_pairs(left, right, a):
            for b in range(b_lo, a + 1):
                witnesses = []
                for col in (left, right):
                    for q in ref_rows_of(col, -b):
                        for r in ref_rows_of(col, b):
                            witnesses.append((q, r))
                if reading.pair_scope == "mixed":
                    # straddling pairs, left to right and then right to left;
                    # only the first can be the bracket itself
                    straddles = ((left, right), (right, left))
                    for first, (colq, colr) in enumerate(straddles):
                        for q in ref_rows_of(colq, -b):
                            for r in ref_rows_of(colr, b):
                                if first == 0 and b == a and (q, r) == (p, s):
                                    continue
                                witnesses.append((q, r))
                for q, r in witnesses:
                    if p <= q < r <= s and (q - p) + (s - r) >= a - b:
                        yield a, p, s, b, q, r


def ref_band_hits(left, right, lie_type, n):
    band = {-1, 0, 1} if lie_type == "b" else {-1, 1}
    for a in range(2, n + 1):
        for p, s in ref_bracket_pairs(left, right, a):
            if p >= s:
                continue
            for col in (left, right):
                for q in range(p, s):
                    r = q + 1
                    if r > len(col):
                        continue
                    cq, cr = col[q - 1], col[r - 1]
                    if cq in band and cr in band and (lie_type == "b" or cq != cr):
                        if (q - p) + (s - r) >= a - 1:
                            yield a, p, s, q, r


def ref_overlap_hits(left, right, lie_type):
    if lie_type == "b":
        upper, lower = {-1, 0}, {0, 1}
    else:
        upper, lower = {-1, 1}, {-1, 1}
    for p, x in enumerate(left, start=1):
        for q, y in enumerate(right, start=1):
            if q > p and x in upper and y in lower:
                yield p, q


def ref_span_hits(left, right, n, reading=PAPER):
    for a in range(2, n + 1):
        for p, s in ref_bracket_pairs(left, right, a):
            if p >= s:
                continue
            for q in range(p, s + 1):
                if q > len(right) or abs(right[q - 1]) != 1:
                    continue
                for r in range(q + 1, s + 1):
                    if r > len(left) or abs(left[r - 1]) != 1:
                        continue
                    same = right[q - 1] == left[r - 1]
                    span = {"qs": s - q + 1, "qr": r - q + 1, "pr": r - p + 1}[
                        reading.sign_span
                    ]
                    if (span % 2 == 0) == same and s - p >= a - 1:
                        yield a, p, s, q, r, span


def letter_strings(lie_type, n, h):
    return list(itertools.product(alphabet(lie_type, n), repeat=h))


def test_one_pass_admissibility_matches_per_z_counts():
    verdicts = set()
    for lie_type in ("b", "c", "d"):
        for n in (1, 2, 3, 4):
            for h in range(n + 2):
                # every letter string up to rank 3, every ordered column at 4
                if n <= 3:
                    columns = letter_strings(lie_type, n, h)
                else:
                    columns = all_columns(lie_type, n, h)
                for col in columns:
                    ok = n_admissible(col, n, lie_type)
                    assert ok == ref_n_admissible(col, n, lie_type), (lie_type, n, col)
                    verdicts.add(ok)
            bad = (0,) if lie_type != "b" else (n + 1,)
            for col in (bad, (1,) + bad, (-n - 1, 1)):
                with pytest.raises(ValueError, match="outside the rank"):
                    n_admissible(col, n, lie_type)
                with pytest.raises(ValueError, match="outside the rank"):
                    ref_n_admissible(col, n, lie_type)
    assert verdicts == {True, False}


def adjacent_column_pairs(lie_type, n):
    """Every (left, right) column pair of the adjacent heights in the shapes
    of check_shapes: every letter string at rank 2, so that letters repeat
    inside a column, and every ordered column at ranks 3 and 4."""
    heights = set()
    for shape in check_shapes(lie_type, n):
        h = conjugate(tuple(abs(x) for x in shape))
        heights.update(zip(h, h[1:]))
    fill = letter_strings if n == 2 else all_columns
    columns = {h: fill(lie_type, n, h) for pair in heights for h in pair}
    for hl, hr in sorted(heights):
        for left in columns[hl]:
            for right in columns[hr]:
                yield left, right


def ref_pair_report(left, right, lie_type, n):
    """The reference witnesses of a column pair at j = 1, clause by clause in
    report order, formatted like the library's details."""
    brackets = "columns 1,2: bracket {}@{}..{}@{}".format
    report = {"row-order": [
        f"row {i}: {x} may not precede {y}"
        for i, (x, y) in enumerate(zip(left, right), start=1)
        if not row_pair_ok(x, y, lie_type)
    ]}
    report["bracket-pair-distance"] = [
        f"{brackets(-a, p, a, s)} with pair {-b}@{q},{b}@{r} has gap "
        f"{(q - p) + (s - r)} >= {a - b}"
        for a, p, s, b, q, r in ref_pair_hits(left, right, lie_type, n)
    ]
    if lie_type == "c":
        return report
    kind = "zero" if lie_type == "b" else "sign"
    report[f"{kind}-band-distance"] = [
        f"{brackets(-a, p, a, s)} spans the band cells at rows {q},{r} with gap "
        f"{(q - p) + (s - r)} >= {a - 1}"
        for a, p, s, q, r in ref_band_hits(left, right, lie_type, n)
    ]
    report[f"{kind}-overlap"] = [
        f"columns 1,2: {left[p - 1]}@{p} left sits above {right[q - 1]}@{q} right"
        for p, q in ref_overlap_hits(left, right, lie_type)
    ]
    if lie_type == "d":
        report["sign-span-parity"] = [
            f"{brackets(-a, p, a, s)} with signs {right[q - 1]}@{q} right, "
            f"{left[r - 1]}@{r} left has span {span} and width {s - p} >= {a - 1}"
            for a, p, s, q, r, span in ref_span_hits(left, right, n)
        ]
    return report


def test_indexed_witnesses_match_the_scanning_generators():
    hits = dict.fromkeys(("brackets", "bracket-pair", "band", "overlap", "span"), 0)
    for lie_type in ("b", "c", "d"):
        for n in (2, 3, 4):
            for left, right in adjacent_column_pairs(lie_type, n):
                lr, rr = tableaux._row_index(left), tableaux._row_index(right)
                got = tableaux._brackets(lr, rr)
                assert got == [
                    (a, p, s)
                    for a in range(1, n + 1)
                    for p, s in ref_bracket_pairs(left, right, a)
                ]
                hits["brackets"] += bool(got)
                want = ref_pair_report(left, right, lie_type, n)
                got = list(tableaux._pair_witnesses(left, right, 1, lie_type))
                for clause, details in want.items():
                    assert [d for c, d in got if c == clause] == details, (
                        clause, lie_type, n, left, right,
                    )
                # and the clauses come in report order, with none left over
                assert got == [(c, d) for c, details in want.items() for d in details]
                for rule in ("bracket-pair", "band", "overlap", "span"):
                    hits[rule] += any(rule in c for c, _ in got)
    # every rule produced witnesses somewhere, so the comparisons had teeth
    assert all(hits.values()), hits


# ---------------------------------------------------------------------------
# spinor column pairs


def test_spinor_pair_validation():
    with pytest.raises(ValueError):
        SpinorColumnPair(1, 0, 1, (1,), (1,))  # left column too short
    with pytest.raises(ValueError):
        SpinorColumnPair(0, 0, 2, (2, 1), (1, 2))  # not strictly increasing
    with pytest.raises(ValueError):
        SpinorColumnPair(0, 0, 1, (2,), (1,))  # row decreases
    with pytest.raises(ValueError):
        SpinorColumnPair(0, 1, 1, (1,), (2, 0))  # entries must be positive
    T = SpinorColumnPair(1, 1, 1, (1, 3), (2, 4))
    assert T.size() == 4
    assert T.entry_counts(4) == (1, 1, 1, 1)


def test_residue_examples():
    # no slide room without both excesses
    assert residue(SpinorColumnPair(0, 2, 1, (1,), (1, 2, 3))) == 0
    assert residue(SpinorColumnPair(2, 0, 1, (1, 2, 3), (1,))) == 0
    # single-cell columns on the (1,1,0) frame
    assert residue(SpinorColumnPair(1, 1, 0, (2,), (1,))) == 0
    assert residue(SpinorColumnPair(1, 1, 0, (1,), (2,))) == 1
    # disjoint ranges always slide to the bound
    assert residue(SpinorColumnPair(2, 3, 1, (1, 2, 3), (4, 5, 6, 7))) == 2
    assert residue(SpinorColumnPair(3, 2, 2, (1, 2, 3, 4, 5), (6, 7, 8, 9))) == 2


def test_residue_against_brute_slides():
    for a in range(0, 3):
        for b in range(0, 3):
            for c in range(0, 3):
                for T in enumerate_sst_pairs(a, b, c, 4):
                    assert residue(T) == brute_residue(T), T


def test_residue_strata_partition_and_characters():
    for a in range(0, 3):
        for b in range(0, 3):
            for c in range(0, 3):
                m = a + b + 2 * c
                if m == 0:
                    continue
                pairs = enumerate_sst_pairs(a, b, c, m)
                strata = {}
                for T in pairs:
                    strata.setdefault(residue(T), []).append(T)
                assert sum(len(v) for v in strata.values()) == len(pairs)
                assert set(strata) == set(range(0, min(a, b) + 1))
                for k, members in strata.items():
                    got = LaurentPoly.from_weights(
                        m, [T.entry_counts(m) for T in members]
                    )
                    lam = conjugate((a + b + c - k, c + k))
                    assert got == schur_poly(lam, m), (a, b, c, k)


def test_frame_strata_count_the_built_pairs():
    for a, b, c in itertools.product(range(4), repeat=3):
        for m in range(0, 8):
            want: dict = {}
            for T in enumerate_sst_pairs(a, b, c, m):
                stratum = want.setdefault(residue(T), {})
                exp = T.entry_counts(m)
                stratum[exp] = stratum.get(exp, 0) + 1
            assert _frame_strata(a, b, c, m) == want, (a, b, c, m)


def test_frame_strata_examples():
    # (1,1,0) at entries 1..2: left 2 over right 1 cannot slide, the others can
    assert _frame_strata(1, 1, 0, 2) == {
        0: {(1, 1): 1},
        1: {(2, 0): 1, (1, 1): 1, (0, 2): 1},
    }
    assert _frame_strata(0, 0, 0, 3) == {0: {(0, 0, 0): 1}}
    # a column longer than the alphabet leaves no filling
    assert _frame_strata(2, 0, 1, 2) == {}


def test_pruned_frames_match_the_residue_filter():
    for lie_type in ("b", "c", "d"):
        bound = _max_residue(lie_type)
        for a in range(5):
            for D in range(9):
                for b, c in _frame_grid(lie_type, a, D):
                    want = [
                        T for T in enumerate_sst_pairs(a, b, c, D) if residue(T) <= bound
                    ]
                    assert _sst_pairs(a, b, c, D, bound) == want, (lie_type, a, b, c, D)


def test_spinor_families_are_sorted_frame_unions():
    def key(T):
        return (T.b, T.c, T.left, T.right)

    D = 7
    for lie_type in ("b", "c", "d"):
        bound = _max_residue(lie_type)
        for a in range(3):
            got = enumerate_spinor_columns(a, lie_type, D)
            want = [
                T
                for b, c in _frame_grid(lie_type, a, D)
                for T in enumerate_sst_pairs(a, b, c, D)
                if residue(T) <= bound
            ]
            assert list(got) == sorted(want, key=key), (lie_type, a)
    barred = enumerate_spinor_columns_barred(D)
    assert list(barred) == sorted(barred, key=key)


def test_generated_pairs_equal_publicly_constructed_ones():
    D = 5
    for a, b, c in itertools.product(range(3), repeat=3):
        public = []
        for left in itertools.combinations(range(1, D + 1), a + c):
            for right in itertools.combinations(range(1, D + 1), b + c):
                try:
                    public.append(SpinorColumnPair(a, b, c, left, right))
                except ValueError:
                    continue
        generated = enumerate_sst_pairs(a, b, c, D)
        assert list(generated) == public, (a, b, c)
        assert [hash(T) for T in generated] == [hash(T) for T in public]
        assert [repr(T) for T in generated] == [repr(T) for T in public]


def test_empty_frame():
    pairs = enumerate_sst_pairs(0, 0, 0, 3)
    assert len(pairs) == 1 and residue(pairs[0]) == 0


def test_enumerate_spinor_columns_examples():
    # symplectic, excess zero: only c varies; the degree-two layer is a row
    cs = enumerate_spinor_columns(0, "c", 2)
    assert {(T.b, T.c) for T in cs} == {(0, 0), (0, 1)}
    layer = [T for T in cs if T.size() == 2]
    got = LaurentPoly.from_weights(2, [T.entry_counts(2) for T in layer])
    assert monomials_to_schur(got) == {(2,): 1}
    # a frame needs at least its own excess in cells
    assert enumerate_spinor_columns(3, "c", 2) == ()
    # even orthogonal grids are even, and the residue bound is one
    ds = enumerate_spinor_columns(2, "d", 6)
    assert all(T.b % 2 == 0 and T.c % 2 == 0 for T in ds)
    assert all(residue(T) <= 1 for T in ds)
    assert any(residue(T) == 1 for T in ds)
    excluded = SpinorColumnPair(2, 2, 0, (1, 2), (3, 4))
    assert residue(excluded) == 2 and excluded not in set(ds)
    # odd orthogonal keeps residue zero only
    bs = enumerate_spinor_columns(1, "b", 4)
    assert all(residue(T) == 0 for T in bs)


def test_spinor_empty_pair_membership():
    unbarred = enumerate_spinor_columns(0, "d", 4)
    barred = enumerate_spinor_columns_barred(4)
    assert any(T.size() == 0 for T in unbarred)
    assert all(T.size() > 0 for T in barred)
    assert all(T.b % 2 == 0 and T.c % 2 == 1 for T in barred)


def spinor_schur(pairs, degree_bound):
    total = {}
    for T in pairs:
        if T.size() <= degree_bound:
            exp = T.entry_counts(degree_bound)
            total[exp] = total.get(exp, 0) + 1
    poly = LaurentPoly(degree_bound, total) if total else LaurentPoly.zero(degree_bound)
    return monomials_to_schur(poly)


def test_spinor_enumeration_matches_series_characters():
    D = 6
    for lie_type in ("b", "c"):
        for a in range(0, 3):
            got = spinor_schur(enumerate_spinor_columns(a, lie_type, D), D)
            want = dict(spinor_char(a, lie_type, D).coeffs)
            assert got == want, (lie_type, a)
    for a in (0, 1, 2):
        got = spinor_schur(enumerate_spinor_columns(a, "d", D), D)
        want = dict(spinor_char(a, "d", D).coeffs)
        assert got == want, ("d", a)
    got = spinor_schur(enumerate_spinor_columns_barred(D), D)
    assert got == dict(spinor_char_barred(D).coeffs)


def frames_tally(a, frames, bound, D):
    """The entry counts of the frames' fillings in 1..D with residue at most
    the bound, read from the content strata without building a pair."""
    total: dict = {}
    for b, c in frames:
        strata = _frame_strata(a, b, c, D)
        for k in range(min(a, b, bound) + 1):
            for exp, count in strata.get(k, {}).items():
                total[exp] = total.get(exp, 0) + count
    return total


def test_spinor_chars_are_the_model_tallies():
    # the characters sum the residue strata over the enumeration's frames;
    # specialized to D variables they are the fillings' content tallies
    for D in range(8):
        for lie_type in ("b", "c", "d"):
            bound = _max_residue(lie_type)
            for a in range(5):
                got = laurent_specialize(spinor_char(a, lie_type, D).with_t_power(0), D)
                want = frames_tally(a, _frame_grid(lie_type, a, D), bound, D)
                assert got.terms == want, (lie_type, a, D)
        got = laurent_specialize(spinor_char_barred(D).with_t_power(0), D)
        want = frames_tally(0, _barred_frame_grid(D), _max_residue("d"), D)
        assert got.terms == want, ("barred", D)
