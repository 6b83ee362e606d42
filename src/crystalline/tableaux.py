"""Kashiwara-Nakashima tableaux at finite rank, plus two-column spinor pairs.

Letters of the rank-n alphabet are encoded as integers: k stands for the
unbarred letter k, -k for the barred letter, and 0 for the zero letter that
exists only in the odd orthogonal alphabet.  The integer order realizes the
letter order, with one exception: in the even orthogonal alphabet the letters
-1 and 1 are incomparable, and they may alternate inside a column.

A tableau is stored row-major over a shape that is either a partition or, in
the even orthogonal case, a full-length shape whose last row count is
negative (the "signed" shapes).  Validation reports every broken rule by a
stable clause name so that sweeps can pinpoint which filling rule failed:

* ``row-order`` / ``column-order``: the semistandard rules, including the
  odd orthogonal zero-repetition rules and the even orthogonal alternation.
* ``column-admissibility``: a column may carry at most n-z+1 letters of
  absolute value at least z.
* ``bracket-pair-distance``: inside a bracket (barred a in the left column
  above unbarred a in the right column) a barred/unbarred witness pair for a
  letter b <= a, both cells in one column, must sit close to the bracket
  ends.
* ``zero-band-distance`` / ``zero-overlap``: the odd orthogonal rules for
  cells from {-1, 0, 1}.
* ``sign-band-distance`` / ``sign-overlap`` / ``sign-span-parity``: the even
  orthogonal rules for cells from {-1, 1}.
* ``full-column-parity``: the even orthogonal rule pinning at which rows of
  a full-height column the letters 1 and -1 may appear.

These are the readings of the infinite-rank Kashiwara-Nakashima rules that
the determinant characters confirm; the rejected alternatives live in the
tests, as references that show where each one fails.

Two-column spinor pairs hold positive integers: the left column of length
a+c starts b+1 rows down, the right column of length b+c starts at the top,
and the residue of a pair is the largest downward slide of the right column
that keeps all overlapping rows weakly increasing.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from crystalline.weights import (
    InvalidShapeError,
    ResourceCapError,
    Weight,
    check_lie_type,
    conjugate,
    make_partition,
)

# The default cap on enumerated fillings, graph vertices and the nodes of a
# crystal scan's pruned walk.
DEFAULT_MAX_VERTICES = 1_000_000


# ---------------------------------------------------------------------------
# letters


def alphabet(lie_type: str, n: int) -> tuple[int, ...]:
    """All letters of the rank-n alphabet, listed in increasing order."""
    check_lie_type(lie_type)
    if n < 1:
        raise ValueError("rank must be at least 1")
    letters = list(range(-n, 0))
    if lie_type == "b":
        letters.append(0)
    letters.extend(range(1, n + 1))
    return tuple(letters)


def word_weight(word: Iterable[int], rank: int) -> Weight:
    """The rank-n weight of a word: coordinate k counts the letters k minus
    the letters -k; the zero letter counts nowhere."""
    return Weight(_word_window(word, rank), 0)


def _word_window(word: Iterable[int], rank: int) -> tuple[int, ...]:
    """The first rank coordinates of :func:`word_weight`, as a plain tuple."""
    counts = [0] * rank
    for x in word:
        if x > 0:
            counts[x - 1] += 1
        elif x < 0:
            counts[-x - 1] -= 1
    return tuple(counts)


def letter_ok(x: int, lie_type: str, n: int) -> bool:
    """Whether x encodes a letter of the rank-n alphabet."""
    if x == 0:
        return lie_type == "b"
    return 1 <= abs(x) <= n


def lt(x: int, y: int, lie_type: str) -> bool:
    """Strict letter order; -1 and 1 are incomparable in the even orthogonal case."""
    if lie_type == "d" and abs(x) == 1 and abs(y) == 1 and x != y:
        return False
    return x < y


def leq(x: int, y: int, lie_type: str) -> bool:
    return x == y or lt(x, y, lie_type)


def row_pair_ok(left: int, right: int, lie_type: str) -> bool:
    """Adjacent cells of a row: weakly increasing, but 0 never repeats in a row."""
    if lie_type == "b" and left == 0 and right == 0:
        return False
    return leq(left, right, lie_type)


def column_pair_ok(upper: int, lower: int, lie_type: str) -> bool:
    """Adjacent cells of a column: "not greater", so that the incomparable
    pair -1, 1 may alternate, plus the zero-repetition exception."""
    if lie_type == "b" and upper == 0 and lower == 0:
        return True
    return not leq(lower, upper, lie_type)


# ---------------------------------------------------------------------------
# column admissibility


def n_admissible(column: Sequence[int], n: int, lie_type: str) -> bool:
    """Height at most n, and at most n-z+1 letters of absolute value >= z.

    The zero letter is never counted.  Raises ValueError when a letter lies
    outside the rank-n alphabet.
    """
    check_lie_type(lie_type)
    counts = [0] * (n + 1)
    for x in column:
        if not letter_ok(x, lie_type, n):
            raise ValueError(f"letter {x} outside the rank-{n} alphabet")
        counts[abs(x)] += 1
    if len(column) > n:
        return False
    # suffix sums: letters of absolute value >= z, for z = n down to 1
    at_least = 0
    for z in range(n, 0, -1):
        at_least += counts[z]
        if at_least > n - z + 1:
            return False
    return True


# ---------------------------------------------------------------------------
# shapes and the tableau container


def normalize_shape(shape: Sequence[int], lie_type: str, n: int) -> tuple[int, ...]:
    """Validate a (possibly signed) shape against the rank and normalize it.

    Partitions are returned with trailing zeros stripped; their height must
    not exceed n.  A signed shape (negative last row count) is allowed only
    in the even orthogonal case, must have exactly n rows, and its absolute
    row counts must still be weakly decreasing.  Parts must be integers: a
    float or a string raises TypeError instead of being truncated or parsed.
    """
    check_lie_type(lie_type)
    parts = tuple(map(operator.index, shape))
    if parts and parts[-1] < 0:
        if lie_type != "d":
            raise InvalidShapeError(
                "only the even orthogonal type admits a signed last row"
            )
        if len(parts) != n:
            raise InvalidShapeError(
                f"signed shape {parts} must have exactly {n} rows at rank {n}"
            )
        body, last = parts[:-1], parts[-1]
        if any(x <= 0 for x in body):
            raise InvalidShapeError(f"signed shape {parts} has a nonpositive body row")
        if any(body[i] < body[i + 1] for i in range(len(body) - 1)):
            raise InvalidShapeError(f"signed shape {parts} is not weakly decreasing")
        if body and body[-1] < -last:
            raise InvalidShapeError(
                f"signed shape {parts}: the last row is wider than the one above"
            )
        return parts
    lam = make_partition(parts)
    if len(lam) > n:
        raise InvalidShapeError(f"shape {lam} is too tall for rank {n}")
    return lam


def _abs_shape(signed: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(abs(x) for x in signed)


@dataclass(frozen=True)
class KNTableau:
    """A filling of a rank-n shape, stored row-major.

    The shape may be signed (negative last entry, even orthogonal only); the
    rows then cover the absolute shape and the last row counts as colored.
    Construction checks only structural consistency; the filling rules are
    judged by :func:`kn_violations`.
    """

    shape: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    lie_type: str
    rank: int

    def __post_init__(self) -> None:
        signed = normalize_shape(self.shape, self.lie_type, self.rank)
        object.__setattr__(self, "shape", signed)
        rows = tuple(tuple(map(operator.index, row)) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        widths = _abs_shape(signed)
        if tuple(len(row) for row in rows) != widths:
            raise ValueError(f"rows {rows} do not fill shape {signed}")
        for row in rows:
            for x in row:
                if not letter_ok(x, self.lie_type, self.rank):
                    raise ValueError(
                        f"letter {x} outside the rank-{self.rank} alphabet"
                    )

    @classmethod
    def _trusted(
        cls,
        shape: tuple[int, ...],
        rows: tuple[tuple[int, ...], ...],
        lie_type: str,
        rank: int,
    ) -> "KNTableau":
        """Build from a normalized shape and int rows that fill it with
        letters of the rank-n alphabet.

        Callers are the enumeration, which fills a normalized shape with
        admissible columns, and the crystal operators, which change one
        letter along an arrow of the alphabet; the public constructor keeps
        validating.  The filling rules are judged separately either way.
        """
        T = object.__new__(cls)
        fields = T.__dict__
        fields["shape"], fields["rows"] = shape, rows
        fields["lie_type"], fields["rank"] = lie_type, rank
        return T

    def columns(self) -> tuple[tuple[int, ...], ...]:
        widths = _abs_shape(self.shape)
        ncols = widths[0] if widths else 0
        return tuple(
            tuple(row[j] for row in self.rows if len(row) > j) for j in range(ncols)
        )

    def cell(self, i: int, j: int) -> int:
        """1-indexed entry of row i, column j."""
        return self.rows[i - 1][j - 1]

    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    def is_colored(self) -> bool:
        return bool(self.shape) and self.shape[-1] < 0

    def weight(self) -> Weight:
        return word_weight(itertools.chain.from_iterable(self.rows), self.rank)

    def to_json(self) -> dict:
        colored = self.is_colored()
        rows_json = []
        for i, row in enumerate(self.rows, start=1):
            mark = "*" if colored and i == len(self.rows) else ""
            rows_json.append([str(x) + mark for x in row])
        return {
            "type": self.lie_type.upper(),
            "rank": self.rank,
            "shape": list(self.shape),
            "rows": rows_json,
        }

    @staticmethod
    def from_json(data: Mapping) -> "KNTableau":
        rows = tuple(
            tuple(int(cell.rstrip("*")) for cell in row) for row in data["rows"]
        )
        return KNTableau(
            tuple(data["shape"]), rows, str(data["type"]).lower(), int(data["rank"])
        )

    def __str__(self) -> str:
        colored = self.is_colored()
        lines = []
        for i, row in enumerate(self.rows, start=1):
            mark = "*" if colored and i == len(self.rows) else ""
            lines.append(" ".join(f"{x:>3}" for x in row) + mark)
        return "\n".join(lines) if lines else "(empty)"


@dataclass(frozen=True)
class Violation:
    """One broken filling rule: a stable clause name plus a human detail."""

    clause: str
    detail: str


# ---------------------------------------------------------------------------
# the filling rules


def _row_index(column: Sequence[int]) -> dict[int, list[int]]:
    """Letter -> the rows (1-indexed, increasing) where it sits in the column."""
    index: dict[int, list[int]] = {}
    for i, x in enumerate(column, start=1):
        if x in index:
            index[x].append(i)
        else:
            index[x] = [i]
    return index


def _brackets(
    left_rows: Mapping[int, Sequence[int]], right_rows: Mapping[int, Sequence[int]]
) -> list[tuple[int, int, int]]:
    """The brackets (a, p, s) of a column pair, sorted: a barred a in the
    left column at row p and an unbarred a in the right column at row s."""
    return sorted(
        (-x, p, s)
        for x, ps in left_rows.items()
        if x < 0
        for p in ps
        for s in right_rows.get(-x, ())
    )


# Each rule yields its witnesses in a fixed order.  One walk chains them per
# column (_column_witnesses), then per adjacent column pair (_pair_witnesses),
# and tags each witness with its clause and detail: kn_violations formats
# every witness, and the boolean checks stop at the first.  The two-column
# rules read the letter -> rows index of each column (_row_index) and the
# pair's sorted brackets, both built once per column pair.


def _parity_ok(x: int, k: int, sign: int) -> bool:
    """Whether the letter x (1 or -1) may sit at row k of a full-height
    column: for a shape with positive last row, 1 sits only at odd rows and
    -1 only at even rows, and the parities swap for a signed shape."""
    return (k % 2 == 1) == ((x == 1) == (sign > 0))


def _full_row_count(shape: tuple[int, ...], lie_type: str, n: int) -> int:
    """The last row count of a full-height even orthogonal shape, which the
    full-column parity rule reads; 0 where that rule does not apply."""
    return shape[-1] if lie_type == "d" and len(shape) == n else 0


def _column_witnesses(
    col: tuple[int, ...], j: int, lie_type: str, n: int, last: int
) -> Iterator[tuple[str, str]]:
    """The (clause, detail) witnesses of column j (1-indexed); ``last`` is
    the shape's ``_full_row_count``."""
    for i in range(len(col) - 1):
        if not column_pair_ok(col[i], col[i + 1], lie_type):
            yield "column-order", f"column {j}: {col[i]} may not sit above {col[i + 1]}"
    if not n_admissible(col, n, lie_type):
        yield "column-admissibility", f"column {j}: {col} at rank {n}"
    if last and len(col) == n:
        for k, x in enumerate(col, start=1):
            if abs(x) == 1 and not _parity_ok(x, k, last):
                yield (
                    "full-column-parity",
                    f"column {j}: {x} at row {k} of a full column "
                    f"(last row count {last})",
                )


def _pair_witnesses(
    left: Sequence[int], right: Sequence[int], j: int, lie_type: str
) -> Iterator[tuple[str, str]]:
    """The (clause, detail) witnesses of columns j and j+1 (1-indexed): row
    order on the shared rows, then the two-column rules in the order bracket
    pair, band, overlap, span parity.  The right column is never the longer,
    so every row down to a bracket's s sits in both columns."""
    for i in range(len(right)):
        if not row_pair_ok(left[i], right[i], lie_type):
            yield "row-order", f"row {i + 1}: {left[i]} may not precede {right[i]}"
    left_rows, right_rows = _row_index(left), _row_index(right)
    brackets = _brackets(left_rows, right_rows)
    cols = f"columns {j},{j + 1}"
    b_lo = 1 if lie_type == "c" else 2
    for a, p, s in brackets:
        for b in range(b_lo, a + 1):
            for rows in (left_rows, right_rows):
                for q in rows.get(-b, ()):
                    for r in rows.get(b, ()):
                        if p <= q < r <= s and (q - p) + (s - r) >= a - b:
                            yield (
                                "bracket-pair-distance",
                                f"{cols}: bracket {-a}@{p}..{a}@{s} with pair "
                                f"{-b}@{q},{b}@{r} has gap {(q - p) + (s - r)}"
                                f" >= {a - b}",
                            )
    if lie_type == "c":
        return
    kind = "zero" if lie_type == "b" else "sign"
    # The band and span rules read only the brackets with a >= 2 that are
    # wide enough, so p < s: a band cell pair at rows q, q + 1 leaves the gap
    # s - p - 1, which must reach a - 1, and the span rule asks for the
    # width s - p >= a - 1.
    band = {-1, 0, 1} if lie_type == "b" else {-1, 1}
    for a, p, s in brackets:
        if a < 2 or s - p < a:
            continue
        for col in (left, right):
            for q in range(p, s):
                x, y = col[q - 1], col[q]
                if x in band and y in band and (lie_type == "b" or x != y):
                    yield (
                        f"{kind}-band-distance",
                        f"{cols}: bracket {-a}@{p}..{a}@{s} spans the band "
                        f"cells at rows {q},{q + 1} with gap {s - p - 1} >= {a - 1}",
                    )
    upper, lower = ({-1, 0}, {0, 1}) if lie_type == "b" else ({-1, 1}, {-1, 1})
    for p, x in enumerate(left, start=1):
        if x in upper:
            for q in range(p + 1, len(right) + 1):
                if right[q - 1] in lower:
                    yield (
                        f"{kind}-overlap",
                        f"{cols}: {x}@{p} left sits above {right[q - 1]}@{q} right",
                    )
    if lie_type == "b":
        return
    for a, p, s in brackets:
        if a < 2 or s - p < a - 1:
            continue
        for q in range(p, s + 1):
            if abs(right[q - 1]) != 1:
                continue
            for r in range(q + 1, s + 1):
                if abs(left[r - 1]) == 1:
                    span = r - q + 1
                    if (span % 2 == 0) == (right[q - 1] == left[r - 1]):
                        yield (
                            "sign-span-parity",
                            f"{cols}: bracket {-a}@{p}..{a}@{s} with signs "
                            f"{right[q - 1]}@{q} right, {left[r - 1]}@{r} left "
                            f"has span {span} and width {s - p} >= {a - 1}",
                        )


def kn_violations(T: KNTableau) -> tuple[Violation, ...]:
    """Every broken filling rule of T, each named by a stable clause string.

    Reported per column, left to right (order, admissibility, full-column
    parity), then per adjacent column pair (row order on the shared rows,
    then the two-column rules).
    """
    lie_type, n = T.lie_type, T.rank
    cols = T.columns()
    last = _full_row_count(T.shape, lie_type, n)
    out = [
        Violation(*w)
        for j, col in enumerate(cols, start=1)
        for w in _column_witnesses(col, j, lie_type, n, last)
    ]
    for j in range(1, len(cols)):
        out.extend(
            Violation(*w) for w in _pair_witnesses(cols[j - 1], cols[j], j, lie_type)
        )
    return tuple(out)


def _columns_compatible(
    left: tuple[int, ...], right: tuple[int, ...], lie_type: str
) -> bool:
    """Whether two adjacent columns keep their shared rows in order and break
    no two-column rule; stops at the first witness.  No rule reads the rank:
    the brackets come from the letters present."""
    return next(_pair_witnesses(left, right, 1, lie_type), None) is None


# Small LRU memos, keyed by the column, type, rank and full-row count, or
# by the column pair and type.  kn_validate reads both, the column walk the
# column memo.  A graph validates each vertex once, and its few distinct
# columns repeat: the column memo hit 95-97% of its calls on the 2,2,1
# graphs of c5, b4 and d4.  Pairs repeat only past two columns (0 hits to
# 2,859, 1,649 and 839 misses on those graphs; 7,238 hits to 952 misses on
# c4 3,2,1, 5,430 to 300 on b3 4,2).  The default `verify jt-character`
# makes 45,555 column checks on 1,327 columns (97% hits) but 29,030 pair
# checks on 27,498 pairs, so the walk checks pairs without a memo.  A
# scan's columns are mostly new: `verify tensor-decomp --a 0..4 --b 1..9`
# makes 11,784 column checks on 10,971 columns (6% hits), one pass of the
# ring-session benchmark jobs 1,162 on 714 (37% hits), beside 8 walk pair
# checks and kn_validate's 60 pair lookups, none a hit.
@lru_cache(maxsize=512)
def _column_ok(col: tuple[int, ...], lie_type: str, n: int, last: int) -> bool:
    """Whether the column breaks no rule of its own; stops at the first witness."""
    return next(_column_witnesses(col, 1, lie_type, n, last), None) is None


_pair_ok = lru_cache(maxsize=1024)(_columns_compatible)


def kn_validate(T: KNTableau) -> bool:
    """Whether T breaks no filling rule, i.e. ``not kn_violations(T)``.

    Walks the rules in the report order of :func:`kn_violations`, per
    column and then per adjacent column pair, and stops at the first
    witness.
    """
    lie_type, n = T.lie_type, T.rank
    cols = T.columns()
    last = _full_row_count(T.shape, lie_type, n)
    return all(_column_ok(col, lie_type, n, last) for col in cols) and all(
        _pair_ok(cols[j - 1], cols[j], lie_type) for j in range(1, len(cols))
    )


# ---------------------------------------------------------------------------
# canonical tableaux and enumeration


def t_lambda(shape: Sequence[int], lie_type: str, n: int) -> KNTableau:
    """The canonical extremal filling: row i holds the letter i, except that
    a signed shape puts the barred letter n on top of its first columns and
    shifts those columns down by one."""
    signed = normalize_shape(shape, lie_type, n)
    widths = _abs_shape(signed)
    rows = []
    if signed and signed[-1] < 0:
        m = -signed[-1]
        for i, width in enumerate(widths, start=1):
            head = -n if i == 1 else i - 1
            rows.append(tuple([head] * m + [i] * (width - m)))
    else:
        for i, width in enumerate(widths, start=1):
            rows.append(tuple([i] * width))
    return KNTableau(signed, tuple(rows), lie_type, n)


def enumerate_kn(
    shape: Sequence[int],
    lie_type: str,
    n: int,
    max_count: int = DEFAULT_MAX_VERTICES,
) -> tuple[KNTableau, ...]:
    """The complete set of valid fillings of the shape at rank n, sorted.

    Raises ResourceCapError when more than max_count fillings accumulate.
    """
    signed = normalize_shape(shape, lie_type, n)
    widths = _abs_shape(signed)
    results = []
    for cols in _column_chains(signed, lie_type, n, lambda state, x: state, ()):
        if len(results) >= max_count:
            raise ResourceCapError(
                f"more than {max_count} fillings of shape {signed} at rank {n}"
            )
        cols = cols[::-1]  # left to right
        rows = tuple(tuple(cols[j][i] for j in range(w)) for i, w in enumerate(widths))
        results.append(KNTableau._trusted(signed, rows, lie_type, n))
    results.sort(key=lambda t: t.rows)
    return tuple(results)


@lru_cache(maxsize=None)
def _letters_below(lie_type: str, n: int) -> Mapping[int | None, tuple[int, ...]]:
    """Per letter, the letters that may sit right under it in a column, in
    alphabet order; None keys the whole alphabet, for a column's top cell.
    Read-only, since every walk shares it."""
    letters = alphabet(lie_type, n)
    below: dict[int | None, tuple[int, ...]] = {None: letters}
    for x in letters:
        below[x] = tuple(y for y in letters if column_pair_ok(x, y, lie_type))
    return MappingProxyType(below)


def _column_chains(
    signed: tuple[int, ...], lie_type: str, n: int, fold: Callable, start: Hashable
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The valid fillings of a normalized shape at rank n that ``fold``
    keeps, as columns in reading order (right to left, each top to bottom).

    ``fold(state, x)`` is the state after the letter x, from ``start`` on, or
    None to drop every filling through that prefix.  Cells draw from the
    column-order table, filtered by row order against the right neighbour;
    a complete column must pass its own rules and the two-column rules with
    its right neighbour.  The columns that may follow one (height, right
    neighbour, state) are built once per call, and an explicit stack of
    their iterators lets a shape of any width fit.
    """
    heights = conjugate(_abs_shape(signed))[::-1]
    last = _full_row_count(signed, lie_type, n)
    below = _letters_below(lie_type, n)
    cells: dict[tuple[int | None, int | None], tuple[int, ...]] = {}
    followers: dict[tuple, list] = {}

    def options(h: int, right: tuple[int, ...], state: Hashable) -> list:
        # the columns of height h that may sit left of ``right``, with states
        found: list[tuple[tuple[int, ...], Hashable]] = []
        col: list[int] = []

        def fill(state: Hashable) -> None:
            row = len(col)
            if row == h:
                done = tuple(col)
                if _column_ok(done, lie_type, n, last) and (
                    not right or _columns_compatible(done, right, lie_type)
                ):
                    found.append((done, state))
                return
            cell = (col[-1] if row else None, right[row] if row < len(right) else None)
            letters = cells.get(cell)
            if letters is None:
                above, beside = cell
                letters = cells[cell] = tuple(
                    x
                    for x in below[above]
                    if beside is None or row_pair_ok(x, beside, lie_type)
                )
            for x in letters:
                after = fold(state, x)
                if after is not None:
                    col.append(x)
                    fill(after)
                    col.pop()

        fill(state)
        return found

    chosen: list[tuple[int, ...]] = []
    stack: list[Iterator] = []
    right, state = (), start
    while True:
        if len(chosen) == len(heights):
            yield tuple(chosen)
        else:
            key = (heights[len(chosen)], right, state)
            found = followers.get(key)
            if found is None:
                found = followers[key] = options(*key)
            stack.append(iter(found))
        # the next untried column, backing up past exhausted ones
        while stack:
            if len(chosen) == len(stack):
                chosen.pop()
            pick = next(stack[-1], None)
            if pick is not None:
                right, state = pick
                chosen.append(right)
                break
            stack.pop()
        else:
            return


# ---------------------------------------------------------------------------
# spinor column pairs


# Slotted: the frame generators build hundreds of thousands of pairs, and
# without a per-instance dict each one takes about half the memory.
@dataclass(frozen=True, slots=True)
class SpinorColumnPair:
    """Two strictly increasing columns of positive integers on a skew frame.

    The right column (length b+c) occupies rows 1..b+c; the left column
    (length a+c) occupies rows b+1..a+b+c.  On the c overlapping rows the
    row entries must weakly increase from left to right.
    """

    a: int
    b: int
    c: int
    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self) -> None:
        a, b, c = self.a, self.b, self.c
        if min(a, b, c) < 0:
            raise ValueError("column frame parameters must be nonnegative")
        left = tuple(map(operator.index, self.left))
        right = tuple(map(operator.index, self.right))
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        if len(left) != a + c or len(right) != b + c:
            raise ValueError(
                f"column lengths {len(left)},{len(right)} do not match "
                f"frame ({a},{b},{c})"
            )
        for col in (left, right):
            if any(x < 1 for x in col):
                raise ValueError("entries must be positive integers")
            if any(col[i] >= col[i + 1] for i in range(len(col) - 1)):
                raise ValueError(f"column {col} is not strictly increasing")
        for i in range(c):
            if left[i] > right[b + i]:
                raise ValueError(
                    f"row {b + i + 1}: left entry {left[i]} exceeds right "
                    f"entry {right[b + i]}"
                )

    @classmethod
    def _trusted(
        cls, a: int, b: int, c: int, left: tuple[int, ...], right: tuple[int, ...]
    ) -> "SpinorColumnPair":
        """Build from int tuples already known to form a valid pair.

        Callers are the frame generators, whose columns are strictly
        increasing positive combinations and whose row condition they test;
        the public constructor keeps validating.
        """
        pair = object.__new__(cls)
        put = object.__setattr__
        put(pair, "a", a)
        put(pair, "b", b)
        put(pair, "c", c)
        put(pair, "left", left)
        put(pair, "right", right)
        return pair

    def size(self) -> int:
        return self.a + self.b + 2 * self.c

    def entry_counts(self, nvars: int) -> tuple[int, ...]:
        """How often each of 1..nvars appears; entries must not exceed nvars."""
        counts = [0] * nvars
        for x in self.left + self.right:
            counts[x - 1] += 1
        return tuple(counts)

    def __str__(self) -> str:
        rows = []
        top = self.b + self.c
        bottom = self.a + self.b + self.c
        for r in range(1, bottom + 1):
            lx = self.left[r - self.b - 1] if self.b < r <= bottom else None
            rx = self.right[r - 1] if r <= top else None
            rows.append(
                ("." if lx is None else f"{lx:>2}")
                + " "
                + ("." if rx is None else f"{rx:>2}")
            )
        return "\n".join(rows) if rows else "(empty)"


def residue(T: SpinorColumnPair) -> int:
    """The largest downward slide of the right column keeping rows weak.

    Sliding by k moves the right column to rows 1+k..b+c+k; the slide is
    allowed while k stays at most min(a, b) and every overlapping row still
    weakly increases, i.e. left[i] <= right[b-k+i] for i < c+k.
    """
    for k in range(min(T.a, T.b), -1, -1):
        if all(map(operator.le, T.left[: T.c + k], T.right[T.b - k :])):
            return k
    raise AssertionError("the zero slide is semistandard by construction")


def _column_code(column: Sequence[int]) -> int:
    """A column's content packed one byte per letter: letter x adds
    256**(x-1).  Letters are distinct in a column, so two codes add without
    a carry and the bytes of the sum are the pair's entry counts."""
    return sum(1 << 8 * (x - 1) for x in column)


def _frame_walk(
    a: int, b: int, c: int, max_entry: int, depth: int
) -> Iterator[tuple[list[tuple[int, ...]], list[list[tuple]]]]:
    """The fillings of the (a, b, c) frame with entries in 1..max_entry,
    split by residue up to ``depth`` (at most min(a, b)).

    The slide tests read only the first c+depth entries of a left column and
    the last c+depth of a right one, so both sides go in runs that share
    them.  Per left run (consecutive in combination order) this yields the
    run and its buckets: bucket k < depth holds the right runs of residue k,
    bucket ``depth`` those of residue at least ``depth``.  A right run is
    (tails, columns, codes), tails[k] being what the slide by k sets against
    the left column.  Feasibility is monotone in the slide, so each bucket is
    split off the survivors of the slide before.
    """
    if a + c > max_entry or b + c > max_entry:
        return
    reach = c + depth
    entries = range(1, max_entry + 1)
    runs: dict[tuple[int, ...], tuple[list, list]] = {}
    for right in itertools.combinations(entries, b + c):
        columns, codes = runs.setdefault(right[b - depth :], ([], []))
        columns.append(right)
        codes.append(_column_code(right))
    rights = [
        (tuple(tail[depth - k :] for k in range(depth + 1)), columns, codes)
        for tail, (columns, codes) in runs.items()
    ]
    le = operator.le
    for head in itertools.combinations(entries, reach):
        after = range(head[-1] + 1 if head else 1, max_entry + 1)
        lefts = [head + rest for rest in itertools.combinations(after, a + c - reach)]
        if not lefts:
            continue
        top = head[:c]
        level = [run for run in rights if all(map(le, top, run[0][0]))]
        buckets = []
        for k in range(1, depth + 1):
            top = head[: c + k]
            slid: list[tuple] = []
            stuck: list[tuple] = []
            for run in level:
                (slid if all(map(le, top, run[0][k])) else stuck).append(run)
            buckets.append(stuck)
            level = slid
        buckets.append(level)
        yield lefts, buckets


def _sst_pairs(
    a: int, b: int, c: int, max_entry: int, max_residue: int | None = None
) -> list[SpinorColumnPair]:
    """The fillings of the (a, b, c) frame with entries in 1..max_entry, in
    (left, right) order; with max_residue, only those of residue at most it.

    Residue at most r < min(a, b) means the slide by r+1 fails, so the walk
    goes to depth r+1 and its last bucket is dropped before any pair is
    built.
    """
    depth, keep = 0, 1
    if max_residue is not None and max_residue < min(a, b):
        depth = keep = max_residue + 1
    make = SpinorColumnPair._trusted
    out: list[SpinorColumnPair] = []
    for lefts, buckets in _frame_walk(a, b, c, max_entry, depth):
        kept = sorted(
            itertools.chain.from_iterable(
                run[1] for bucket in buckets[:keep] for run in bucket
            )
        )
        out.extend([make(a, b, c, left, right) for left in lefts for right in kept])
    return out


def _frame_strata(
    a: int, b: int, c: int, m: int
) -> dict[int, dict[tuple[int, ...], int]]:
    """The entry counts of the (a, b, c) frame's fillings with entries in
    1..m, by residue: {residue: {counts of 1..m: number of fillings}}, with
    only the residues that occur.  Builds no pair; each distinct content is
    decoded once."""
    depth = min(a, b)
    tallies = [Counter() for _ in range(depth + 1)]
    for lefts, buckets in _frame_walk(a, b, c, m, depth):
        codes = [_column_code(left) for left in lefts]
        for tally, bucket in zip(tallies, buckets):
            if bucket:
                tally.update([x + y for run in bucket for y in run[2] for x in codes])
    decoded: dict[int, tuple[int, ...]] = {}
    strata = {}
    for k, tally in enumerate(tallies):
        if tally:
            stratum = strata[k] = {}
            for code, count in tally.items():
                exp = decoded.get(code)
                if exp is None:
                    exp = decoded[code] = tuple(code.to_bytes(m, "little"))
                stratum[exp] = count
    return strata


def enumerate_sst_pairs(
    a: int, b: int, c: int, max_entry: int
) -> tuple[SpinorColumnPair, ...]:
    """All fillings of the (a, b, c) frame with entries in 1..max_entry."""
    if min(a, b, c) < 0:
        raise ValueError("column frame parameters must be nonnegative")
    return tuple(_sst_pairs(a, b, c, max_entry))


def _frame_grid(lie_type: str, a: int, max_degree: int) -> Iterator[tuple[int, int]]:
    step = 2 if lie_type == "d" else 1
    b_values = (0,) if lie_type == "c" else range(0, max_degree + 1, step)
    for b in b_values:
        for c in range(0, max_degree + 1, step):
            if a + b + 2 * c <= max_degree:
                yield b, c


def _barred_frame_grid(max_degree: int) -> Iterator[tuple[int, int]]:
    """The (b, c) of the barred family's frames (0, b, c): b even, c odd."""
    for b in range(0, max_degree + 1, 2):
        for c in range(1, max_degree + 1, 2):
            if b + 2 * c <= max_degree:
                yield b, c


def _max_residue(lie_type: str) -> int:
    return 1 if lie_type == "d" else 0


def enumerate_spinor_columns(
    a: int, lie_type: str, max_degree: int
) -> tuple[SpinorColumnPair, ...]:
    """All admissible column pairs with a left-column excess of a, with at
    most max_degree cells and entries bounded by max_degree.

    The frame grid and the residue bound depend on the type: the symplectic
    case allows only b = 0, the odd orthogonal case any frame, and the even
    orthogonal case even b and c with residue at most 1 instead of 0.  The
    result is sorted by (b, c, left, right): frames come in (b, c) order and
    each frame in (left, right) order.
    """
    check_lie_type(lie_type)
    if a < 0:
        raise ValueError("the left-column excess must be nonnegative")
    out: list[SpinorColumnPair] = []
    for b, c in _frame_grid(lie_type, a, max_degree):
        out.extend(_sst_pairs(a, b, c, max_degree, _max_residue(lie_type)))
    return tuple(out)


def enumerate_spinor_columns_barred(max_degree: int) -> tuple[SpinorColumnPair, ...]:
    """The even orthogonal companion family at excess zero: frames (0, b, c)
    with b even and c odd, so the right-column excess is odd and the empty
    pair never occurs.  Sorted by (b, c, left, right), the generation order."""
    out: list[SpinorColumnPair] = []
    for b, c in _barred_frame_grid(max_degree):
        out.extend(_sst_pairs(0, b, c, max_degree))
    return tuple(out)
