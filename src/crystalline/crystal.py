"""Crystal operators on letters, words and tableaux, graph generation, and
rank-stabilized tensor decompositions.

The single-box crystals are chains through the barred and unbarred letters:

* type b:  -n -> ... -> -1 -> 0 -> 1 -> ... -> n, with the two middle arrows
  labelled 0 and the arrow k -> k+1 (and -(k+1) -> -k) labelled k;
* type c:  the same chain without the zero letter, one middle arrow label 0;
* type d:  a diamond in the middle: -2 -> -1 and 1 -> 2 are labelled 1,
  while -2 -> 1 and -1 -> 2 are labelled 0.

Raising and lowering follow the tensor signature rule, in which the
lowering operator prefers the leftmost factor.  One pass over a word
(``_signatures``) applies it for every index at once; every reader of a
word, a tableau or a tensor element goes through it.  Tableaux are read
column by column from the rightmost column to the left, each column top to
bottom.  (The mirrored reading, left to right and bottom to top, breaks
closure already on one row of two cells; the tests keep it as a reference.)

A tensor element is a tuple of tableau factors, and it acts through the
concatenated reading word of its factors; a tableau is the one-factor case.
Graphs are generated by breadth-first closure under all raising and
lowering operators, reading each vertex's word once; the source of one
model has a closed form, and tensor sources come from full scans.

Rank-stabilized decompositions translate the sources of a rank-n model into
rank-free labels: a pair of a partition (the finite-support part of the
weight orbit) and a dominant shape (the part with a level).  The translated
multiset must agree between ranks n and n+1, with escalation on mismatch.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from crystalline.symfunc import LaurentPoly, lr_expand
from crystalline.tableaux import (
    DEFAULT_MAX_VERTICES,
    KNTableau,
    _column_fillings,
    _parity_ok,
    alphabet,
    kn_validate,
    normalize_shape,
    word_weight,
)
from crystalline.weights import (
    DominantShape,
    ResourceCapError,
    StabilizationError,
    Weight,
    check_lie_type,
    decompose_weight,
    make_partition,
    orbit_representative,
    shape_of_weight,
    trivial_shape,
    truncation_shape,
)


class CrystalClosureError(AssertionError):
    """A crystal operator produced a filling that breaks the KN rules, or a
    closed-form source is not the highest-weight vertex of its shape.

    Carries the input tableau, the operator ("e" or "f"), its index and the
    rejected output as ``tableau``, ``op``, ``index`` and ``result``; for a
    source, ``op`` is "source", ``index`` is None and both tableaux are the
    built filling.  It is an AssertionError because closure is an invariant
    of the model, but it is raised explicitly, so the check also runs under
    ``python -O``.
    """

    def __init__(
        self, tableau: KNTableau, op: str, index: int | None, result: KNTableau
    ):
        rules = f"the type {tableau.lie_type} rank {tableau.rank} filling rules"
        if op == "source":
            what = f"the closed-form source {result.rows} is not highest weight under"
        else:
            what = f"{op}_{index} took {tableau.rows} to {result.rows}, which breaks"
        super().__init__(f"{what} {rules}")
        self.tableau, self.op, self.index, self.result = tableau, op, index, result


def _check_index(i: int, n: int) -> None:
    if not 0 <= i <= n - 1:
        raise IndexError(f"operator index {i} outside 0..{n - 1}")


# ---------------------------------------------------------------------------
# single letters


def _letter_strings(lie_type: str, n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The i-strings of the single-box crystal: (i, its letters in lowering
    order) per string.  Every other letter table is read off these."""
    check_lie_type(lie_type)
    if n < 1 or (lie_type == "d" and n < 2):
        raise ValueError(f"rank {n} too small for type {lie_type}")
    lo = 2 if lie_type == "d" else 1
    strings = [(k, s) for k in range(lo, n) for s in ((k, k + 1), (-(k + 1), -k))]
    if lie_type == "c":
        strings.append((0, (-1, 1)))
    elif lie_type == "b":
        strings.append((0, (-1, 0, 1)))
    else:
        strings += [(0, (-2, 1)), (0, (-1, 2)), (1, (-2, -1)), (1, (1, 2))]
    return tuple(strings)


@lru_cache(maxsize=None)
def _letter_steps(lie_type: str, n: int) -> dict[tuple[str, int, int], int]:
    """(op, letter, i) -> the letter that e_i ("e") or f_i ("f") moves it to."""
    steps = {}
    for i, string in _letter_strings(lie_type, n):
        for x, y in zip(string, string[1:]):
            steps["f", x, i] = y
            steps["e", y, i] = x
    return steps


@lru_cache(maxsize=None)
def _letter_moves(lie_type: str, n: int) -> dict[int, tuple[tuple[int, int, int], ...]]:
    """Per letter, (i, eps_i, phi_i) for each i-string through it, by i: its
    distance from either end of the string.  A letter lies on the strings of
    at most three indices."""
    moves: dict[int, list] = {x: [] for x in alphabet(lie_type, n)}
    for i, string in _letter_strings(lie_type, n):
        for eps, x in enumerate(string):
            moves[x].append((i, eps, len(string) - 1 - eps))
    return {x: tuple(sorted(m)) for x, m in moves.items()}


def letter_f(x: int, i: int, lie_type: str, n: int) -> int | None:
    """Lowering operator on a single letter, or None."""
    _check_index(i, n)
    return _letter_steps(lie_type, n).get(("f", x, i))


def letter_e(x: int, i: int, lie_type: str, n: int) -> int | None:
    """Raising operator on a single letter, or None."""
    _check_index(i, n)
    return _letter_steps(lie_type, n).get(("e", x, i))


def letter_eps(x: int, i: int, lie_type: str, n: int) -> int:
    """Length of the raising string from the letter."""
    _check_index(i, n)
    return next((e for j, e, _ in _letter_moves(lie_type, n).get(x, ()) if j == i), 0)


def letter_phi(x: int, i: int, lie_type: str, n: int) -> int:
    """Length of the lowering string from the letter."""
    _check_index(i, n)
    return next((f for j, _, f in _letter_moves(lie_type, n).get(x, ()) if j == i), 0)


def simple_root(i: int, lie_type: str) -> Weight:
    """The i-th simple root as a weight vector."""
    check_lie_type(lie_type)
    if i < 0:
        raise IndexError("no simple root with a negative index")
    if i > 0:
        return Weight((0,) * (i - 1) + (1, -1), 0)
    if lie_type == "c":
        return Weight((-2,), 0)
    if lie_type == "b":
        return Weight((-1,), 0)
    return Weight((-1, -1), 0)


# ---------------------------------------------------------------------------
# words under the signature rule


def _signatures(
    word: Iterable[int], lie_type: str, n: int
) -> tuple[list[int], list[int], list[int | None], list[int | None]]:
    """The tensor signature rule for every index at once, in one pass.

    Per index i, letter k contributes eps_i minus signs followed by phi_i
    plus signs; each minus cancels the nearest uncancelled plus to its left.
    Returns four lists indexed by i: the surviving minus and plus counts,
    the position of the rightmost surviving minus (where e_i acts) and of
    the leftmost surviving plus (where f_i acts), None when there is none.
    Cancellation only removes the newest plus, so the leftmost surviving
    plus is the first one pushed since the plus count was last 0.
    """
    moves = _letter_moves(lie_type, n)
    minus, plus = [0] * n, [0] * n
    e_pos: list[int | None] = [None] * n
    f_pos: list[int | None] = [None] * n
    for pos, x in enumerate(word):
        for i, eps, phi in moves[x]:
            if eps:
                have = plus[i]
                if eps < have:
                    plus[i] = have - eps
                else:
                    if eps > have:
                        minus[i] += eps - have
                        e_pos[i] = pos
                    plus[i] = 0
                    f_pos[i] = None
            if phi:
                if not plus[i]:
                    f_pos[i] = pos
                plus[i] += phi
    return minus, plus, e_pos, f_pos


def word_eps(word: Sequence[int], i: int, lie_type: str, n: int) -> int:
    _check_index(i, n)
    return _signatures(word, lie_type, n)[0][i]


def word_phi(word: Sequence[int], i: int, lie_type: str, n: int) -> int:
    _check_index(i, n)
    return _signatures(word, lie_type, n)[1][i]


def _step(
    word: Sequence[int], pos: int | None, op: str, i: int, lie_type: str, n: int
) -> tuple[int, ...] | None:
    """The word with e_i ("e") or f_i ("f") applied to its letter at
    ``pos``, the position the signature rule selected; None for no position."""
    if pos is None:
        return None
    out = list(word)
    out[pos] = _letter_steps(lie_type, n)[op, out[pos], i]
    return tuple(out)


def tensor_f(
    word: Sequence[int], i: int, lie_type: str, n: int
) -> tuple[int, ...] | None:
    """Lower the word at the position the signature rule selects, or None."""
    _check_index(i, n)
    return _step(word, _signatures(word, lie_type, n)[3][i], "f", i, lie_type, n)


def tensor_e(
    word: Sequence[int], i: int, lie_type: str, n: int
) -> tuple[int, ...] | None:
    """Raise the word at the position the signature rule selects, or None."""
    _check_index(i, n)
    return _step(word, _signatures(word, lie_type, n)[2][i], "e", i, lie_type, n)


# ---------------------------------------------------------------------------
# tableaux as words


def reading_positions(shape: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Cell coordinates (row, col), 0-indexed, in reading order: columns
    right to left, each top to bottom."""
    return _reading_positions(tuple(shape))


@lru_cache(maxsize=1024)
def _reading_positions(shape: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    widths = [abs(part) for part in shape]
    ncols = widths[0] if widths else 0
    return tuple(
        (i, j)
        for j in range(ncols - 1, -1, -1)
        for i in range(len(widths))
        if widths[i] > j
    )


def reading_word(T: KNTableau) -> tuple[int, ...]:
    return tuple(T.rows[i][j] for i, j in reading_positions(T.shape))


def tableau_op(T: KNTableau, op: str, i: int) -> KNTableau | None:
    """Apply a raising ("e") or lowering ("f") operator to a tableau: the
    one-factor case of :meth:`CrystalElement.op`.

    The operator changes the letter at the position of the reading word that
    the signature rule selects.  Every result is checked against the filling
    rules; one that breaks them raises CrystalClosureError.
    """
    out = CrystalElement((T,)).op(op, i)
    return None if out is None else out.factors[0]


def tableau_eps(T: KNTableau, i: int) -> int:
    return word_eps(reading_word(T), i, T.lie_type, T.rank)


def tableau_phi(T: KNTableau, i: int) -> int:
    return word_phi(reading_word(T), i, T.lie_type, T.rank)


# ---------------------------------------------------------------------------
# tensor elements


@dataclass(frozen=True)
class CrystalElement:
    """A tensor product of tableau factors, leftmost factor first."""

    factors: tuple[KNTableau, ...]

    def __post_init__(self) -> None:
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("a crystal element needs at least one factor")
        first = factors[0]
        for T in factors[1:]:
            if T.lie_type != first.lie_type or T.rank != first.rank:
                raise ValueError("tensor factors must share type and rank")
        object.__setattr__(self, "factors", factors)

    @property
    def lie_type(self) -> str:
        return self.factors[0].lie_type

    @property
    def rank(self) -> int:
        return self.factors[0].rank

    def weight(self) -> Weight:
        return word_weight(self.word(), self.rank)

    def word(self) -> tuple[int, ...]:
        return tuple(
            itertools.chain.from_iterable(reading_word(T) for T in self.factors)
        )

    def sort_key(self) -> tuple:
        return tuple((T.shape, T.rows) for T in self.factors)

    def op(self, op: str, i: int) -> "CrystalElement | None":
        """Apply the operator through the tensor signature rule on the
        concatenated reading word of the factors."""
        if op not in ("e", "f"):
            raise ValueError(f"operator must be 'e' or 'f', got {op!r}")
        _check_index(i, self.rank)
        return self._apply(op, i, _signatures(self.word(), self.lie_type, self.rank))

    def _apply(self, op: str, i: int, sig: tuple) -> "CrystalElement | None":
        """The operator at the word position that ``sig``, the
        ``_signatures`` of this element's word, selects for it.  The changed
        factor is checked against the filling rules; a break raises
        CrystalClosureError."""
        pos = sig[3 if op == "f" else 2][i]
        if pos is None:
            return None
        factors = self.factors
        for k, T in enumerate(factors):
            positions = reading_positions(T.shape)
            if pos < len(positions):
                break
            pos -= len(positions)
        lie_type, n, rows = T.lie_type, T.rank, T.rows
        r, c = positions[pos]
        row = _step(rows[r], c, op, i, lie_type, n)
        out = KNTableau._trusted(T.shape, rows[:r] + (row,) + rows[r + 1 :], lie_type, n)
        if not kn_validate(out):
            raise CrystalClosureError(T, op, i, out)
        return CrystalElement(factors[:k] + (out,) + factors[k + 1 :])

    def eps(self, i: int) -> int:
        return word_eps(self.word(), i, self.lie_type, self.rank)

    def phi(self, i: int) -> int:
        return word_phi(self.word(), i, self.lie_type, self.rank)

    def label(self) -> str:
        def one(T: KNTableau) -> str:
            return "/".join(
                ",".join(str(x) for x in row) for row in T.rows
            ) or "empty"

        return " (x) ".join(one(T) for T in self.factors)


def as_element(seed: "KNTableau | CrystalElement") -> CrystalElement:
    if isinstance(seed, CrystalElement):
        return seed
    return CrystalElement((seed,))


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class CrystalGraph:
    """Closure of a seed under all operators, with lowering arrows stored."""

    lie_type: str
    rank: int
    vertices: tuple[CrystalElement, ...]
    arrows: Mapping[tuple[CrystalElement, int], CrystalElement]

    def __len__(self) -> int:
        return len(self.vertices)

    def sources(self) -> tuple[CrystalElement, ...]:
        """Vertices killed by every raising operator."""
        targets = set(self.arrows.values())
        return tuple(v for v in self.vertices if v not in targets)

    def character(self) -> LaurentPoly:
        return LaurentPoly.from_weights(
            self.rank, [v.weight().window(self.rank) for v in self.vertices]
        )

    def arrow_count(self) -> int:
        return len(self.arrows)

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adj: dict[CrystalElement, list[CrystalElement]] = {}
        for (src, _), dst in self.arrows.items():
            adj.setdefault(src, []).append(dst)
            adj.setdefault(dst, []).append(src)
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        while frontier:
            v = frontier.pop()
            for u in adj.get(v, ()):
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        return len(seen) == len(self.vertices)

    def to_dot(self) -> str:
        index = {v: k for k, v in enumerate(self.vertices)}
        lines = ["digraph crystal {"]
        for v in self.vertices:
            lines.append(f'  v{index[v]} [label="{v.label()}"];')
        for (src, i), dst in sorted(
            self.arrows.items(), key=lambda kv: (index[kv[0][0]], kv[0][1])
        ):
            lines.append(f'  v{index[src]} -> v{index[dst]} [label="{i}"];')
        lines.append("}")
        return "\n".join(lines)


def build_graph(
    seed: "KNTableau | CrystalElement",
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> CrystalGraph:
    """The connected component of the seed, with each arrow found once.

    The seed walks up through raising operators to the source of its
    component (a component of these crystals has exactly one), and the
    graph is then the breadth-first closure of the source under the
    lowering operators.  Every arrow is found from its tail, the arrows of
    the walk up are reused, and each operator output is checked once.
    """
    start = as_element(seed)
    lie_type, n = start.lie_type, start.rank
    arrows: dict[tuple[CrystalElement, int], CrystalElement] = {}
    source = start
    while True:
        sig = _signatures(source.word(), lie_type, n)
        i = next((i for i, pos in enumerate(sig[2]) if pos is not None), None)
        if i is None:
            break
        up = source._apply("e", i, sig)
        arrows[(up, i)] = source
        source = up
    seen = {source}
    frontier = [source]
    while frontier:
        new: list[CrystalElement] = []
        for v in frontier:
            sig = _signatures(v.word(), lie_type, n)
            for i, pos in enumerate(sig[3]):
                if pos is None:
                    continue
                down = arrows.get((v, i))
                if down is None:
                    down = arrows[(v, i)] = v._apply("f", i, sig)
                if down not in seen:
                    seen.add(down)
                    new.append(down)
            if len(seen) > max_vertices:
                raise ResourceCapError(
                    f"crystal graph exceeded {max_vertices} vertices"
                )
        frontier = new
    vertices = tuple(sorted(seen, key=CrystalElement.sort_key))
    return CrystalGraph(lie_type, n, vertices, arrows)


# ---------------------------------------------------------------------------
# highest-weight scans


def _raises_nothing(eps_y: Sequence[int], phi_x: Sequence[int]) -> bool:
    """Whether x (x) y is killed by every e_i, for x killed by every e_i:
    the signature rule then leaves only eps_i(y) - phi_i(x) minus signs."""
    return all(map(operator.le, eps_y, phi_x))


def tensor_highest_weights(
    left: Iterable[KNTableau], right: Iterable[KNTableau]
) -> list[tuple[KNTableau, KNTableau]]:
    """All pairs killed by every raising operator, in deterministic order."""
    lefts, rights = list(left), list(right)
    if not lefts or not rights:
        return []
    if lefts[0].lie_type != rights[0].lie_type or lefts[0].rank != rights[0].rank:
        raise ValueError("tensor factors must share type and rank")
    lie_type, n = lefts[0].lie_type, lefts[0].rank
    right_eps = [(y, _signatures(reading_word(y), lie_type, n)[0]) for y in rights]
    out = []
    for x in lefts:
        eps_x, phi_x, _, _ = _signatures(reading_word(x), lie_type, n)
        if any(eps_x):
            continue
        out.extend((x, y) for y, eps_y in right_eps if _raises_nothing(eps_y, phi_x))
    out.sort(key=lambda pair: (pair[0].rows, pair[1].rows))
    return out


def hw_decompose_tensor(left, right) -> dict[tuple[int, ...], int]:
    """Multiset of rank-n source weights of a tensor of two crystals."""
    pairs = tensor_highest_weights(left, right)
    out: dict[tuple[int, ...], int] = {}
    for x, y in pairs:
        n = x.rank
        window = (x.weight() + y.weight()).window(n)
        out[window] = out.get(window, 0) + 1
    return out


# ---------------------------------------------------------------------------
# rank-free labels and stabilization


@dataclass(frozen=True)
class StableComponent:
    """Label of a connected component at infinite rank.

    ``mu`` is the partition naming the finite-support part of the weight
    orbit and ``kappa`` the dominant shape carrying the level; a trivial
    ``kappa`` (empty shape at level zero) marks a pure finite-support label.
    """

    mu: tuple[int, ...]
    kappa: DominantShape

    def __str__(self) -> str:
        mu = ",".join(str(p) for p in self.mu) or "0"
        return f"[{mu} | {self.kappa}]"


def window_to_component(
    window: Sequence[int], tail: int, lie_type: str
) -> StableComponent:
    """Translate a rank-n dominant weight into its rank-free label."""
    padded = Weight(tuple(window), tail)
    _, zero_part, dominant_part = decompose_weight(padded, lie_type)
    mu = orbit_representative(zero_part)
    kappa = shape_of_weight(dominant_part, lie_type)
    return StableComponent(mu, kappa)


def _stability_blocks(window: Sequence[int], tail: int, lie_type: str) -> tuple[int, int, int]:
    """Lengths (shallow, at-tail, deep) of the three blocks of the window."""
    values = list(window)
    if lie_type == "d" and values and values[0] > 0:
        values[0] = -values[0]
    p = 0
    while p < len(values) and values[p] > tail:
        p += 1
    q = 0
    while p + q < len(values) and values[p + q] == tail:
        q += 1
    return p, q, len(values) - p - q


def _is_stable_window(
    window: Sequence[int], tail: int, lie_type: str, zero_size: int
) -> bool:
    """Whether a rank-n source weight shadows a rank-free component.

    At nonzero level the middle block sitting exactly at the tail value must
    be at least as long as the finite-support factor, mirroring the fact
    that the complementary columns must leave that much room.  At level
    zero the criterion is that no cancellation happened: the coordinate
    absolute values must sum to the full size.
    """
    if tail == 0:
        return sum(abs(m) for m in window) == zero_size
    p, q, deep = _stability_blocks(window, tail, lie_type)
    if any(window[k] == tail for k in range(p + q, len(window))):
        return False
    return q >= zero_size


def _model_source(shape: Sequence[int], lie_type: str, n: int) -> KNTableau:
    """The unique vertex killed by every raising operator, in closed form.

    Row r holds the letter r-n-1 (Kashiwara-Nakashima, J. Algebra 165,
    1994), except that at full height in type d row n holds whichever of 1
    and -1 the full-column parity admits there for the shape's sign.  The
    result is checked once against the filling rules and against eps_i = 0
    for every i; a failure raises CrystalClosureError.  The tests keep the
    walk up the raising arrows from the canonical filling as the reference.
    """
    signed = normalize_shape(shape, lie_type, n)
    rows = [(r - n - 1,) * abs(width) for r, width in enumerate(signed, start=1)]
    if lie_type == "d" and len(signed) == n:
        rows[-1] = (1 if _parity_ok(1, n, signed[-1]) else -1,) * abs(signed[-1])
    T = KNTableau(signed, tuple(rows), lie_type, n)
    if not kn_validate(T) or any(_signatures(reading_word(T), lie_type, n)[0]):
        raise CrystalClosureError(T, "source", None, T)
    return T


def _tensor_side(label: StableComponent) -> StableComponent:
    """A label as one side of a tensor job: ``mu`` checked to be a
    partition, and either ``mu`` empty or ``kappa`` at level zero."""
    mu = make_partition(label.mu)
    if mu and label.kappa.ell:
        raise ValueError("a tensor factor is either finite-support or dominant")
    return StableComponent(mu, label.kappa)


def _model_shape(side: StableComponent, n: int) -> tuple[int, ...]:
    """The rank-n model of a tensor side: its partition, or the truncation
    of its dominant shape when the partition is empty."""
    return side.mu or truncation_shape(side.kappa, n)


def _scan_at_rank(
    left: StableComponent, right: StableComponent, n: int, max_count: int
) -> dict[StableComponent, int]:
    """Source weights of the rank-n model tensor, filtered and translated.

    The left model is a single connected crystal, so only its source is
    materialized; the right model's fillings are enumerated in full as
    columns, and each is read as a word (columns right to left, each top to
    bottom) without building a tableau.
    """
    lie_type = left.kappa.lie_type
    source = _model_source(_model_shape(left, n), lie_type, n)
    phi_x = _signatures(reading_word(source), lie_type, n)[1]
    weight_x = source.weight()
    tail = -left.kappa.ell - right.kappa.ell
    zero_size = sum(left.mu) + sum(right.mu)
    signed = normalize_shape(_model_shape(right, n), lie_type, n)
    out: dict[StableComponent, int] = {}
    for cols in _column_fillings(signed, lie_type, n, max_count):
        word = [x for col in reversed(cols) for x in col]
        if not _raises_nothing(_signatures(word, lie_type, n)[0], phi_x):
            continue
        window = (weight_x + word_weight(word, n)).window(n)
        if not _is_stable_window(window, tail, lie_type, zero_size):
            continue
        label = window_to_component(window, tail, lie_type)
        out[label] = out.get(label, 0) + 1
    return out


def stabilized_decomposition(
    left: StableComponent,
    right: StableComponent,
    n_start: int | None = None,
    max_escalations: int = 2,
    max_rank: int = 24,
) -> dict[StableComponent, int]:
    """Decompose a tensor of two rank-free crystals into component labels.

    Each side is a label with an empty partition or a level-zero shape: a
    finite-support factor ``mu`` or a dominant factor ``kappa``; the type
    is read off the labels, and the unit label leaves the other side as it
    is.  Both-finite-support jobs reduce to the Littlewood-Richardson rule
    and the rank scan cross-checks it; a finite-support left factor against
    a dominant right factor is a single fused component; a dominant left
    factor is resolved by scanning ranks n and n+1 and requiring agreement
    of the translated label multisets.  Dominant times dominant has no
    faithful rank-n shadow under this translation (the labels of the
    contracted components drift upward with the rank) and lives in the ring
    layer instead, where characters decide it.

    A label with both parts set, or two labels of different types, raise
    ValueError; a ``mu`` that is not a partition raises InvalidShapeError.
    """
    left, right = _tensor_side(left), _tensor_side(right)
    lie_type = left.kappa.lie_type
    if right.kappa.lie_type != lie_type:
        raise ValueError("tensor factors must share a type")
    unit = StableComponent((), trivial_shape(lie_type))
    if left == unit:
        return {right: 1}
    if right == unit:
        return {left: 1}
    if right.kappa.ell:
        if left.kappa.ell:
            raise ValueError(
                "a product of two dominant factors is not rank-stabilizable here; "
                "use the ring layer"
            )
        return {StableComponent(left.mu, right.kappa): 1}
    expected = None
    if not left.kappa.ell:
        expected = {
            StableComponent(make_partition(nu), unit.kappa): c
            for nu, c in lr_expand(left.mu, right.mu).items()
        }

    if n_start is None:
        parts = left.mu + left.kappa.lam + right.mu + right.kappa.lam
        n_start = max(parts, default=0) + sum(parts) + 2
    n_start = max(n_start, 2)
    # The even orthogonal family swaps full-height columns with their signed
    # twins at odd ranks, so its scans compare two even ranks; the other
    # types compare consecutive ranks.
    step = 2 if lie_type == "d" else 1
    n = n_start + (n_start % 2 if lie_type == "d" else 0)
    first = second = None
    for _ in range(max_escalations + 1):
        if n + step > max_rank:
            break
        first = _scan_at_rank(left, right, n, DEFAULT_MAX_VERTICES)
        second = _scan_at_rank(left, right, n + step, DEFAULT_MAX_VERTICES)
        if first == second and (expected is None or first == expected):
            return first
        n += 2
    message = f"decomposition did not stabilize by rank {min(n, max_rank)}"
    if first is not None:
        ranks = f"ranks {n - 2} and {n - 2 + step}"
        if first != second:
            message += f"; {ranks} differ on " + _label_diff(first, second)
        else:
            message += (
                f"; {ranks} agree but differ from the Littlewood-Richardson "
                "labels on " + _label_diff(first, expected)
            )
    raise StabilizationError(message, first, second, expected)


def _label_diff(
    got: Mapping[StableComponent, int], want: Mapping[StableComponent, int]
) -> str:
    """How many labels differ in multiplicity, the first three spelled out
    as ``label got/want``, so that an error message stays one short line."""
    diff = [
        f"{x} {got.get(x, 0)}/{want.get(x, 0)}"
        for x in sorted(set(got) | set(want), key=str)
        if got.get(x, 0) != want.get(x, 0)
    ]
    more = f" and {len(diff) - 3} more" if len(diff) > 3 else ""
    return f"{len(diff)} labels: " + ", ".join(diff[:3]) + more


def letter_graph_edges(lie_type: str, n: int) -> tuple[tuple[int, int, int], ...]:
    """All (source letter, index, target letter) arrows of the one-box crystal."""
    strings = _letter_strings(lie_type, n)
    return tuple(sorted((x, i, y) for i, s in strings for x, y in zip(s, s[1:])))
