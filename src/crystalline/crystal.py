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
A graph walks its seed up to its source, then closes under lowering
operators on reading words, checking each vertex once; the source of one
model has a closed form.  Tensor sources come from ``tableaux``'s column
walk, whose signature fold drops any prefix that cannot stay highest weight.

Rank-stabilized decompositions translate the sources of a rank-n model into
rank-free labels: a pair of a partition (the finite-support part of the
weight orbit) and a dominant shape (the part with a level).  The translated
multiset must agree between ranks n and n+1, with escalation on mismatch.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from crystalline.symfunc import LaurentPoly, lr_expand
from crystalline.tableaux import (
    DEFAULT_MAX_VERTICES,
    KNTableau,
    _column_chains,
    _parity_ok,
    _word_window,
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
def _letter_steps(lie_type: str, n: int) -> Mapping[tuple[str, int, int], int]:
    """(op, letter, i) -> the letter that e_i ("e") or f_i ("f") moves it to,
    as a read-only map, since every caller shares it."""
    steps = {}
    for i, string in _letter_strings(lie_type, n):
        for x, y in zip(string, string[1:]):
            steps["f", x, i] = y
            steps["e", y, i] = x
    return MappingProxyType(steps)


@lru_cache(maxsize=None)
def _letter_moves(
    lie_type: str, n: int
) -> Mapping[int, tuple[tuple[int, int, int], ...]]:
    """Per letter, (i, eps_i, phi_i) for each i-string through it, by i: its
    distance from either end of the string.  A letter lies on the strings of
    at most three indices.  Read-only, like :func:`_letter_steps`."""
    moves: dict[int, list] = {x: [] for x in alphabet(lie_type, n)}
    for i, string in _letter_strings(lie_type, n):
        for eps, x in enumerate(string):
            moves[x].append((i, eps, len(string) - 1 - eps))
    return MappingProxyType({x: tuple(sorted(m)) for x, m in moves.items()})


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
    try:
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
    except KeyError as err:
        raise ValueError(f"letter {err} outside the rank-{n} alphabet") from None
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
    one-factor case of :meth:`CrystalElement.op`, so a result that breaks
    the filling rules raises CrystalClosureError."""
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
        return tuple(x for T in self.factors for x in reading_word(T))

    def sort_key(self) -> tuple:
        return tuple((T.shape, T.rows) for T in self.factors)

    def op(self, op: str, i: int) -> "CrystalElement | None":
        """Apply the operator by the signature rule on the factors' reading word;
        a changed factor that breaks the filling rules raises CrystalClosureError."""
        if op not in ("e", "f"):
            raise ValueError(f"operator must be 'e' or 'f', got {op!r}")
        step = tensor_f if op == "f" else tensor_e
        after = step(self.word(), i, self.lie_type, self.rank)
        return None if after is None else _rebuild(self, op, i, after)

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


def _rebuild(
    before: CrystalElement, op: str, i: int, word: tuple[int, ...]
) -> CrystalElement:
    """The element one step (op, i) from ``before`` with reading word
    ``word``, its factors refilled from their pieces of the word; a changed
    factor that breaks the filling rules raises CrystalClosureError."""
    factors, letters = [], iter(word)
    for T in before.factors:
        rows = [[0] * abs(width) for width in T.shape]
        for (r, c), x in zip(reading_positions(T.shape), letters):
            rows[r][c] = x
        rows = tuple(map(tuple, rows))
        if rows != T.rows:
            after = KNTableau._trusted(T.shape, rows, T.lie_type, T.rank)
            if not kn_validate(after):
                raise CrystalClosureError(T, op, i, after)
            T = after
        factors.append(T)
    return CrystalElement(tuple(factors))


def as_element(seed: "KNTableau | CrystalElement") -> CrystalElement:
    if isinstance(seed, CrystalElement):
        return seed
    return CrystalElement((seed,))


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class CrystalGraph:
    """Closure of a seed under all operators, with lowering arrows stored as
    sorted (source index, i, target index) triples into ``vertices``."""

    lie_type: str
    rank: int
    vertices: tuple[CrystalElement, ...]
    arrows: tuple[tuple[int, int, int], ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def sources(self) -> tuple[CrystalElement, ...]:
        """Vertices killed by every raising operator."""
        targets = {t for _, _, t in self.arrows}
        return tuple(v for k, v in enumerate(self.vertices) if k not in targets)

    def character(self) -> LaurentPoly:
        return LaurentPoly.from_weights(
            self.rank, [v.weight().window(self.rank) for v in self.vertices]
        )

    def arrow_count(self) -> int:
        return len(self.arrows)

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adj: list[list[int]] = [[] for _ in self.vertices]
        for src, _, dst in self.arrows:
            adj[src].append(dst)
            adj[dst].append(src)
        seen = {0}
        frontier = [0]
        while frontier:
            for u in adj[frontier.pop()]:
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        return len(seen) == len(self.vertices)

    def edges(self) -> list[tuple[int, int, int]]:
        """The arrows as sorted (source index, i, target index) triples into
        ``vertices``; the source and i fix the target."""
        return list(self.arrows)

    def to_dot(self) -> str:
        lines = ["digraph crystal {"]
        for k, v in enumerate(self.vertices):
            lines.append(f'  v{k} [label="{v.label()}"];')
        for src, i, dst in self.edges():
            lines.append(f'  v{src} -> v{dst} [label="{i}"];')
        lines.append("}")
        return "\n".join(lines)


def build_graph(
    seed: "KNTableau | CrystalElement",
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> CrystalGraph:
    """The connected component of the seed, with each arrow found once.

    The seed walks up through raising operators to the source of its
    component (a component of these crystals has exactly one), then the
    source's reading word is closed under the lowering operators.  Every
    arrow is found from its tail, the walk's arrows are reused, and each
    vertex but the seed is built and checked once, when first reached.
    """
    seed = as_element(seed)
    lie_type, n = seed.lie_type, seed.rank
    source = seed.word()
    elements = {source: seed}
    arrows: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
    while True:
        e_pos = _signatures(source, lie_type, n)[2]
        i = next((i for i, pos in enumerate(e_pos) if pos is not None), None)
        if i is None:
            break
        up = _step(source, e_pos[i], "e", i, lie_type, n)
        elements[up] = _rebuild(elements[source], "e", i, up)
        arrows[up, i] = source
        source = up
    seen = {source}
    frontier = [source]
    while frontier:
        new: list[tuple[int, ...]] = []
        for v in frontier:
            for i, pos in enumerate(_signatures(v, lie_type, n)[3]):
                if pos is None:
                    continue
                down = arrows.get((v, i))
                if down is None:
                    down = arrows[v, i] = _step(v, pos, "f", i, lie_type, n)
                if down not in seen:
                    seen.add(down)
                    new.append(down)
                    if down not in elements:
                        elements[down] = _rebuild(elements[v], "f", i, down)
            if len(seen) > max_vertices:
                raise ResourceCapError(
                    f"crystal graph exceeded {max_vertices} vertices"
                )
        frontier = new
    words = sorted(elements, key=lambda w: elements[w].sort_key())
    index = {w: k for k, w in enumerate(words)}
    edges = tuple(sorted((index[v], i, index[w]) for (v, i), w in arrows.items()))
    return CrystalGraph(lie_type, n, tuple(elements[w] for w in words), edges)


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
    return dict(Counter((x.weight() + y.weight()).window(x.rank) for x, y in pairs))


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
    return _component(Weight(tuple(window), tail), lie_type)


# Keyed by the weight, which drops the window's trailing tail-valued
# coordinates, so scans at consecutive ranks and later products share
# translations: the scans of `groth h:2*z:3*h:1*z:2 --type c` translate 668
# windows, which are 240 distinct weights.
@lru_cache(maxsize=4096)
def _component(weight: Weight, lie_type: str) -> StableComponent:
    _, zero_part, dominant_part = decompose_weight(weight, lie_type)
    mu = orbit_representative(zero_part)
    kappa = shape_of_weight(dominant_part, lie_type)
    return StableComponent(mu, kappa)


def _stability_blocks(window: Sequence[int], tail: int, lie_type: str) -> tuple[int, int]:
    """Lengths (shallow, at-tail) of the first two blocks of the window."""
    values = list(window)
    if lie_type == "d" and values and values[0] > 0:
        values[0] = -values[0]
    p = 0
    while p < len(values) and values[p] > tail:
        p += 1
    q = 0
    while p + q < len(values) and values[p + q] == tail:
        q += 1
    return p, q


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
    p, q = _stability_blocks(window, tail, lie_type)
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

    The left model is a single connected crystal, so only its source x is
    materialized, and x (x) y is a source exactly when eps_i(y) <= phi_i(x)
    for every i.  The right model's fillings y come from the column walk
    (:func:`tableaux._column_chains`), which folds their reading words into
    the minus and plus counts of :func:`_signatures` and drops a prefix once
    some eps_i of it exceeds phi_i(x): eps_i of a word is at least eps_i of
    any prefix, since the signature rule only adds minus signs as the word
    grows.  The survivors are counted by weight window, and each distinct
    window is filtered and translated once.  A node is a letter folded; more
    than max_count nodes raise ResourceCapError.
    """
    lie_type = left.kappa.lie_type
    source = _model_source(_model_shape(left, n), lie_type, n)
    phi_x = _signatures(reading_word(source), lie_type, n)[1]
    tail = -left.kappa.ell - right.kappa.ell
    zero_size = sum(left.mu) + sum(right.mu)
    signed = normalize_shape(_model_shape(right, n), lie_type, n)
    moves = _letter_moves(lie_type, n)
    nodes = 0

    def fold(state, x):
        nonlocal nodes
        nodes += 1
        if nodes > max_count:
            raise ResourceCapError(
                f"more than {max_count} scan nodes for shape {signed} at rank {n}"
            )
        minus, plus = state
        minus, plus = list(minus), list(plus)
        for i, eps, phi in moves[x]:
            have = plus[i]
            if eps > have:
                minus[i] += eps - have
                if minus[i] > phi_x[i]:
                    return None  # and so does every word through this prefix
                have = eps  # so that every plus sign is cancelled
            plus[i] = have - eps + phi
        return tuple(minus), tuple(plus)

    windows: Counter[tuple[int, ...]] = Counter()
    for cols in _column_chains(signed, lie_type, n, fold, ((0,) * n, (0,) * n)):
        windows[_word_window((x for col in cols for x in col), n)] += 1
    shift = source.weight().window(n)
    out: dict[StableComponent, int] = {}
    for weight_y, count in windows.items():
        window = tuple(map(operator.add, shift, weight_y))
        if _is_stable_window(window, tail, lie_type, zero_size):
            label = window_to_component(window, tail, lie_type)
            out[label] = out.get(label, 0) + count
    return out


_SCAN_ESCALATIONS, _SCAN_MAX_RANK = 2, 24


def stabilized_decomposition(
    left: StableComponent, right: StableComponent
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

    The scan starts at rank |kappa| + 2(|mu_left| + |mu_right|), at least 2
    and even in type d; a start above the scan cap raises ResourceCapError.
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
        lr = lr_expand(left.mu, right.mu)
        expected = {StableComponent(nu, unit.kappa): c for nu, c in lr.items()}
    # Crossing a finite class lowers a dominant shape by at most two boxes
    # per box crossed (grothendieck.groth_mul's window rule), so every
    # component has appeared by this rank.  The even orthogonal family swaps
    # full-height columns with their signed twins at odd ranks, so its scans
    # compare two even ranks; the other types compare consecutive ranks.
    start = max(sum(left.kappa.lam) + 2 * (sum(left.mu) + sum(right.mu)), 2)
    step = 2 if lie_type == "d" else 1
    start += start % step
    if start + step > _SCAN_MAX_RANK:
        raise ResourceCapError(
            f"no rank was scanned: the product needs ranks {start} and "
            f"{start + step}, but the scan cap is rank {_SCAN_MAX_RANK}"
        )
    last = min(start + 2 * _SCAN_ESCALATIONS, _SCAN_MAX_RANK - step)
    for n in range(start, last + 1, 2):
        first = _scan_at_rank(left, right, n, DEFAULT_MAX_VERTICES)
        second = _scan_at_rank(left, right, n + step, DEFAULT_MAX_VERTICES)
        if first == second and (expected is None or first == expected):
            return first
    top = n + step
    message = f"decomposition did not stabilize by rank {top}; ranks {n} and {top}"
    if first != second:
        message += " differ on " + _label_diff(first, second)
    else:
        message += " agree but differ from the Littlewood-Richardson labels on "
        message += _label_diff(first, expected)
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
