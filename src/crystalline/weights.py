"""Partitions, eventually-constant weights, and dominant-weight bookkeeping.

A weight here is an integer vector (m_1, m_2, m_3, ...) whose coordinates
are eventually equal to a constant ``tail``.  The orthogonal and symplectic
families are tagged by a single lowercase letter:

* ``"b"`` : odd orthogonal,
* ``"c"`` : symplectic,
* ``"d"`` : even orthogonal.

Dominance is tested against the simple coroots, whose pairings with a
weight w are

* i >= 1 : m_i - m_{i+1},
* i == 0 : -m_1 (c), -2*m_1 (b), -m_1 - m_2 (d).

Dominant weights of negative tail -L are labelled by a partition together
with the column count L (:class:`DominantShape`); level-zero weights are
labelled, up to the signed Weyl group, by a plain partition.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

LIE_TYPES = ("b", "c", "d")

Partition = tuple[int, ...]


class InvalidShapeError(ValueError):
    """Raised when a sequence is not a valid partition or shape label."""


class ResourceCapError(RuntimeError):
    """Raised when an enumeration or graph search exceeds its size cap."""


class StabilizationError(RuntimeError):
    """Raised when ranks n and n+1 keep disagreeing within the retry cap.

    It carries the evidence its raiser has, each None where there is none:
    ``first`` and ``second``, the last two label multisets compared;
    ``expected``, the multiset they had to match; ``leftover``, the part of
    a product that no basis element of the level absorbed.
    """

    def __init__(
        self,
        message: str,
        first: Mapping | None = None,
        second: Mapping | None = None,
        expected: Mapping | None = None,
        leftover: object = None,
    ):
        super().__init__(message)
        self.first, self.second = first, second
        self.expected, self.leftover = expected, leftover


def check_lie_type(lie_type: str) -> str:
    if lie_type not in LIE_TYPES:
        raise InvalidShapeError(f"unknown type {lie_type!r}, expected one of {LIE_TYPES}")
    return lie_type


# ---------------------------------------------------------------------------
# partitions


def is_partition(parts: Sequence[int]) -> bool:
    """True if ``parts`` is weakly decreasing with positive entries."""
    return all(isinstance(p, int) for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    ) and (len(parts) == 0 or parts[-1] > 0)


def make_partition(parts: Sequence[int]) -> Partition:
    """Normalize ``parts`` (trailing zeros dropped) and validate.

    Parts must be integers: a float or a string raises TypeError instead of
    being truncated or parsed.
    """
    trimmed = tuple(map(operator.index, parts))
    while trimmed and trimmed[-1] == 0:
        trimmed = trimmed[:-1]
    if not is_partition(trimmed):
        raise InvalidShapeError(f"not a partition: {list(parts)}")
    return trimmed


def conjugate(parts: Sequence[int]) -> Partition:
    """Transpose of a partition: column lengths of its diagram."""
    return _transpose(make_partition(parts))


def _transpose(lam: Partition) -> Partition:
    """Conjugate of a partition already known to be valid."""
    cols: list[int] = []
    for height in range(len(lam), 0, -1):
        cols.extend([height] * (lam[height - 1] - len(cols)))
    return tuple(cols)


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """Yield the partitions of ``n`` with parts bounded by ``max_part``."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first, *rest)


def partitions_in_box(rows: int, cols: int) -> Iterator[Partition]:
    """Yield all partitions with at most ``rows`` parts, each at most ``cols``."""
    for size in range(rows * cols + 1):
        for lam in partitions_of(size, cols):
            if len(lam) <= rows:
                yield lam


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class Weight:
    """Integer weight vector with eventually constant coordinates.

    ``prefix`` stores the leading coordinates and ``tail`` the constant the
    coordinates settle to; the stored prefix never ends with the tail value,
    so equal weights compare equal structurally.  Both must be integers: a
    float or a string raises TypeError instead of being truncated.
    """

    prefix: tuple[int, ...] = ()
    tail: int = 0

    def __post_init__(self) -> None:
        tail = operator.index(self.tail)
        pref = tuple(map(operator.index, self.prefix))
        while pref and pref[-1] == tail:
            pref = pref[:-1]
        object.__setattr__(self, "prefix", pref)
        object.__setattr__(self, "tail", tail)

    def coeff(self, i: int) -> int:
        """Coordinate m_i, 1-indexed."""
        if i < 1:
            raise IndexError("weight coordinates are 1-indexed")
        return self.prefix[i - 1] if i <= len(self.prefix) else self.tail

    def window(self, n: int) -> tuple[int, ...]:
        """First ``n`` coordinates as a tuple."""
        return tuple(self.coeff(i) for i in range(1, n + 1))

    def support(self) -> int:
        """Length of the stored prefix (last index that may differ from tail)."""
        return len(self.prefix)

    def is_zero(self) -> bool:
        return self.tail == 0 and not self.prefix

    def __add__(self, other: "Weight") -> "Weight":
        n = max(self.support(), other.support())
        return Weight(
            tuple(self.coeff(i) + other.coeff(i) for i in range(1, n + 1)),
            self.tail + other.tail,
        )

    def __sub__(self, other: "Weight") -> "Weight":
        return self + (-other)

    def __neg__(self) -> "Weight":
        return Weight(tuple(-m for m in self.prefix), -self.tail)

    def __str__(self) -> str:
        coords = ", ".join(str(m) for m in self.prefix)
        sep = ", " if coords else ""
        return f"({coords}{sep}{self.tail}, {self.tail}, ...)"

    @staticmethod
    def from_exceptions(tail: int, exceptions: Mapping[int | str, int]) -> "Weight":
        """Build a weight from a tail value and a sparse coordinate map."""
        fixed = {int(k): v for k, v in exceptions.items()}
        if fixed and min(fixed) < 1:
            raise IndexError("weight coordinates are 1-indexed")
        top = max(fixed, default=0)
        return Weight(tuple(fixed.get(i, tail) for i in range(1, top + 1)), tail)

    def to_json(self) -> dict:
        return {
            "tail": self.tail,
            "exceptions": {
                str(i + 1): m for i, m in enumerate(self.prefix) if m != self.tail
            },
        }

    @staticmethod
    def from_json(data: Mapping | str) -> "Weight":
        if isinstance(data, str):
            data = json.loads(data)
        return Weight.from_exceptions(data["tail"], data.get("exceptions", {}))


def pairing(w: Weight, i: int, lie_type: str) -> int:
    """Pairing of ``w`` with the i-th simple coroot."""
    check_lie_type(lie_type)
    if i > 0:
        return w.coeff(i) - w.coeff(i + 1)
    if i != 0:
        raise IndexError(f"no simple coroot of index {i}")
    if lie_type == "c":
        return -w.coeff(1)
    if lie_type == "b":
        return -2 * w.coeff(1)
    return -w.coeff(1) - w.coeff(2)


def is_dominant(w: Weight, lie_type: str) -> bool:
    """True if every simple-coroot pairing is non-negative."""
    top = w.support() + 1
    return all(pairing(w, i, lie_type) >= 0 for i in range(0, top + 1))


def level(w: Weight, lie_type: str) -> int:
    """Level of the weight: -2*tail for b and d, -tail for c.

    The tail coordinate alone carries the central pairing; the formula is
    the unique one matching (column count) = -tail across all three types.
    """
    check_lie_type(lie_type)
    if lie_type == "c":
        return -w.tail
    return -2 * w.tail


# ---------------------------------------------------------------------------
# dominant shapes


@dataclass(frozen=True)
class DominantShape:
    """Partition plus column count labelling a dominant weight of tail -ell.

    For types b and c the partition must fit in ``ell`` rows.  Type d also
    admits taller partitions subject to lam'_1 + lam'_2 <= 2*ell; those
    encode powers of the barred degree-0 generator.
    """

    lie_type: str
    lam: Partition
    ell: int

    def __post_init__(self) -> None:
        check_lie_type(self.lie_type)
        lam = make_partition(self.lam)
        object.__setattr__(self, "lam", lam)
        if self.ell < 0:
            raise InvalidShapeError("column count must be non-negative")
        cols = conjugate(lam)
        height = cols[0] if cols else 0
        if self.lie_type in ("b", "c"):
            if height > self.ell:
                raise InvalidShapeError(
                    f"partition has {height} rows, more than ell={self.ell}"
                )
        else:
            second = cols[1] if len(cols) > 1 else 0
            if height + second > 2 * self.ell:
                raise InvalidShapeError(
                    f"lam'_1 + lam'_2 = {height + second} exceeds 2*ell = {2 * self.ell}"
                )

    @property
    def height(self) -> int:
        return len(self.lam)

    def __str__(self) -> str:
        parts = ",".join(str(p) for p in self.lam) or "0"
        return f"{parts}@{self.ell}"

    def to_json(self) -> dict:
        return {"type": self.lie_type.upper(), "lam": list(self.lam), "ell": self.ell}

    @staticmethod
    def from_json(data: Mapping | str) -> "DominantShape":
        if isinstance(data, str):
            data = json.loads(data)
        return DominantShape(data["type"].lower(), tuple(data["lam"]), data["ell"])


def trivial_shape(lie_type: str) -> DominantShape:
    """The empty shape at level zero, the dominant part of a level-zero label."""
    return DominantShape(lie_type, (), 0)


def level_shapes(
    lie_type: str, ell: int, sizes: Iterable[int], max_part: int | None = None
) -> tuple[DominantShape, ...]:
    """The valid dominant shapes of level ``ell`` with a box count in ``sizes``
    (any iterable of sizes) and parts at most ``max_part``, by size, then in
    the order of :func:`partitions_of`."""
    return _level_shapes(lie_type, ell, tuple(sizes), max_part)


@lru_cache(maxsize=None)
def _level_shapes(lie_type: str, ell: int, sizes: tuple, max_part: int | None) -> tuple:
    shapes = []
    for size in sizes:
        for lam in partitions_of(size, max_part):
            try:
                shapes.append(DominantShape(lie_type, lam, ell))
            except InvalidShapeError:
                continue
    return tuple(shapes)


def dominant_weight(shape: DominantShape) -> Weight:
    """The dominant weight with coordinates lam'_i - ell and tail -ell."""
    cols = conjugate(shape.lam)
    return Weight(tuple(c - shape.ell for c in cols), -shape.ell)


def shape_of_weight(w: Weight, lie_type: str) -> DominantShape:
    """Inverse of :func:`dominant_weight`.

    Raises :class:`InvalidShapeError` when ``w`` is not dominant with
    non-positive tail, or when the recovered column heights do not form a
    valid shape for the type.
    """
    if not is_dominant(w, lie_type):
        raise InvalidShapeError(f"weight {w} is not dominant for type {lie_type}")
    ell = -w.tail
    if ell < 0:
        raise InvalidShapeError("dominant shapes require a non-positive tail")
    cols = [w.coeff(i) + ell for i in range(1, w.support() + 1)]
    lam = conjugate_heights_to_partition(cols)
    return DominantShape(lie_type, lam, ell)


def conjugate_heights_to_partition(cols: Sequence[int]) -> Partition:
    """Rebuild a partition from its weakly decreasing column heights."""
    heights = [c for c in cols if c != 0]
    if any(c < 0 for c in cols) or any(
        heights[i] < heights[i + 1] for i in range(len(heights) - 1)
    ):
        raise InvalidShapeError(f"column heights {list(cols)} are not weakly decreasing")
    return conjugate(tuple(heights))


def orbit_representative(w: Weight) -> Partition:
    """Partition labelling the signed-permutation orbit of a level-zero weight.

    Coordinates may be permuted and flipped in sign (type d flips come in
    pairs, but with infinitely many vanishing coordinates available a single
    flip is always realizable by pairing with one of them), so the multiset
    of absolute values is a complete invariant for every type.
    """
    if w.tail != 0:
        raise InvalidShapeError("orbit labels are defined for level-zero weights only")
    return tuple(sorted((abs(m) for m in w.prefix if m != 0), reverse=True))


def decompose_weight(w: Weight, lie_type: str) -> tuple[Weight, Weight, Weight]:
    """Split the orbit of ``w`` into a level-zero and a dominant part.

    Returns ``(nu, nu0, nuplus)`` where ``nu`` is the canonical orbit
    representative, ``nuplus`` is dominant with the same tail as ``w``,
    ``nu0`` is level zero, and ``nu = nuplus + nu0``.  For type d with no
    vanishing coordinate the parity of the number of positive coordinates
    is a second orbit invariant; when it is odd the canonical form keeps a
    single positive first coordinate of least absolute value.
    """
    check_lie_type(lie_type)
    if w.tail > 0:
        raise InvalidShapeError("decomposition requires a non-positive tail")
    if w.tail == 0:
        return w, w, Weight()

    tail = w.tail
    values = list(w.prefix)
    head: list[int] = []
    if lie_type == "d" and all(v != 0 for v in values):
        positives = sum(1 for v in values if v > 0)
        if positives % 2 == 1:
            # sign flips come in pairs, so with no vanishing coordinate the
            # parity of the positive count is fixed; keep one positive entry
            # of least absolute value (possibly a flipped tail coordinate)
            least = min(min(abs(v) for v in values), -tail)
            head = [least]
            if least < -tail:
                values.remove(least if least in values else -least)
    flipped = sorted((-abs(v) for v in values), reverse=True)
    upper = [v for v in flipped if v > tail]
    lower = [v for v in flipped if v < tail]
    nu = Weight((*head, *upper, *lower), tail)
    nuplus = Weight((*head, *upper), tail)
    p = len(head) + len(upper)
    nu0 = Weight(tuple([0] * p + [v - tail for v in lower]), 0)
    if nuplus + nu0 != nu:
        raise RuntimeError(
            f"decomposition of {w}: {nuplus} + {nu0} does not give {nu}"
        )
    if not is_dominant(nuplus, lie_type):
        raise RuntimeError(
            f"decomposition of {w}: {nuplus} is not dominant in type {lie_type}"
        )
    return nu, nu0, nuplus


def fuse_zero_dominant(lz: Sequence[int], mu: Weight, lie_type: str) -> Weight:
    """Fused weight of a level-zero partition label past a dominant weight.

    The partition ``lz`` is planted, negated and reversed, on the first
    coordinates of ``mu`` that still sit at the tail, so the result is the
    canonical orbit representative whose decomposition returns the pair.
    """
    check_lie_type(lie_type)
    lam = make_partition(lz)
    if not is_dominant(mu, lie_type):
        raise InvalidShapeError("fusion expects a dominant second factor")
    p = mu.support()
    planted = tuple(mu.tail - part for part in reversed(lam))
    return Weight(mu.window(p) + planted, mu.tail)


def truncation_shape(shape: DominantShape, n: int) -> tuple[int, ...]:
    """Tableau shape of the rank-n model of a dominant shape.

    For a partition fitting in its column count the result is the conjugate
    of (n - lam_ell, ..., n - lam_1), a partition with at most n rows.  Type
    d shapes with more rows than columns produce a generalized shape whose
    last entry is the negative number ell - t.
    """
    lam, ell = shape.lam, shape.ell
    t = len(lam)
    if t <= ell:
        if lam and lam[0] > n:
            raise InvalidShapeError(f"largest part {lam[0]} exceeds rank {n}")
        padded = tuple(lam) + (0,) * (ell - t)
        decreasing = tuple(n - padded[i] for i in range(ell - 1, -1, -1))
        return conjugate(decreasing)
    if shape.lie_type != "d":
        raise InvalidShapeError("only type d admits shapes taller than their column count")
    reduced = DominantShape(
        "d", make_partition(tuple(lam[: 2 * ell - t]) + (1,) * (t - ell)), ell
    )
    prefix = truncation_shape(reduced, n)
    if len(prefix) != n - 1:
        prefix = prefix + (0,) * (n - 1 - len(prefix))
    return prefix + (ell - t,)
