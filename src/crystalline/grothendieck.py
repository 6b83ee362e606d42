"""Ring of crystal classes and its rewriting-algebra realization.

The ring has a basis of pairs (mu, kappa): mu a partition labelling a
finite-support class and kappa a dominant shape carrying the level, the
pair standing for the class of the ordered tensor of the two crystals.
Multiplication is the tensor product and is not commutative: a dominant
class past a finite-support class decomposes with correction terms, while
the opposite order fuses into a single class.

The four basis products are resolved as follows:

* finite x finite: Littlewood-Richardson;
* finite x dominant: a single fused basis element;
* dominant x finite: rank-stabilized scans (crystal layer);
* dominant x dominant: expansion of the product of the two character
  series in the character basis of the target level, peeled degree by
  degree.  Each basis series starts in degree |kappa| with unit leading
  Schur coefficient (asserted at run time), so coefficients at one degree
  are final once that degree is peeled.

A product of two positive-level classes is an infinite sum in this basis
(the simplest symplectic example is the square of the level-one class on
the empty shape, which expands over all two-row rectangles).  Elements
therefore carry an optional exactness window: ``through_degree = D``
means every stored coefficient with |kappa| <= D is exact and nothing is
claimed above.  Products and sums propagate the window; coefficient
extraction below the window needs no escalation or stabilization step.

The rewriting algebra has commuting generators z_b (finite-support one
column classes), h_a (one row dominant classes at level one, with the
barred companion hbar for the even orthogonal type), and the relation
that moves a z past an h: h_a z_b = z_b h_a + delta_b(h_a), where delta
is the closed-form correction table of the type.  The map psi sends a
basis pair to (dual determinant in z) times (level determinant in h) and
is a ring homomorphism on exact elements, which the tests check against
the scans.
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable, Iterable, Mapping, Sequence

from crystalline.crystal import StableComponent, stabilized_decomposition
from crystalline.symfunc import (
    SchurSeries,
    _lr,
    determinant,
    lr_expand,
    s_g_series,
    schur_basis,
    type_determinant,
)
from crystalline.termmap import Accumulator, TermMap, show_terms
from crystalline.weights import (
    DominantShape,
    InvalidShapeError,
    Partition,
    StabilizationError,
    check_lie_type,
    conjugate,
    level_shapes,
    make_partition,
    trivial_shape,
)

Label = StableComponent

DEFAULT_TRUNCATION_DEGREE = 10


def make_label(
    lie_type: str, mu: Sequence[int] = (), kappa: DominantShape | None = None
) -> Label:
    if kappa is None:
        kappa = trivial_shape(lie_type)
    if kappa.lie_type != lie_type:
        raise InvalidShapeError("label and shape types differ")
    if kappa.ell == 0 and kappa.lam:
        raise InvalidShapeError("level zero labels must have an empty shape part")
    return StableComponent(make_partition(mu), kappa)


def label_sort_key(label: Label):
    return (label.kappa.ell, sum(label.kappa.lam), label.kappa.lam, label.mu)


def _label_size(label: Label) -> int:
    return sum(label.kappa.lam)


# ---------------------------------------------------------------------------
# ring elements


class GrothElement(TermMap):
    """Integer combination of basis pairs with an optional exactness window.

    ``through_degree`` of None means the combination is exact and finite.
    A value D means coefficients on labels whose dominant shape has at
    most D boxes are exact, and labels above the window are not stored.
    Sums keep the narrower window.
    """

    __slots__ = ()
    lie_type = property(lambda self: self._ctx[0])
    through_degree = property(lambda self: self._ctx[1])

    def __init__(
        self,
        lie_type: str,
        terms: Mapping[Label, int] | None = None,
        through_degree: int | None = None,
    ):
        check_lie_type(lie_type)
        self._init((lie_type, _check_window(through_degree)), terms)

    @staticmethod
    def _key(ctx: tuple, label: Label) -> Label | None:
        if label.kappa.lie_type != ctx[0]:
            raise InvalidShapeError("term type does not match element type")
        if make_partition(label.mu) != label.mu:
            raise InvalidShapeError(f"label part {label.mu!r} is not a partition")
        return label if ctx[1] is None or _label_size(label) <= ctx[1] else None

    @staticmethod
    def _join(a: tuple, b: tuple) -> tuple:
        if a[0] != b[0]:
            raise InvalidShapeError("cannot combine elements of different types")
        return (a[0], _min_window(a[1], b[1]))

    def __mul__(self, other: "GrothElement") -> "GrothElement":
        return groth_mul(self, other)

    def coefficient(self, label: Label) -> int:
        if self.through_degree is not None and _label_size(label) > self.through_degree:
            raise ValueError(
                f"label size {_label_size(label)} is beyond the exactness window"
                f" {self.through_degree}"
            )
        return self.terms.get(label, 0)

    def sorted_terms(self) -> list[tuple[Label, int]]:
        return sorted(self.terms.items(), key=lambda kv: label_sort_key(kv[0]))

    def __str__(self) -> str:
        body = show_terms(self.sorted_terms())
        if self.through_degree is not None:
            body += f" + O({self.through_degree + 1})"
        return body

    def to_json(self) -> dict:
        terms = [
            {
                "mu": list(label.mu),
                "kappa": {"lam": list(label.kappa.lam), "ell": label.kappa.ell},
                "coeff": c,
            }
            for label, c in self.sorted_terms()
        ]
        return {
            "lie_type": self.lie_type,
            "through_degree": self.through_degree,
            "terms": terms,
        }


def _check_window(through_degree) -> int | None:
    """A window given from outside, as an int (``True`` reads 1) or None.

    Windows key the memo tables and are printed, so one that is not an
    integer is refused here rather than deep inside a product.
    """
    if through_degree is None:
        return None
    try:
        return operator.index(through_degree)
    except TypeError:
        raise TypeError(f"through_degree {through_degree!r} is not an integer") from None


def _min_window(a: int | None, b: int | None) -> int | None:
    """The narrower of two exactness windows, None standing for no window."""
    return b if a is None else a if b is None else min(a, b)


def _trusted_element(
    lie_type: str, terms: Mapping[Label, int], window: int | None = None
) -> GrothElement:
    """An element on labels already valid for the type, cut to the window as
    :meth:`GrothElement._key` cuts it; nothing is validated again."""
    if window is not None:
        terms = {l: c for l, c in terms.items() if _label_size(l) <= window}
    return GrothElement._trusted((lie_type, window), terms)


def groth_basis(
    lie_type: str, mu: Sequence[int] = (), kappa: DominantShape | None = None
) -> GrothElement:
    """The basis element [finite-support mu tensor dominant kappa]."""
    return GrothElement(lie_type, {make_label(lie_type, mu, kappa): 1})


def groth_one(lie_type: str) -> GrothElement:
    return groth_basis(lie_type)


def column_class(lie_type: str, b: int) -> GrothElement:
    """The one-column finite-support class (z_b)."""
    if b < 0:
        raise InvalidShapeError("column heights are non-negative")
    return groth_basis(lie_type, (1,) * b)


def row_class(lie_type: str, a: int) -> GrothElement:
    """The one-row level-one dominant class (h_a)."""
    if a < 0:
        raise InvalidShapeError("row widths are non-negative")
    lam = (a,) if a else ()
    return groth_basis(lie_type, (), DominantShape(lie_type, lam, 1))


def barred_class() -> GrothElement:
    """The even orthogonal barred level-one class (hbar_0)."""
    return groth_basis("d", (), DominantShape("d", (1, 1), 1))


def shape_class(lie_type: str, lam: Sequence[int], ell: int) -> GrothElement:
    return groth_basis(lie_type, (), DominantShape(lie_type, lam, ell))


# ---------------------------------------------------------------------------
# basis products


def _widest_window(cut: Callable) -> Callable:
    """Memo for ``build(*key, window)``: each key holds one entry, built at
    the widest window asked so far.  A wider ask rebuilds it; a narrower one
    is ``cut(entry, window)``, which equals a build at that window, since
    truncating a series in degree is a ring map and a product exact through
    a window holds every coefficient of one exact through a narrower one."""

    def wrap(build: Callable) -> Callable:
        table: dict = {}

        @wraps(build)
        def memo(*args):
            key, window = args[:-1], args[-1]
            held = table.get(key)
            if held is None or held[0] < window:
                held = table[key] = (window, build(*args))
            return held[1] if held[0] == window else cut(held[1], window)

        memo.cache_clear = table.clear
        return memo

    return wrap


def mul_zero_zero(lie_type: str, mu: Sequence[int], nu: Sequence[int]) -> GrothElement:
    trivial = trivial_shape(lie_type)
    out = {StableComponent(sigma, trivial): c for sigma, c in lr_expand(mu, nu).items()}
    return _trusted_element(lie_type, out)


def mul_zero_posi(lie_type: str, mu: Sequence[int], kappa: DominantShape) -> GrothElement:
    """A finite-support class into a dominant one fuses to a single class."""
    return groth_basis(lie_type, mu, kappa)


def mul_posi_zero(lie_type: str, kappa: DominantShape, mu: Sequence[int]) -> GrothElement:
    """Dominant class times finite-support class by stabilized scans."""
    return _posi_zero(lie_type, kappa, make_partition(mu))


@lru_cache(maxsize=None)
def _posi_zero(lie_type: str, kappa: DominantShape, mu: Partition) -> GrothElement:
    left, right = make_label(lie_type, (), kappa), make_label(lie_type, mu)
    return GrothElement(lie_type, stabilized_decomposition(left, right))


# dominant x dominant through character series ------------------------------


@_widest_window(SchurSeries.truncate)
def _basis_series(shape: DominantShape, cutoff: int) -> SchurSeries:
    """Character series of a basis shape with its leading term asserted.

    Every series starts exactly in degree |lam| and its part there is the
    single Schur function on the conjugate partition with coefficient one;
    the degree-by-degree peel relies on this.
    """
    series = s_g_series(shape, cutoff)
    size = sum(shape.lam)
    for d in range(min(size, cutoff + 1)):
        if not series.homogeneous(d).is_zero():
            raise AssertionError(f"series for {shape} has terms below degree {size}")
    if cutoff >= size:
        lead = schur_basis(conjugate(shape.lam), cutoff)
        if series.homogeneous(size) != lead:
            raise AssertionError(f"series for {shape} is not monic at degree {size}")
    return series


def _expand_in_level_basis(
    product: SchurSeries, lie_type: str, ell: int, through_degree: int
) -> dict[DominantShape, int]:
    """Peel a series into the character basis of one level, degree by degree.

    Exact for coefficients on shapes with at most through_degree boxes:
    basis series on larger shapes vanish inside the window, so each
    subtraction leaves all lower degrees untouched.
    """
    if product.cutoff < through_degree:
        raise ValueError("series cutoff is below the requested window")
    remainder = Accumulator(product)
    out: dict[DominantShape, int] = {}
    for d in range(through_degree + 1):
        part = remainder.result().homogeneous(d)
        if part.is_zero():
            continue
        for shape in level_shapes(lie_type, ell, (d,)):
            c = part.coefficient(conjugate(shape.lam))
            if c:
                out[shape] = c
                remainder.add(_basis_series(shape, product.cutoff), -c)
        leftover = remainder.result().homogeneous(d)
        if not leftover.is_zero():
            terms = sorted(leftover.terms.items())
            named = str(SchurSeries(leftover.cutoff, dict(terms[:3]), leftover.t_power))
            more = f" + {len(terms) - 3} more term(s)" if len(terms) > 3 else ""
            raise StabilizationError(
                f"degree {d} of the product is outside the level {ell} basis "
                f"span, leaving {named}{more}",
                leftover=leftover,
            )
    return out


def mul_posi_posi(
    lie_type: str, k1: DominantShape, k2: DominantShape, through_degree: int
) -> GrothElement:
    """Product of two positive-level classes, exact through the window.

    The result is an infinite series in general; the returned element
    carries the window and stores every coefficient inside it.
    """
    return _posi_posi(lie_type, k1, k2, _check_window(through_degree))


@_widest_window(
    lambda held, window: _trusted_element(held.lie_type, held.terms, window)
)
def _posi_posi(
    lie_type: str, k1: DominantShape, k2: DominantShape, window: int
) -> GrothElement:
    product = _basis_series(k1, window) * _basis_series(k2, window)
    found = _expand_in_level_basis(product, lie_type, k1.ell + k2.ell, window)
    labels = {StableComponent((), shape): c for shape, c in found.items()}
    return _trusted_element(lie_type, labels, window)


def _mul_basis(
    lie_type: str, left: Label, right: Label, window: int | None
) -> GrothElement:
    """Product of two basis pairs, normal-ordering the four tensor factors."""
    l_zero, l_posi = left.mu, left.kappa
    r_zero, r_posi = right.mu, right.kappa

    # middle: dominant(left) x finite(right)
    if l_posi.ell == 0:
        middle = {StableComponent(r_zero, l_posi): 1}
    elif not r_zero:
        middle = {StableComponent((), l_posi): 1}
    else:
        middle = mul_posi_zero(lie_type, l_posi, r_zero).terms

    out: dict[Label, int] = {}
    for mid_label, m in middle.items():
        mid_posi = mid_label.kappa
        if mid_posi.ell == 0:
            right_part = {r_posi: 1}
        elif r_posi.ell == 0:
            right_part = {mid_posi: 1}
        else:
            if window is None:
                raise ValueError("positive-level product needs an exactness window")
            product = mul_posi_posi(lie_type, mid_posi, r_posi, window)
            right_part = {p_label.kappa: b for p_label, b in product.terms.items()}
        for sigma, a in _lr(l_zero, mid_label.mu).items():
            for kappa, b in right_part.items():
                label = StableComponent(sigma, kappa)
                out[label] = out.get(label, 0) + m * a * b
    return _trusted_element(lie_type, out, window)


def _needs_window(x: GrothElement, y: GrothElement) -> bool:
    return any(l.kappa.ell for l in x.terms) and any(r.kappa.ell for r in y.terms)


def groth_mul(
    x: GrothElement, y: GrothElement, through_degree: int | None = None
) -> GrothElement:
    """Bilinear product with exactness-window bookkeeping.

    A window on y caps the result directly: dominant parts of y above it
    only ever feed labels above it, since box counts are additive across
    positive-level products.  A window on x caps the result at that value
    minus twice the largest finite-support part of y, because crossing a
    finite class can lower a dominant shape by two boxes per box crossed.
    A positive times positive pair with no window anywhere gets the
    module default.
    """
    if x.lie_type != y.lie_type:
        raise InvalidShapeError("cannot multiply elements of different types")
    window = _check_window(through_degree)
    if y.through_degree is not None:
        window = _min_window(window, y.through_degree)
    if x.through_degree is not None:
        drop = 2 * max((sum(r.mu) for r in y.terms), default=0)
        window = _min_window(window, x.through_degree - drop)
    if window is None and _needs_window(x, y):
        window = DEFAULT_TRUNCATION_DEGREE
    total = Accumulator(GrothElement(x.lie_type, {}, window))
    for left, a in x.terms.items():
        for right, b in y.terms.items():
            total.add(_mul_basis(x.lie_type, left, right, window), a * b)
    return total.result()


# ---------------------------------------------------------------------------
# level determinants and structure constants


def level_determinant(
    shape: DominantShape, through_degree: int | None = None
) -> GrothElement:
    """The level determinant identity evaluated in the ring.

    Expresses the dominant class of the shape as the determinant in one
    row classes, whose expansion telescopes back to the single class
    inside the window (by default |lam| + 4).  Entries with negative index
    resolve per type (see :func:`_row_determinant`); the even orthogonal
    shapes shorter or taller than the level take halved corrections by
    (H_0 - Hbar_0) times the symplectic-style determinant one level down.
    """
    if not isinstance(shape, DominantShape):
        raise TypeError(f"shape {shape!r} is not a DominantShape")
    window = _check_window(through_degree)
    return _level_determinant(shape, sum(shape.lam) + 4 if window is None else window)


@lru_cache(maxsize=None)
def _level_determinant(shape: DominantShape, window: int) -> GrothElement:
    lie_type = shape.lie_type

    def h(lie: str, a: int) -> GrothElement:
        return _trusted_element(lie, row_class(lie, a).terms, window)

    def hbar() -> GrothElement:
        return _trusted_element("d", barred_class().terms, window)

    zero = GrothElement(lie_type, {}, window)
    return _row_determinant(shape, h, hbar, zero, groth_one(lie_type))


def _row_determinant(shape: DominantShape, h, hbar, zero, one):
    """The level determinant of a shape in the row generators ``h(lie_type,
    a)`` and ``hbar()`` of a ring whose zero and one are given.

    Entries H_r with negative r resolve per type: symplectic H_{-1} = 0 and
    H_{-r} = -H_{r-2}; odd orthogonal H_{-r} = H_{r-1}; even orthogonal
    H_{-r} = H_r with the index-zero entry standing for H_0 + Hbar_0.  The
    prime flavor inside the even orthogonal type is the difference of two
    plain entries, mirroring the series flavor E'_r = E_r - E_{r+2}.
    """
    lie_type = shape.lie_type

    def entry(index: int, flavor: str):
        if lie_type == "d" and flavor == "prime":
            return entry(index, "plain") - entry(index + 2, "plain")
        if lie_type == "c":
            if index >= 0:
                return h("c", index)
            if index == -1:
                return zero
            return h("c", -index - 2).scale(-1)
        if lie_type == "b":
            return h("b", index if index >= 0 else -index - 1)
        if index == 0:
            return h("d", 0) + hbar()
        return h("d", abs(index))

    return type_determinant(shape, entry, zero, one, lambda: h("d", 0) - hbar())


def structure_constant(
    lie_type: str,
    mu: Sequence[int],
    m: int,
    target: DominantShape,
    cache: "StructureCache | None" = None,
) -> int:
    """Coefficient of the target class in the product of one-row classes.

    The row widths are mu padded with zeros to m factors; the even
    orthogonal convention for mu taller than m replaces the surplus
    single-box rows with barred factors.  Exact: intermediate products
    are windowed at the larger of the target and factor sizes, which no
    larger component can re-enter since box counts only grow across
    positive-level products.
    """
    check_lie_type(lie_type)
    if target.lie_type != lie_type:
        raise InvalidShapeError("target type mismatch")
    m = operator.index(m)
    if m < 1:
        raise InvalidShapeError("need at least one factor")
    mu = make_partition(mu)
    t = len(mu)
    if t > m:
        if lie_type != "d" or any(p != 1 for p in mu[2 * m - t :]) or t > 2 * m:
            raise InvalidShapeError(
                "more rows than factors needs even orthogonal single columns"
            )
        widths = tuple(mu[: 2 * m - t])
        barred = t - m
    else:
        widths = mu
        barred = 0
    mu_text, lam_text = (",".join(map(str, p)) or "-" for p in (mu, target.lam))
    key = f"{lie_type}|{m}|{mu_text}|{lam_text}@{target.ell}"
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    window = max(sum(target.lam), sum(mu))
    factors = [row_class(lie_type, a) for a in widths]
    factors.extend(row_class(lie_type, 0) for _ in range(m - len(widths) - barred))
    factors.extend(barred_class() for _ in range(barred))
    product = factors[0]
    for f in factors[1:]:
        product = groth_mul(product, f, window)
    value = product.coefficient(make_label(lie_type, (), target))
    if cache is not None:
        cache.put(key, value)
    return value


class StructureCache:
    """Persistent string-keyed cache of structure constants.

    The path comes from the environment variable CRYSTALLINE_CACHE when
    set; without it the cache lives in memory only.  A file that does not
    parse as a map from strings to integers (say, one cut short by a
    crash) opens as an empty cache, and every write replaces the file
    whole, so a crash mid-write leaves the previous file intact.
    """

    def __init__(self, path: str | None = None):
        if path is None:
            path = os.environ.get("CRYSTALLINE_CACHE")
        self.path = path
        self.data: dict[str, int] = {}
        if path and os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                try:
                    loaded = json.load(fh)
                except ValueError:
                    loaded = None
            if isinstance(loaded, dict) and all(type(v) is int for v in loaded.values()):
                self.data = loaded

    def get(self, key: str) -> int | None:
        return self.data.get(key)

    def put(self, key: str, value: int) -> None:
        self.data[key] = value
        if self.path:
            tmp = f"{self.path}.{os.getpid()}.tmp"
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(self.data, fh, indent=0, sort_keys=True)
                os.replace(tmp, self.path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)


# ---------------------------------------------------------------------------
# rewriting algebra


@dataclass(frozen=True)
class AMonomial:
    """Normal-ordered monomial: columns left, rows right, barred count last.

    Index zero columns are the unit and are dropped; rows keep index zero
    (the level-one empty-shape class).
    """

    zs: tuple[int, ...] = ()
    hs: tuple[int, ...] = ()
    barred: int = 0

    def __post_init__(self) -> None:
        zs = tuple(sorted((b for b in map(operator.index, self.zs) if b), reverse=True))
        hs = tuple(sorted(map(operator.index, self.hs), reverse=True))
        barred = operator.index(self.barred)
        if any(b < 0 for b in zs) or any(a < 0 for a in hs) or barred < 0:
            raise ValueError("monomial indices must be non-negative")
        object.__setattr__(self, "zs", zs)
        object.__setattr__(self, "hs", hs)
        object.__setattr__(self, "barred", barred)

    def sort_key(self):
        # z-major: the normal form reads as a polynomial in the column
        # generators whose coefficients are row series; the constant sorts
        # last within each block
        return (
            tuple(-b for b in self.zs) + (1,),
            tuple(-a for a in self.hs) + (1,),
            -self.barred,
        )

    def __str__(self) -> str:
        bits = [f"z{b}" for b in self.zs]
        bits.extend(f"h{a}" for a in self.hs)
        bits.extend("hbar0" for _ in range(self.barred))
        return "*".join(bits) if bits else "1"


class AElement(TermMap):
    """Integer combination of normal-ordered monomials for one type."""

    __slots__ = ()
    lie_type = property(lambda self: self._ctx[0])

    def __init__(self, lie_type: str, terms: Mapping[AMonomial, int] | None = None):
        check_lie_type(lie_type)
        self._init((lie_type,), terms)

    @staticmethod
    def _key(ctx: tuple, mono: AMonomial) -> AMonomial:
        if mono.barred and ctx[0] != "d":
            raise ValueError("barred rows exist only for the even orthogonal type")
        return mono

    @staticmethod
    def _join(a: tuple, b: tuple) -> tuple:
        if a != b:
            raise ValueError("cannot combine elements of different types")
        return a

    def __mul__(self, other: "AElement") -> "AElement":
        (lie_type,) = self._join(self._ctx, other._ctx)
        total = Accumulator(AElement(lie_type))
        for m1, a in self.terms.items():
            for m2, b in other.terms.items():
                word = _monomial_word(m1) + _monomial_word(m2)
                total.add(_normalize_word(word, lie_type), a * b)
        return total.result()

    def coefficient(self, mono: AMonomial) -> int:
        return self.terms.get(mono, 0)

    def sorted_terms(self) -> list[tuple[AMonomial, int]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def __str__(self) -> str:
        return show_terms(self.sorted_terms())

    def to_json(self) -> dict:
        terms = [
            {"zs": list(m.zs), "hs": list(m.hs), "barred": m.barred, "coeff": c}
            for m, c in self.sorted_terms()
        ]
        return {"lie_type": self.lie_type, "terms": terms}


def a_one(lie_type: str) -> AElement:
    return AElement(lie_type, {AMonomial(): 1})


def a_z(lie_type: str, b: int) -> AElement:
    if b == 0:
        return a_one(lie_type)
    return AElement(lie_type, {AMonomial(zs=(b,)): 1})


def a_h(lie_type: str, a: int) -> AElement:
    return AElement(lie_type, {AMonomial(hs=(a,)): 1})


def a_hbar() -> AElement:
    return AElement("d", {AMonomial(barred=1): 1})


def _monomial_word(mono: AMonomial) -> tuple:
    word = [("z", b) for b in mono.zs]
    word.extend(("h", a) for a in mono.hs)
    word.extend(("hb", 0) for _ in range(mono.barred))
    return tuple(word)


def delta(m: int, letter: tuple, lie_type: str) -> AElement:
    """Correction term when a row letter crosses the column class z_m.

    Closed forms per type.  The even orthogonal barred row produces barred
    companions; a barred row of positive width equals the plain one, so
    only width zero keeps the bar.
    """
    check_lie_type(lie_type)
    if m < 1:
        raise ValueError("column indices start at 1")
    kind, a = letter
    out = Accumulator(AElement(lie_type))
    if kind == "hb":
        if lie_type != "d":
            raise ValueError("barred rows exist only for the even orthogonal type")
        for i in range(m):
            for j in range((m - i) // 2 + 1):
                out.add(_zh(lie_type, i, m - i - 2 * j, barred=True))
    elif kind != "h":
        raise ValueError("only row letters have corrections")
    elif lie_type != "d":
        for i in range(m):
            for j in range(min(a, m - i) + 1):
                out.add(_zh(lie_type, i, a + m - i - 2 * j))
            if lie_type == "b":
                for k in range(1, m - i - a + 1):
                    out.add(_zh(lie_type, i, m - i - a - k))
    elif a == 0:
        for i in range(m):
            for j in range((m - i) // 2 + 1):
                out.add(_zh(lie_type, i, m - i - 2 * j))
    else:
        for i in range(m):
            for j in range(min((a + m - i) // 2, m - i) + 1):
                out.add(_zh(lie_type, i, a + m - i - 2 * j))
            if m - i >= a:
                for k in range((m - i - a) // 2 + 1):
                    out.add(_zh(lie_type, i, m - i - a - 2 * k, barred=True))
    return out.result()


def _zh(lie_type: str, z_index: int, h_index: int, barred: bool = False) -> AElement:
    if barred and h_index == 0:
        return AElement(lie_type, {AMonomial(zs=(z_index,), barred=1): 1})
    return AElement(lie_type, {AMonomial(zs=(z_index,), hs=(h_index,)): 1})


def _normalize_word(word: tuple, lie_type: str) -> AElement:
    """Push every column letter left past row letters, splitting corrections."""
    for i in range(len(word) - 1):
        if word[i][0] in ("h", "hb") and word[i + 1][0] == "z":
            row, (_, m) = word[i], word[i + 1]
            swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
            total = Accumulator(_normalize_word(swapped, lie_type))
            for mono, c in delta(m, row, lie_type).terms.items():
                spliced = word[:i] + _monomial_word(mono) + word[i + 2 :]
                total.add(_normalize_word(spliced, lie_type), c)
            return total.result()
    zs = [x[1] for x in word if x[0] == "z"]
    hs = [x[1] for x in word if x[0] == "h"]
    barred = sum(1 for x in word if x[0] == "hb")
    return AElement(lie_type, {AMonomial(tuple(zs), tuple(hs), barred): 1})


def a_normalize(letters: Iterable[tuple], lie_type: str) -> AElement:
    """Normal form of a product of generator letters, multiplied left to right.

    Letters are ("z", b), ("h", a) or ("hb", 0).
    """
    return _normalize_word(tuple(letters), lie_type)


# ---------------------------------------------------------------------------
# the homomorphism into the rewriting algebra


def psi_zero(lie_type: str, mu: Sequence[int]) -> AElement:
    """Finite-support classes as column polynomials by the dual determinant."""
    mu = make_partition(mu)
    if not mu:
        return a_one(lie_type)
    heights = conjugate(mu)
    size, zero = len(heights), AElement(lie_type)
    # row i, column j (from 0) holds z_{heights[i] - i + j}, zero below index 0
    matrix = [
        [a_z(lie_type, h - i + j) if h - i + j >= 0 else zero for j in range(size)]
        for i, h in enumerate(heights)
    ]
    return determinant(matrix, zero)


def psi_plus(kappa: DominantShape) -> AElement:
    """Dominant classes as row polynomials by the level determinant."""
    lie_type = kappa.lie_type
    return _row_determinant(kappa, a_h, a_hbar, AElement(lie_type), a_one(lie_type))


def psi(x: GrothElement) -> AElement:
    """The realization map: basis pairs to normal-ordered polynomials.

    Defined on exact elements only; a windowed element has unknown terms
    whose images cannot be accounted for.
    """
    if x.through_degree is not None:
        raise ValueError("the realization map needs an exact element")
    total = Accumulator(AElement(x.lie_type))
    for label, c in x.terms.items():
        total.add(_psi_label(label), c)
    return total.result()


@lru_cache(maxsize=None)
def _psi_label(label: Label) -> AElement:
    """The image of one basis pair, whose type its dominant shape carries."""
    return psi_zero(label.kappa.lie_type, label.mu) * psi_plus(label.kappa)
