"""Symmetric functions in the Schur basis and rank-n Laurent characters.

Two rings live here:

* :class:`SchurSeries`: degree-truncated elements of the completed ring of
  symmetric functions in infinitely many variables, stored as integer
  combinations of Schur functions, multiplied by the Littlewood-Richardson
  rule.  A nonnegative integer ``t_power`` records the external grading
  symbol accompanying characters of level ``t_power``.
* :class:`LaurentPoly`: integer Laurent polynomials in n variables, used
  for rank-n characters over the alphabets x_1..x_n, their inverses, and
  (odd orthogonal case) an extra letter 1.

The bridge between them is :func:`laurent_specialize`, which sets
x_{n+1} = x_{n+2} = ... = 0 and converts each power of t into
(x_1...x_n)^{-1}.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from operator import add
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from crystalline.tableaux import (
    _barred_frame_grid,
    _frame_grid,
    _max_residue,
    alphabet,
    normalize_shape,
    word_weight,
)
from crystalline.termmap import Accumulator, TermMap, show_terms
from crystalline.weights import (
    DominantShape,
    InvalidShapeError,
    Partition,
    _transpose,
    check_lie_type,
    conjugate,
    make_partition,
    partitions_of,
)


class CutoffMismatchError(ValueError):
    """Raised when combining Schur series truncated at different degrees."""


# ---------------------------------------------------------------------------
# Littlewood-Richardson rule


def lr_expand(lam: Sequence[int], mu: Sequence[int]) -> Mapping[Partition, int]:
    """Coefficients of s_lam * s_mu in the Schur basis, as a read-only map.

    The table is filled (see :func:`_lr_fill`) on the cheapest of the
    equivalent forms given by the symmetries c^nu_{lam,mu} = c^nu_{mu,lam}
    = c^{nu'}_{lam',mu'}: conjugates when the pair is taller than it is
    wide, and the factor with fewer parts as the letters.
    """
    return _lr(make_partition(lam), make_partition(mu))


@lru_cache(maxsize=None)
def _lr(lam: Partition, mu: Partition) -> Mapping[Partition, int]:
    """:func:`lr_expand` on arguments that are already partitions."""
    return MappingProxyType(_lr_cheapest(lam, mu))


def _lr_cheapest(lam: Partition, mu: Partition) -> dict[Partition, int]:
    if sum(lam[:1]) + sum(mu[:1]) < len(lam) + len(mu):
        flipped = _lr_cheapest(_transpose(lam), _transpose(mu))
        return {_transpose(nu): c for nu, c in flipped.items()}
    if len(mu) > len(lam):
        lam, mu = mu, lam
    return _lr_fill(lam, mu)


def _lr_fill(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Littlewood-Richardson table of s_lam * s_mu by one fixed filling.

    Letters 1..len(mu) are placed on top of lam as horizontal strips of
    sizes mu_1, mu_2, ...; a placement is admitted when, for every letter
    i >= 2 and every row r, the letters i in rows <= r are at most the
    letters i-1 in rows <= r-1 (the lattice-word condition row by row).
    The work grows with len(lam) + len(mu) rows and len(mu) letters; this
    orientation-fixed filling is the reference for :func:`lr_expand`.
    """
    results: dict[Partition, int] = {}
    rows = len(lam) + len(mu)
    shape = list(lam) + [0] * (rows - len(lam) + 1)

    def place_letter(i: int, prev_counts: tuple[int, ...]) -> None:
        if i == len(mu):
            # the filling keeps rows weakly decreasing, so only zeros trail
            nu = tuple(p for p in shape if p)
            results[nu] = results.get(nu, 0) + 1
            return
        counts = [0] * rows
        old = tuple(shape)

        def fill(r: int, left: int, prev_before: int, cum: int) -> None:
            # prev_before: boxes of letter i in rows < r; cum: of letter i+1
            if left == 0:
                place_letter(i + 1, tuple(counts))
                return
            if r > rows:
                return
            cap = left
            if r > 1:
                cap = min(cap, old[r - 2] - old[r - 1])
            if i > 0:
                cap = min(cap, prev_before - cum)
            for a in range(cap, -1, -1):
                counts[r - 1] = a
                shape[r - 1] = old[r - 1] + a
                fill(
                    r + 1,
                    left - a,
                    prev_before + (prev_counts[r - 1] if i > 0 else 0),
                    cum + a,
                )
            counts[r - 1] = 0
            shape[r - 1] = old[r - 1]

        fill(1, mu[i], 0, 0)

    place_letter(0, ())
    return results


# ---------------------------------------------------------------------------
# Schur series


class SchurSeries(TermMap):
    """Truncated integer combination of Schur functions with a t grading.

    Partitions of size greater than ``cutoff`` are unknown and never
    stored; binary operations insist on equal cutoffs so that a truncated
    identity is never mistaken for an exact one.  A row bound ``rows``
    (None: unbounded) likewise drops partitions with more than ``rows``
    parts: the series is then its image in the symmetric functions of
    ``rows`` variables, where s_lam = 0 for len(lam) > rows.  That map is
    a ring homomorphism, so bounded arithmetic is exact there.
    """

    __slots__ = ()
    cutoff = property(lambda self: self._ctx[0])
    t_power = property(lambda self: self._ctx[1])
    rows = property(lambda self: self._ctx[2])
    coeffs = TermMap.terms

    def __init__(
        self,
        cutoff: int,
        coeffs: Mapping | None = None,
        t_power: int = 0,
        rows: int | None = None,
    ):
        if rows is not None:
            rows = _row_bound(rows)
        self._init((cutoff, t_power, rows), coeffs)

    @staticmethod
    def _key(ctx: tuple, lam: Sequence[int]) -> Partition | None:
        lam = make_partition(lam)
        if sum(lam) > ctx[0] or (ctx[2] is not None and len(lam) > ctx[2]):
            return None
        return lam

    @staticmethod
    def _join(a: tuple, b: tuple) -> tuple:
        if a[0] != b[0]:
            raise CutoffMismatchError(f"cutoffs differ: {a[0]} vs {b[0]}")
        if a[1] != b[1]:
            raise CutoffMismatchError(f"t gradings differ: {a[1]} vs {b[1]}")
        if a[2] != b[2]:
            raise CutoffMismatchError(f"row bounds differ: {a[2]} vs {b[2]}")
        return a

    def __mul__(self, other: "SchurSeries") -> "SchurSeries":
        return schur_mul(self, other)

    def coefficient(self, lam: Sequence[int]) -> int:
        return self.coeffs.get(make_partition(lam), 0)

    def homogeneous(self, degree: int) -> "SchurSeries":
        return self._trusted(
            self._ctx, {l: c for l, c in self.coeffs.items() if sum(l) == degree}
        )

    def truncate(self, cutoff: int) -> "SchurSeries":
        if cutoff > self.cutoff:
            raise CutoffMismatchError("cannot raise a cutoff after truncation")
        return self._trusted(
            (cutoff, self.t_power, self.rows),
            {l: c for l, c in self.coeffs.items() if sum(l) <= cutoff},
        )

    def restrict(self, rows: int) -> "SchurSeries":
        """The image in ``rows`` variables: partitions with more parts drop."""
        rows = _row_bound(rows)
        if self.rows is not None and rows > self.rows:
            raise CutoffMismatchError("cannot raise a row bound after restriction")
        return self._trusted(
            (self.cutoff, self.t_power, rows),
            {l: c for l, c in self.coeffs.items() if len(l) <= rows},
        )

    def with_t_power(self, t_power: int) -> "SchurSeries":
        return self._trusted((self.cutoff, t_power, self.rows), self.coeffs)

    def to_json(self) -> dict:
        terms = [
            {"partition": list(lam), "coeff": c}
            for lam, c in sorted(self.coeffs.items())
        ]
        data = {"cutoff": self.cutoff, "t_power": self.t_power, "terms": terms}
        if self.rows is not None:
            data["rows"] = self.rows
        return data

    @staticmethod
    def from_json(data: Mapping) -> "SchurSeries":
        coeffs = {tuple(t["partition"]): t["coeff"] for t in data["terms"]}
        return SchurSeries(
            data["cutoff"], coeffs, data.get("t_power", 0), data.get("rows")
        )

    def __str__(self) -> str:
        ordered = sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        return show_terms(
            ("s[%s]" % ",".join(map(str, lam)) if lam else "1", c) for lam, c in ordered
        )


def _row_bound(rows) -> int:
    if not isinstance(rows, int) or rows < 0:
        raise ValueError(f"row bound {rows!r} is not a non-negative integer")
    return rows


def schur_basis(lam: Sequence[int], cutoff: int) -> SchurSeries:
    """The single Schur function s_lam as a series."""
    return SchurSeries(cutoff, {make_partition(lam): 1})


def zero_series(cutoff: int) -> SchurSeries:
    return SchurSeries(cutoff, {})


def one_series(cutoff: int) -> SchurSeries:
    return SchurSeries(cutoff, {(): 1})


def e_series(r: int, cutoff: int) -> SchurSeries:
    """Elementary symmetric function e_r = s_{(1^r)}; zero for r < 0."""
    if r < 0:
        return zero_series(cutoff)
    return schur_basis((1,) * r, cutoff)


def schur_mul(f: SchurSeries, g: SchurSeries) -> SchurSeries:
    if f.cutoff != g.cutoff:
        raise CutoffMismatchError(f"cutoffs differ: {f.cutoff} vs {g.cutoff}")
    if f.rows != g.rows:
        raise CutoffMismatchError(f"row bounds differ: {f.rows} vs {g.rows}")
    cutoff, rows = f.cutoff, f.rows
    right = [(mu, sum(mu), b) for mu, b in g.coeffs.items()]
    out: dict[Partition, int] = {}
    for lam, a in f.coeffs.items():
        room = cutoff - sum(lam)
        for mu, size, b in right:
            if size > room:
                continue
            ab = a * b
            for nu, c in _lr(lam, mu).items():
                out[nu] = out.get(nu, 0) + ab * c
    if rows is not None:
        out = {nu: c for nu, c in out.items() if len(nu) <= rows}
    return SchurSeries._trusted((cutoff, f.t_power + g.t_power, rows), out)


def determinant(matrix: Sequence[Sequence], zero):
    """Determinant by Laplace expansion along columns, each minor computed once.

    The minor on rows S and the last n - |S| columns expands down its first
    column, so the whole expansion costs about 2^n * n ring products instead
    of n!.  Every term is the column-ordered product
    M[s_0][0] * (M[s_1][1] * (... * M[s_{n-1}][n-1])) with the sign of the
    permutation s, so it is also the determinant used over noncommutative
    entries such as the rewriting algebra's elements.
    """
    size = len(matrix)
    if size == 0:
        raise ValueError("empty matrix has no determinant here; handle upstream")
    last = size - 1
    minors = {(i,): matrix[i][last] for i in range(size)}
    for col in range(last - 1, -1, -1):
        wider = {}
        for rows in combinations(range(size), size - col):
            total = zero
            for p, i in enumerate(rows):
                term = matrix[i][col] * minors[rows[:p] + rows[p + 1 :]]
                total = total + term if p % 2 == 0 else total - term
            wider[rows] = total
        minors = wider
    return minors[tuple(range(size))]


# ---------------------------------------------------------------------------
# the E series and spinor characters


def cap_e(r: int, cutoff: int) -> SchurSeries:
    """E_r = sum over i of e_i * e_{r+i}, truncated at the cutoff.

    E_{-r} = E_r, and E_r starts in degree |r|, so it is zero for |r| above
    the cutoff; the rest is built once per (|r|, cutoff) from LR products.
    """
    r = abs(r)
    if r > cutoff:
        return zero_series(cutoff)
    return _cap_e(r, cutoff)


@lru_cache(maxsize=None)
def _cap_e(r: int, cutoff: int) -> SchurSeries:
    total, i = Accumulator(zero_series(cutoff)), 0
    while 2 * i + r <= cutoff:
        total.add(schur_mul(e_series(i, cutoff), e_series(r + i, cutoff)))
        i += 1
    return total.result()


def cap_e_variant(r: int, flavor: str, cutoff: int) -> SchurSeries:
    """E_r (plain), E'_r = E_r - E_{r+2}, or E''_r = E_r + E_{r+1}."""
    if flavor == "plain":
        return cap_e(r, cutoff)
    if flavor == "prime":
        return cap_e(r, cutoff) - cap_e(r + 2, cutoff)
    if flavor == "second":
        return cap_e(r, cutoff) + cap_e(r + 1, cutoff)
    raise ValueError(f"unknown flavor {flavor!r}")


def alternating_e_product(cutoff: int) -> SchurSeries:
    """The product (sum of e_i) * (sum of (-1)^i e_i), truncated."""
    return _alternating_e_product(cutoff)


@lru_cache(maxsize=None)
def _alternating_e_product(cutoff: int) -> SchurSeries:
    plus = SchurSeries(cutoff, {(1,) * i: 1 for i in range(cutoff + 1)})
    signed = SchurSeries(cutoff, {(1,) * i: (-1) ** i for i in range(cutoff + 1)})
    return schur_mul(plus, signed)


def two_column_schur(left: int, right: int, cutoff: int) -> SchurSeries:
    """s_{(left,right)'}: the Schur function with column heights given."""
    if right > left:
        raise InvalidShapeError("column heights must decrease")
    lam = conjugate(make_partition((left, right)))
    return schur_basis(lam, cutoff)


def _frames_char(
    a: int, frames: Iterable[tuple[int, int]], max_residue: int, cutoff: int
) -> SchurSeries:
    """The frames' residue strata k <= min(a, b, max_residue), t power 1: the
    fillings of (a, b, c) with residue k have the character of the column
    pair (a+b+c-k, c+k)."""
    total = Accumulator(zero_series(cutoff))
    for b, c in frames:
        for k in range(min(a, b, max_residue) + 1):
            total.add(two_column_schur(a + b + c - k, c + k, cutoff))
    return total.result().with_t_power(1)


def spinor_char(a: int, lie_type: str, cutoff: int) -> SchurSeries:
    """Weight generating function of the one-column-pair model, t power 1:
    the residue strata of the frames and residues that
    :func:`~crystalline.tableaux.enumerate_spinor_columns` walks."""
    check_lie_type(lie_type)
    if a < 0:
        raise InvalidShapeError("column height must be non-negative")
    frames = _frame_grid(lie_type, a, cutoff)
    return _frames_char(a, frames, _max_residue(lie_type), cutoff)


def spinor_char_barred(cutoff: int) -> SchurSeries:
    """The barred even-orthogonal companion at a = 0, t power 1: the frames
    of :func:`~crystalline.tableaux.enumerate_spinor_columns_barred`."""
    return _frames_char(0, _barred_frame_grid(cutoff), _max_residue("d"), cutoff)


# ---------------------------------------------------------------------------
# Jacobi-Trudi determinants, shared by the series, the ring and the algebra


# the E flavor of each type's spinor characters and level determinants
_E_FLAVOR = {"c": "prime", "b": "second", "d": "plain"}


def _reflected_matrix(bases: Sequence[int], entry: Callable) -> list[list]:
    """The matrix whose row i, column j entry is E_{b_i+j} + [j != 0] E_{b_i-j},
    for ``entry(r)`` = E_r."""
    size = len(bases)
    return [
        [entry(b + j) + entry(b - j) if j else entry(b) for j in range(size)]
        for b in bases
    ]


def _level_det(lam: Sequence[int], ell: int, entry: Callable, zero, one):
    """The reflected determinant of (lam, ell), row i based at lam_{ell-i+1} + i - 1."""
    if ell == 0:
        return one
    padded = tuple(lam) + (0,) * (ell - len(lam))
    bases = [padded[ell - i] + i - 1 for i in range(1, ell + 1)]
    return determinant(_reflected_matrix(bases, entry), zero)


def type_determinant(
    shape: DominantShape, entry: Callable, zero, one, correction: Callable
):
    """The type-adapted level determinant of a dominant shape, in any ring.

    ``entry(r, flavor)`` is the ring's E_r, E'_r or E''_r (flavor plain,
    prime or second), and ``correction()`` the factor of the even
    orthogonal half-sums, called only when one is needed.  Symplectic
    shapes take the prime determinant, odd orthogonal ones the second.
    Even orthogonal shapes branch on t = number of rows against ell: the
    plain determinant at t = ell, else the half-sum (plain +- correction *
    prime one level down), + for t < ell; for t > ell both determinants
    keep the first 2 ell - t rows.  An odd coefficient raises ArithmeticError.
    """
    lam, ell, t = shape.lam, shape.ell, len(shape.lam)

    def det(rows: Sequence[int], size: int, flavor: str):
        return _level_det(rows, size, lambda r: entry(r, flavor), zero, one)

    if shape.lie_type != "d" or t == ell:
        return det(lam, ell, _E_FLAVOR[shape.lie_type])
    mu = lam if t < ell else make_partition(lam[: 2 * ell - t])
    plain = det(mu, ell, "plain")
    low = correction() * det(mu, ell - 1, "prime")
    return (plain + low if t < ell else plain - low).half()


def s_g_series(
    shape: DominantShape, cutoff: int, rows: int | None = None
) -> SchurSeries:
    """The type-adapted series S for a dominant shape (t power zero).

    :func:`type_determinant` over E-flavor series, the even orthogonal
    correction being the alternating e product.  With ``rows`` set, every
    entry is restricted to that many rows first, so the determinant is
    computed in ``rows`` variables and equals ``s_g_series(shape,
    cutoff).restrict(rows)``.
    """

    def bounded(f: SchurSeries) -> SchurSeries:
        return f if rows is None else f.restrict(rows)

    return type_determinant(
        shape,
        lambda r, flavor: bounded(cap_e_variant(r, flavor, cutoff)),
        bounded(zero_series(cutoff)),
        bounded(one_series(cutoff)),
        lambda: bounded(alternating_e_product(cutoff)),
    )


# ---------------------------------------------------------------------------
# Laurent polynomials at rank n


class LaurentPoly(TermMap):
    """Integer Laurent polynomial in a fixed number of variables."""

    __slots__ = ()
    nvars = property(lambda self: self._ctx[0])

    def __init__(self, nvars: int, terms: Mapping | None = None):
        self._init((nvars,), terms)

    @staticmethod
    def _key(ctx: tuple, exp: Sequence[int]) -> tuple:
        exp = tuple(exp)
        if len(exp) != ctx[0]:
            raise ValueError(f"exponent {exp} has wrong length for {ctx[0]} vars")
        if not all(isinstance(e, int) for e in exp):
            raise TypeError(f"exponent {exp} is not an integer vector")
        return exp

    @staticmethod
    def _join(a: tuple, b: tuple) -> tuple:
        if a != b:
            raise ValueError("variable counts differ")
        return a

    @staticmethod
    def zero(nvars: int) -> "LaurentPoly":
        return LaurentPoly(nvars, {})

    @staticmethod
    def one(nvars: int) -> "LaurentPoly":
        return LaurentPoly(nvars, {(0,) * nvars: 1})

    @staticmethod
    def monomial(nvars: int, exp: Sequence[int], coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly(nvars, {tuple(exp): coeff})

    @staticmethod
    def from_weights(nvars: int, weights: Iterable[Sequence[int]]) -> "LaurentPoly":
        """Character polynomial: one monomial per listed weight."""
        return LaurentPoly(nvars, Counter(map(tuple, weights)))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        ctx = self._join(self._ctx, other._ctx)
        out: dict[tuple, int] = {}
        right = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly._trusted(ctx, out)

    def coefficient(self, exp: Sequence[int]) -> int:
        return self.terms.get(tuple(exp), 0)

    def at_ones(self) -> int:
        """Value with every variable set to 1 (dimension count)."""
        return sum(self.terms.values())

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {"exponents": list(e), "coeff": c}
                for e, c in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json(data: Mapping) -> "LaurentPoly":
        terms = {tuple(t["exponents"]): t["coeff"] for t in data["terms"]}
        return LaurentPoly(data["nvars"], terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exp, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(exp)
                if e != 0
            )
            if not mono:
                chunks.append(str(c))
            elif c == 1:
                chunks.append(mono)
            elif c == -1:
                chunks.append(f"-{mono}")
            else:
                chunks.append(f"{c}*{mono}")
        return " + ".join(chunks).replace("+ -", "- ")


def pm_alphabet(lie_type: str, n: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the rank-n letters, in the order of ``alphabet``:
    x_n^{-1} .. x_1^{-1}, 1 for b, then x_1 .. x_n."""
    return [word_weight((x,), n).window(n) for x in alphabet(lie_type, n)]


def elementary_laurent(r: int, letters: Sequence[tuple[int, ...]], nvars: int) -> LaurentPoly:
    """e_r of a finite alphabet of monomials."""
    if r < 0 or r > len(letters):
        return LaurentPoly.zero(nvars)
    layers = [LaurentPoly.one(nvars)] + [LaurentPoly.zero(nvars)] * r
    for letter in letters:
        mono = LaurentPoly.monomial(nvars, letter)
        for k in range(min(r, len(layers) - 1), 0, -1):
            layers[k] = layers[k] + layers[k - 1] * mono
    return layers[r]


def elementary_variant(r: int, flavor: str, letters, nvars: int) -> LaurentPoly:
    """e_r or the primed e'_r = e_r - e_{r-2} over the given alphabet."""
    if flavor == "plain":
        return elementary_laurent(r, letters, nvars)
    if flavor == "prime":
        return elementary_laurent(r, letters, nvars) - elementary_laurent(
            r - 2, letters, nvars
        )
    raise ValueError(f"unknown flavor {flavor!r}")


def _sigma_det(mu: Partition, flavor: str, letters, n: int) -> LaurentPoly:
    """det(e-flavor entries) with row base mu_i - i + 1, size len(mu) x len(mu).

    The rank-n determinant pads mu with zeros to n rows, but a padded row
    i >= len(mu) has base -i: zeros left of the diagonal and e_0 = 1 on it.
    That matrix is block unitriangular, so its determinant is the leading
    len(mu) x len(mu) minor (1 for the empty partition).
    """
    if not mu:
        return LaurentPoly.one(n)
    matrix = _reflected_matrix(
        [p - i for i, p in enumerate(mu)],
        lambda r: elementary_variant(r, flavor, letters, n),
    )
    return determinant(matrix, LaurentPoly.zero(n))


def x_minus_inverse_product(n: int) -> LaurentPoly:
    """The product of (x_i - x_i^{-1}) over all n variables."""
    total = LaurentPoly.one(n)
    for i in range(n):
        e = [0] * n
        e[i] = 1
        term = LaurentPoly.monomial(n, e) - LaurentPoly.monomial(n, [-v for v in e])
        total = total * term
    return total


def sigma_char(shape: Sequence[int], lie_type: str, n: int) -> LaurentPoly:
    """Rank-n character of the classical crystal with the given shape.

    ``shape`` is a rank-n shape as :func:`crystalline.tableaux.normalize_shape`
    reads it (the even orthogonal family also accepts a negative last entry
    at full height, the mirrored spin flavor) whose first part is at most n.
    """
    signed = normalize_shape(shape, lie_type, n)
    negative_last = bool(signed) and signed[-1] < 0
    mu = tuple(map(abs, signed))
    if mu and mu[0] > n:
        raise InvalidShapeError(f"first part {mu[0]} exceeds rank {n}")
    letters = pm_alphabet(lie_type, n)
    flavor = "prime" if lie_type == "c" else "plain"
    plain = _sigma_det(conjugate(mu), flavor, letters, n)
    if lie_type != "d" or len(mu) < n:
        return plain
    reduced = make_partition(tuple(p - 1 for p in mu))
    primed = _sigma_det(conjugate(reduced), "prime", letters, n)
    correction = primed * x_minus_inverse_product(n)
    return (plain - correction if negative_last else plain + correction).half()


# ---------------------------------------------------------------------------
# Schur polynomials at rank n and the specialization bridge


def schur_poly(lam: Sequence[int], n: int) -> LaurentPoly:
    """s_lam(x_1..x_n) by the branching rule, memoized.

    Removing the cells that hold n from a semistandard tableau of shape lam
    leaves one of shape mu, where mu interlaces lam (lam_{i+1} <= mu_i <=
    lam_i); so s_lam(x_1..x_n) is the sum over those mu of
    s_mu(x_1..x_{n-1}) x_n^{|lam|-|mu|} (Macdonald, Symmetric Functions and
    Hall Polynomials, I.5).  s_lam is 0 when lam has more than n rows and 1
    for the empty shape.  Every s_mu met on the way is a cache entry of its
    own; the polynomials are immutable, so every call shares them.
    """
    return _schur_poly(make_partition(lam), n)


@lru_cache(maxsize=None)
def _schur_poly(lam: Partition, n: int) -> LaurentPoly:
    if len(lam) > n or n == 0:
        return LaurentPoly._trusted((n,), {} if lam else {(): 1})
    padded = lam + (0,) * (n - len(lam))
    size = sum(lam)
    terms: dict[tuple, int] = {}
    # mu_i runs over [lam_{i+1}, lam_i] for i < n - 1, so mu has at most n-1 rows
    for mu in product(*map(range, padded[1:], [p + 1 for p in padded[:-1]])):
        mu = tuple(p for p in mu if p)
        last = (size - sum(mu),)
        for exp, c in _schur_poly(mu, n - 1).terms.items():
            exp += last
            terms[exp] = terms.get(exp, 0) + c
    return LaurentPoly._trusted((n,), terms)


def laurent_specialize(f: SchurSeries, n: int) -> LaurentPoly:
    """Set x_{n+1} = ... = 0 and send each t to (x_1...x_n)^{-1}.

    A series restricted to fewer than n rows has lost terms that survive
    in n variables, so it is rejected rather than specialized wrongly.
    """
    if f.rows is not None and f.rows < n:
        raise ValueError(
            f"series bounded to {f.rows} rows cannot specialize to rank {n}"
        )
    total = Accumulator(LaurentPoly.zero(n))
    for lam, c in f.coeffs.items():
        if len(lam) <= n:
            total.add(schur_poly(lam, n), c)
    if f.t_power:
        return total.result() * LaurentPoly.monomial(n, (-f.t_power,) * n)
    return total.result()


def monomials_to_schur(poly: LaurentPoly) -> dict[Partition, int]:
    """Expand a symmetric polynomial with non-negative exponents in Schur terms.

    Sweeps each degree present through the partitions with at most ``nvars``
    parts in decreasing lexicographic order, peeling s_lam by the
    coefficient of x^lam: s_mu has no x^lam term unless mu dominates lam, so
    that coefficient is final once every larger partition is peeled.  A
    remainder means the input is not symmetric, and a ValueError is raised.
    """
    n = poly.nvars
    if n and min(map(min, poly.terms), default=0) < 0:
        raise ValueError("monomial expansion expects non-negative exponents")
    remaining = Accumulator(poly)
    out: dict[Partition, int] = {}
    for d in sorted(set(map(sum, poly.terms))):
        # the conjugates of the partitions with parts at most n
        for lam in sorted(map(_transpose, partitions_of(d, n)), reverse=True):
            coeff = remaining.terms.get(lam + (0,) * (n - len(lam)), 0)
            if coeff:
                remaining.add(_schur_poly(lam, n), -coeff)
                out[lam] = coeff
    if remaining.terms:
        raise ValueError("input is not symmetric in its variables")
    return out
