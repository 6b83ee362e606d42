"""The term-map contract, checked on each of the four element types.

Every class is exercised the same way: linear identities, hashing that
agrees with equality, read-only terms (also on values handed out by the
caches), and the error its join rule raises on incompatible operands.
"""

import copy
import pickle

import pytest

from crystalline.grothendieck import (
    AElement,
    AMonomial,
    GrothElement,
    _basis_series,
    make_label,
    mul_posi_posi,
    mul_posi_zero,
)
from crystalline.symfunc import CutoffMismatchError, LaurentPoly, SchurSeries, schur_poly
from crystalline.tableaux import (
    KNTableau,
    SpinorColumnPair,
    normalize_shape,
    t_lambda,
)
from crystalline.weights import DominantShape, InvalidShapeError


def _label(mu, lam=(), ell=0, lie_type="c"):
    return make_label(lie_type, mu, DominantShape(lie_type, lam, ell))


# Per class: three elements in one context, and elements in other contexts
# with the error that combining them with the first three raises.
CASES = {
    "SchurSeries": (
        [
            SchurSeries(4, {(1,): 2, (2, 1): -1}),
            SchurSeries(4, {(1,): -2, (3,): 5, (): 1}),
            SchurSeries(4, {(1, 1): 3, (2, 1): 1}),
        ],
        [SchurSeries(5, {(1,): 1}), SchurSeries(4, {(1,): 1}, 1)],
        CutoffMismatchError,
    ),
    "LaurentPoly": (
        [
            LaurentPoly(2, {(1, 0): 2, (-1, 1): -1}),
            LaurentPoly(2, {(1, 0): -2, (0, 0): 7}),
            LaurentPoly(2, {(0, -3): 1, (-1, 1): 1}),
        ],
        [LaurentPoly(3, {(1, 0, 0): 1})],
        ValueError,
    ),
    "GrothElement": (
        [
            GrothElement("c", {_label((1,)): 2, _label((), (1,), 1): -1}),
            GrothElement("c", {_label((1,)): -2, _label((2, 1), (2,), 2): 4}),
            GrothElement("c", {_label((1, 1)): 1, _label((), (1,), 1): 1}),
        ],
        [GrothElement("b", {_label((1,), lie_type="b"): 1})],
        InvalidShapeError,
    ),
    "AElement": (
        [
            AElement("d", {AMonomial(zs=(2,), hs=(1,)): 2, AMonomial(barred=1): -1}),
            AElement("d", {AMonomial(zs=(2,), hs=(1,)): -2, AMonomial(): 3}),
            AElement("d", {AMonomial(hs=(0, 0)): 1, AMonomial(barred=1): 1}),
        ],
        [AElement("c", {AMonomial(hs=(1,)): 1})],
        ValueError,
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_linear_identities(case):
    (x, y, z), _, _ = case
    zero = x - x
    assert zero.is_zero() and not x.is_zero()
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x - y == x + (-y)
    assert -(-x) == x and x + zero == x
    assert x.scale(2) == x + x and x.scale(2).half() == x
    assert (x + y).scale(-3) == x.scale(-3) + y.scale(-3)
    assert x.scale(0) == zero
    # the first two share a key whose coefficients cancel in the sum
    assert len((x + y).terms) < len(x.terms) + len(y.terms)
    assert all(c for c in (x + y).terms.values())
    with pytest.raises(ArithmeticError):
        (x + x.scale(2)).half()
    with pytest.raises(TypeError):
        x.scale(0.5)


def test_hash_agrees_with_equality(case):
    (x, y, z), others, _ = case
    assert x + y == y + x and hash(x + y) == hash(y + x)
    assert list((x + y).terms) != list((y + x).terms)  # built in other orders
    assert len({x, x + (y - y), x.scale(2).half(), y, z}) == 3
    for other in others:
        assert other != other - other
    assert x != dict(x.terms)
    for clone in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert clone == x and hash(clone) == hash(x)


def test_terms_are_read_only(case):
    (x, _, _), _, _ = case
    before = dict(x.terms)
    with pytest.raises(TypeError):
        x.terms[next(iter(before))] = 99
    with pytest.raises(AttributeError):
        x.terms = {}
    with pytest.raises(AttributeError):
        del x.terms
    assert dict(x.terms) == before


def test_incompatible_contexts_raise_the_class_error(case):
    (x, _, _), others, error = case
    for other in others:
        for a, b in ((x, other), (other, x)):
            with pytest.raises(error):
                a + b
            with pytest.raises(error):
                a - b


def test_cached_values_are_shared_read_only():
    shape = DominantShape("c", (1,), 1)
    for get in (
        lambda: schur_poly((2, 1), 3),
        lambda: _basis_series(shape, 5),
        lambda: mul_posi_zero("c", shape, (1,)),
        lambda: mul_posi_posi("c", shape, shape, 4),
    ):
        value = get()
        before = dict(value.terms)
        with pytest.raises(TypeError):
            value.terms[next(iter(before))] = 7
        with pytest.raises(AttributeError):
            value.terms = {}
        assert dict(get().terms) == before


@pytest.mark.parametrize(
    "build",
    [
        lambda: SchurSeries(4, {(1,): 0.5}),
        lambda: SchurSeries(4, {(1,): "3"}),
        lambda: LaurentPoly(1, {(1,): 1.0}),
        lambda: LaurentPoly(1, {(1.5,): 1}),
        lambda: GrothElement("c", {_label((1,)): 2.0}),
        lambda: AElement("c", {AMonomial(hs=(1,)): "1"}),
        lambda: SchurSeries(4, {(1.5,): 1}),
        lambda: SchurSeries(4, {("2",): 1}),
        lambda: KNTableau((1.5,), ((1.9,),), "c", 2),
        lambda: KNTableau((1,), ((1.9,),), "c", 2),
        lambda: normalize_shape(("2",), "c", 2),
        lambda: normalize_shape((2, 1, -1.0), "d", 3),
        lambda: t_lambda((2.7, 1), "c", 3),
        lambda: SpinorColumnPair(0, 0, 1, (1.5,), (2.2,)),
    ],
    ids=[
        "half", "string", "float", "float-exponent", "groth-float", "algebra-string",
        "float-part", "string-part", "tableau-float-part", "tableau-float-letter",
        "shape-string-part", "signed-shape-float-part", "t-lambda-float-part",
        "spinor-float-entry",
    ],
)
def test_constructors_reject_non_integers(build):
    with pytest.raises(TypeError):
        build()


def test_keys_that_normalise_alike_add_up():
    assert SchurSeries(4, {(1,): 1, (1, 0): -1}).is_zero()
    assert SchurSeries(4, {(2, 1): 1, (2, 1, 0): 2}).coeffs == {(2, 1): 3}
    assert SchurSeries(4, {(1,): 2, (1, 0, 0): 0}) == SchurSeries(4, {(1,): 2})


def test_sums_keep_the_narrower_window():
    small, large = _label((), (1,), 1), _label((), (2, 1), 2)
    exact = GrothElement("c", {small: 1, large: 1})
    windowed = GrothElement("c", {small: 2}, 2)
    for total in (exact + windowed, windowed + exact):
        assert total == GrothElement("c", {small: 3}, 2)
    assert (exact - exact.scale(2)).through_degree is None
