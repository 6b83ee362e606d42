"""The immutable sparse term map behind every integer combination here.

A term map is a read-only map ``terms`` from keys to nonzero integers in a
fixed context ``_ctx``, a tuple that each class names by properties.  A
class supplies ``_key(ctx, key)``, which validates and normalises a key (or
returns None to drop its term), ``_join(a, b)``, the context of a
combination of two or the error when they do not combine, its product and
its printing.  Public constructors validate once, through ``_init``;
arithmetic on validated operands builds results through ``_trusted``.
Values are immutable and hashable, so caches hand them out as they are.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping


class TermMap:
    __slots__ = ("_ctx", "terms")

    def _init(self, ctx: tuple, terms: Mapping | None) -> None:
        """Validate every key and coefficient; keys that normalise alike add up."""
        clean: dict = {}
        for key, c in (terms or {}).items():
            if not isinstance(c, int):
                raise TypeError(f"coefficient {c!r} is not an integer")
            key = self._key(ctx, key)
            if key is not None:
                clean[key] = clean.get(key, 0) + c
        self._set(ctx, clean)

    @classmethod
    def _trusted(cls, ctx: tuple, terms: Mapping):
        """Build from keys already valid in ``ctx``; only zeros are dropped."""
        new = object.__new__(cls)
        new._set(ctx, terms)
        return new

    def _set(self, ctx: tuple, terms: Mapping) -> None:
        object.__setattr__(self, "_ctx", ctx)
        object.__setattr__(
            self, "terms", MappingProxyType({k: c for k, c in terms.items() if c})
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (self._trusted, (self._ctx, dict(self.terms)))

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._ctx == other._ctx
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self._ctx, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._ctx + (dict(self.terms),)}"

    def __add__(self, other):
        return Accumulator(self).add(other).result()

    def __sub__(self, other):
        return Accumulator(self).add(other, -1).result()

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c: int):
        if not isinstance(c, int):
            raise TypeError(f"scalar {c!r} is not an integer")
        return self._trusted(self._ctx, {k: c * v for k, v in self.terms.items()})

    def half(self):
        if any(v % 2 for v in self.terms.values()):
            raise ArithmeticError(
                f"{type(self).__name__} has an odd coefficient, cannot halve"
            )
        return self._trusted(self._ctx, {k: v // 2 for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms


class Accumulator:
    """A running sum of term maps of one class, added to in place.

    ``add(x, c)`` adds c * x without copying the sum so far, ``terms`` holds
    its nonzero terms, and ``result()`` returns the sum so far as a term map.
    Contexts combine by the class's join rule; when that narrows one (a
    smaller exactness window), the terms are admitted again under it.
    """

    __slots__ = ("kind", "ctx", "terms", "narrowed")

    def __init__(self, start: TermMap):
        self.kind, self.ctx, self.terms = type(start), start._ctx, dict(start.terms)
        self.narrowed = False

    def add(self, x: TermMap, c: int = 1) -> Accumulator:
        if type(x) is not self.kind:
            raise TypeError(f"cannot add {type(x).__name__} to {self.kind.__name__}")
        ctx = self.kind._join(self.ctx, x._ctx)
        self.narrowed = self.narrowed or ctx != self.ctx or ctx != x._ctx
        self.ctx = ctx
        terms = self.terms
        for key, v in x.terms.items():
            total = terms.get(key, 0) + c * v
            if total:
                terms[key] = total
            else:
                terms.pop(key, None)
        return self

    def result(self) -> TermMap:
        kind, ctx, terms = self.kind, self.ctx, self.terms
        if self.narrowed:
            terms = {k: v for k, v in terms.items() if kind._key(ctx, k) is not None}
        return kind._trusted(ctx, terms)


def show_terms(named: Iterable[tuple[object, int]]) -> str:
    """(name, c) pairs as ``c*name`` (``name`` when c = 1) joined by " + ", or "0"."""
    return " + ".join(str(n) if c == 1 else f"{c}*{n}" for n, c in named) or "0"
