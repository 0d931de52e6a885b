"""Pattern values and pattern tuples (Section 2.1 of the paper).

A *pattern value* is either a constant from an attribute domain or the
unnamed variable ``_`` (the singleton :data:`WILDCARD`), which matches any
value.  A *pattern tuple* assigns a pattern value to each attribute of a CFD.

The module also implements the match order ``≼`` of Section 2.1.2:

* ``v ≼ w`` for constants iff ``v == w``;
* ``v ≼ _`` for every value ``v`` (the wildcard is the most general pattern).

The order extends componentwise to tuples; ``more general`` means higher in
this order.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import PatternError


class _Wildcard:
    """The unnamed variable ``_`` of CFD pattern tuples (a singleton)."""

    _instance: Optional["_Wildcard"] = None
    __slots__ = ()

    def __new__(cls) -> "_Wildcard":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "_"

    def __str__(self) -> str:
        return "_"

    def __reduce__(self):
        return (_Wildcard, ())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Wildcard)

    def __hash__(self) -> int:
        return hash("__repro_wildcard__")


#: The unnamed variable "_" used in pattern tuples.
WILDCARD = _Wildcard()

PatternValue = Union[Hashable, _Wildcard]

#: The integer code of ``_`` where patterns are held as encoded value codes
#: (value codes are ``0..n-1``): CTANE's lattice, pattern-partition keys and
#: the store's checkpoint arrays.  :func:`repro.core.cfd.cfd_from_codes`
#: decodes it back to :data:`WILDCARD`.
WILDCARD_CODE = -1


def is_wildcard(value: object) -> bool:
    """``True`` iff ``value`` is the unnamed variable ``_``."""
    return isinstance(value, _Wildcard)


def value_matches(value: Hashable, pattern_value: PatternValue) -> bool:
    """``value ≼ pattern_value``: the data value matches the pattern value."""
    return is_wildcard(pattern_value) or value == pattern_value


def pattern_leq(first: PatternValue, second: PatternValue) -> bool:
    """The order ``first ≼ second`` on pattern values.

    ``first ≼ second`` holds iff ``first == second`` or ``second`` is ``_``.
    """
    if is_wildcard(second):
        return True
    if is_wildcard(first):
        return False
    return first == second


def pattern_str(value: PatternValue) -> str:
    """Human-readable rendering of a pattern value."""
    return "_" if is_wildcard(value) else str(value)


class PatternTuple:
    """An assignment of pattern values to a fixed, ordered attribute list.

    Pattern tuples are immutable and hashable.  The attribute order is part of
    the identity of the tuple; CFDs canonicalise LHS attributes in schema
    order so equality of CFDs is order-insensitive at that level.

    Examples
    --------
    >>> tp = PatternTuple(("CC", "AC"), ("01", WILDCARD))
    >>> tp["CC"]
    '01'
    >>> tp.is_constant
    False
    >>> str(tp)
    '(01, _)'
    """

    __slots__ = ("_attributes", "_values")

    def __init__(
        self,
        attributes: Sequence[str],
        values: Sequence[PatternValue],
    ):
        attributes = tuple(attributes)
        values = tuple(values)
        if len(attributes) != len(values):
            raise PatternError(
                f"{len(attributes)} attributes but {len(values)} pattern values"
            )
        if len(set(attributes)) != len(attributes):
            raise PatternError(f"duplicate attributes in pattern: {attributes}")
        self._attributes = attributes
        self._values = values

    # ------------------------------------------------------------------ #
    @classmethod
    def from_mapping(cls, mapping: Mapping[str, PatternValue]) -> "PatternTuple":
        """Build a pattern tuple from an ``{attribute: pattern value}`` dict."""
        return cls(tuple(mapping.keys()), tuple(mapping.values()))

    @classmethod
    def all_wildcards(cls, attributes: Sequence[str]) -> "PatternTuple":
        """The most general pattern ``(_, …, _)`` over ``attributes``."""
        return cls(tuple(attributes), tuple(WILDCARD for _ in attributes))

    # ------------------------------------------------------------------ #
    @property
    def attributes(self) -> Tuple[str, ...]:
        return self._attributes

    @property
    def values(self) -> Tuple[PatternValue, ...]:
        return self._values

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Tuple[str, PatternValue]]:
        return iter(zip(self._attributes, self._values))

    def __getitem__(self, attribute: str) -> PatternValue:
        try:
            return self._values[self._attributes.index(attribute)]
        except ValueError:
            raise PatternError(
                f"attribute {attribute!r} not in pattern over {self._attributes}"
            ) from None

    def __contains__(self, attribute: object) -> bool:
        return attribute in self._attributes

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PatternTuple)
            and other._attributes == self._attributes
            and other._values == self._values
        )

    def __hash__(self) -> int:
        return hash((self._attributes, self._values))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{attr}={pattern_str(value)}" for attr, value in self
        )
        return f"PatternTuple({pairs})"

    def __str__(self) -> str:
        return "(" + ", ".join(pattern_str(v) for v in self._values) + ")"

    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, PatternValue]:
        """The pattern as an ``{attribute: pattern value}`` dictionary."""
        return dict(zip(self._attributes, self._values))

    @property
    def is_constant(self) -> bool:
        """``True`` iff every pattern value is a constant."""
        return all(not is_wildcard(v) for v in self._values)

    @property
    def is_all_wildcards(self) -> bool:
        """``True`` iff every pattern value is the unnamed variable."""
        return all(is_wildcard(v) for v in self._values)

    @property
    def constant_attributes(self) -> Tuple[str, ...]:
        """Attributes carrying a constant pattern value."""
        return tuple(a for a, v in self if not is_wildcard(v))

    @property
    def wildcard_attributes(self) -> Tuple[str, ...]:
        """Attributes carrying the unnamed variable."""
        return tuple(a for a, v in self if is_wildcard(v))

    def restrict(self, attributes: Iterable[str]) -> "PatternTuple":
        """The pattern restricted to ``attributes`` (paper: ``tp[Y]``)."""
        attributes = tuple(attributes)
        mapping = self.as_dict()
        missing = [a for a in attributes if a not in mapping]
        if missing:
            raise PatternError(f"attributes {missing} not in pattern")
        return PatternTuple(attributes, tuple(mapping[a] for a in attributes))

    def constant_part(self) -> "PatternTuple":
        """The restriction to the constant attributes (paper: ``(Xᶜ, tᶜp)``)."""
        return self.restrict(self.constant_attributes)

    def with_value(self, attribute: str, value: PatternValue) -> "PatternTuple":
        """A copy with the pattern value of ``attribute`` replaced."""
        mapping = self.as_dict()
        if attribute not in mapping:
            raise PatternError(f"attribute {attribute!r} not in pattern")
        mapping[attribute] = value
        return PatternTuple.from_mapping(mapping)

    def generalise(self, attribute: str) -> "PatternTuple":
        """Upgrade the constant on ``attribute`` to the unnamed variable."""
        return self.with_value(attribute, WILDCARD)

    def matches_row(self, row: Mapping[str, Hashable]) -> bool:
        """``True`` iff the data row matches every pattern value."""
        return all(value_matches(row[attr], value) for attr, value in self)

    def leq(self, other: "PatternTuple") -> bool:
        """Tuple order ``self ≼ other`` (``other`` is at least as general).

        Both tuples must range over the same attribute set (any order).
        """
        mapping = other.as_dict()
        if set(mapping) != set(self._attributes):
            raise PatternError("pattern tuples range over different attributes")
        return all(pattern_leq(value, mapping[attr]) for attr, value in self)

    def strictly_more_general_than(self, other: "PatternTuple") -> bool:
        """``other ≺ self``: ``self`` is strictly more general."""
        return other.leq(self) and not self.leq(other)

    def generalisations(self) -> Iterator["PatternTuple"]:
        """All single-step generalisations (one constant upgraded to ``_``)."""
        for attr, value in self:
            if not is_wildcard(value):
                yield self.generalise(attr)


__all__ = [
    "WILDCARD",
    "WILDCARD_CODE",
    "PatternValue",
    "PatternTuple",
    "is_wildcard",
    "value_matches",
    "pattern_leq",
    "pattern_str",
]
