"""Prime field GF(p) and its elements.

A :class:`PrimeField` is a lightweight factory/validator for
:class:`FieldElement` values.  Elements are immutable, hashable and refuse
to combine with elements of a different field, which catches a whole class
of secret-sharing bugs (mixing shares generated under different moduli) at
the point of the mistake instead of at reconstruction time.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Union

from repro.errors import FieldError, MixedFieldError, NonInvertibleError
from repro.field.modular import is_probable_prime, mod_inverse

#: Mersenne prime 2**61 - 1 — default modulus for the whole library.
MERSENNE_61 = (1 << 61) - 1

#: Mersenne prime 2**127 - 1 — for users who want 128-bit aggregates.
MERSENNE_127 = (1 << 127) - 1

#: The library-wide default prime modulus.
DEFAULT_PRIME = MERSENNE_61

IntoElement = Union[int, "FieldElement"]


class PrimeField:
    """The finite field of integers modulo a prime ``p``.

    >>> field = PrimeField(2**61 - 1)
    >>> a = field(10)
    >>> b = field(20)
    >>> (a + b).value
    30
    """

    __slots__ = ("_prime",)

    _instances: dict[int, "PrimeField"] = {}
    # Interning must be race-free: if two threads could both miss the cache
    # and insert distinct GF(p) objects, ``is``-based mixing checks would
    # spuriously reject elements of the "same" field.  Campaign
    # parallelism constructs fields from worker threads, so the check-and-
    # insert is serialised (primality validation runs outside the lock —
    # a duplicate validation race is harmless, a duplicate insert is not).
    _instances_lock = threading.Lock()

    def __new__(cls, prime: int = DEFAULT_PRIME, *, validate: bool = True):
        if not isinstance(prime, int) or isinstance(prime, bool):
            raise FieldError(f"prime must be int, got {type(prime).__name__}")
        # Interning fields by modulus keeps identity checks cheap and means
        # two independently constructed GF(p) objects compare equal *and*
        # identical, so element mixing checks can use ``is``.
        cached = cls._instances.get(prime)
        if cached is not None:
            return cached
        if validate:
            if prime < 2:
                raise FieldError(f"prime must be >= 2, got {prime}")
            if not is_probable_prime(prime):
                raise FieldError(f"{prime} is not prime")
        with cls._instances_lock:
            cached = cls._instances.get(prime)
            if cached is not None:
                return cached
            instance = super().__new__(cls)
            instance._prime = prime
            cls._instances[prime] = instance
        return instance

    @property
    def prime(self) -> int:
        """The field modulus ``p``."""
        return self._prime

    @property
    def order(self) -> int:
        """Number of elements in the field (equals the modulus)."""
        return self._prime

    def __call__(self, value: IntoElement) -> "FieldElement":
        """Coerce an integer (or element of this field) into the field."""
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise MixedFieldError(
                    f"element of GF({value.field.prime}) passed to GF({self._prime})"
                )
            return value
        if not isinstance(value, int):
            raise FieldError(
                f"cannot coerce {type(value).__name__} into GF({self._prime})"
            )
        return FieldElement(self, value % self._prime)

    def element_from_bytes(self, data: bytes) -> "FieldElement":
        """Decode a big-endian byte string into a field element.

        The integer value must already be a canonical representative
        (``< p``); this is the inverse of :meth:`FieldElement.to_bytes` and
        deliberately rejects non-canonical encodings so that a corrupted
        ciphertext cannot silently alias another value.
        """
        value = int.from_bytes(data, "big")
        if value >= self._prime:
            raise FieldError(
                f"byte value {value} is not a canonical element of GF({self._prime})"
            )
        return FieldElement(self, value)

    @property
    def element_size_bytes(self) -> int:
        """Bytes needed to serialize any canonical element."""
        return (self._prime.bit_length() + 7) // 8

    def elements(self) -> Iterator["FieldElement"]:
        """Iterate every element (only sensible for tiny test fields)."""
        for value in range(self._prime):
            yield FieldElement(self, value)

    def sum(self, items: Iterable[IntoElement]) -> "FieldElement":
        """Field sum of an iterable (empty sum is zero)."""
        total = 0
        for item in items:
            total += item.value if isinstance(item, FieldElement) else item
        return FieldElement(self, total % self._prime)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other._prime == self._prime

    def __hash__(self) -> int:
        return hash(("PrimeField", self._prime))

    def __repr__(self) -> str:
        return f"PrimeField({self._prime})"

    def __contains__(self, item: object) -> bool:
        return isinstance(item, FieldElement) and item.field is self


class FieldElement:
    """An immutable element of a :class:`PrimeField`.

    Supports ``+ - * / **`` against other elements of the same field or
    plain ints (which are coerced).  Mixing elements of different fields
    raises :class:`MixedFieldError`.
    """

    __slots__ = ("_field", "_value")

    def __init__(self, field: PrimeField, value: int):
        self._field = field
        self._value = value % field.prime

    @property
    def field(self) -> PrimeField:
        """The field this element belongs to."""
        return self._field

    @property
    def value(self) -> int:
        """Canonical integer representative in ``[0, p)``."""
        return self._value

    def _coerce(self, other: IntoElement) -> int:
        """Return the integer value of ``other``, checking field identity."""
        if isinstance(other, FieldElement):
            if other._field is not self._field:
                raise MixedFieldError(
                    f"cannot mix GF({self._field.prime}) and GF({other._field.prime})"
                )
            return other._value
        if isinstance(other, int):
            return other
        return NotImplemented  # type: ignore[return-value]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: IntoElement) -> "FieldElement":
        value = self._coerce(other)
        if value is NotImplemented:
            return NotImplemented
        return FieldElement(self._field, self._value + value)

    __radd__ = __add__

    def __sub__(self, other: IntoElement) -> "FieldElement":
        value = self._coerce(other)
        if value is NotImplemented:
            return NotImplemented
        return FieldElement(self._field, self._value - value)

    def __rsub__(self, other: IntoElement) -> "FieldElement":
        value = self._coerce(other)
        if value is NotImplemented:
            return NotImplemented
        return FieldElement(self._field, value - self._value)

    def __mul__(self, other: IntoElement) -> "FieldElement":
        value = self._coerce(other)
        if value is NotImplemented:
            return NotImplemented
        return FieldElement(self._field, self._value * value)

    __rmul__ = __mul__

    def __truediv__(self, other: IntoElement) -> "FieldElement":
        value = self._coerce(other)
        if value is NotImplemented:
            return NotImplemented
        inverse = mod_inverse(value, self._field.prime)
        return FieldElement(self._field, self._value * inverse)

    def __rtruediv__(self, other: IntoElement) -> "FieldElement":
        value = self._coerce(other)
        if value is NotImplemented:
            return NotImplemented
        inverse = mod_inverse(self._value, self._field.prime)
        return FieldElement(self._field, value * inverse)

    def __pow__(self, exponent: int) -> "FieldElement":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            base = mod_inverse(self._value, self._field.prime)
            return FieldElement(self._field, pow(base, -exponent, self._field.prime))
        return FieldElement(self._field, pow(self._value, exponent, self._field.prime))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self._field, -self._value)

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; raises :class:`NonInvertibleError` on zero."""
        if self._value == 0:
            raise NonInvertibleError(f"0 has no inverse in GF({self._field.prime})")
        return FieldElement(self._field, mod_inverse(self._value, self._field.prime))

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return other._field is self._field and other._value == self._value
        if isinstance(other, int):
            return self._value == other % self._field.prime
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._field.prime, self._value))

    def __bool__(self) -> bool:
        return self._value != 0

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Big-endian fixed-width encoding (width = field element size)."""
        return self._value.to_bytes(self._field.element_size_bytes, "big")

    def __repr__(self) -> str:
        return f"FieldElement({self._value} mod {self._field.prime})"

    def __int__(self) -> int:
        return self._value
