"""Immutable value records: the base class of the library's data types.

A record's fields are the parameters of its ``__init__``, in order; the
``__init__`` checks and normalizes them and writes each one, into the
instance dict or, in a slotted record, by ``object.__setattr__``.  The
base gives every record equality between records of one class and a
hash, both over the field values in order, a ``Name(field=value, ...)``
repr, and an attribute assignment or deletion that raises AttributeError.
A private cache is written the same way, as ``functools.cached_property``
does; it takes no part in equality.  A class overrides ``__eq__``, and
``__hash__`` with it, for an equality of its own.

The exact values of `kernel` and `torus.Mat2`, which arithmetic builds on
every operation, are slotted records: they declare ``__slots__``, with a
slot for each cache, and carry no instance dict.

`parse_int` is the package's one grammar of an integer written in text.
The module imports nothing from the package, so defining a record loads
no other module.
"""

import sys
from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        get = attrgetter(*cls._fields)
        # the field values as one tuple, whatever their number
        cls._values = staticmethod(
            get if len(cls._fields) > 1 else lambda record: (get(record),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(
            f"{type(self).__name__} records are immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(
            f"{type(self).__name__} records are immutable: cannot delete "
            f"{name!r}")


def parse_int(text: str, what: str):
    """The integer that `text` writes as an optional minus sign and ASCII
    digits, or None for any other text.  An integer with more digits than
    the interpreter converts is a ValueError naming `what`."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # only an interpreter that caps conversions raises
        raise ValueError(
            f"{what} must have at most {sys.get_int_max_str_digits()} digits "
            f"(the interpreter's limit), got {text[:20]!r}...") from None
