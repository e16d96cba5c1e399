"""The two bases of the package's immutable values; neither generates code."""

import operator
from collections import namedtuple


class Frozen:
    """Fields: the ``__slots__``, set once by ``_set``, then compared, hashed and shown in order."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = operator.attrgetter(*cls.__slots__)
        cls._set = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = zip(self.__slots__, self._key(self))
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in fields)})"


class Record(tuple):
    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    __ne__ = object.__ne__
    __hash__ = tuple.__hash__


def record(typename, field_names, defaults=()):
    """The base of a record class: a ``namedtuple`` of its fields under ``Record``."""
    return type(typename, (Record, namedtuple(typename, field_names, defaults=defaults)),
                {"__slots__": ()})
