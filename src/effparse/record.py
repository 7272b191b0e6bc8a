"""Immutable records, made without generated code.

A record class declares its fields as annotations in its body, in order,
and a field given a value there has that value as its default.
:class:`Record` gives each subclass

- a constructor taking the fields by position or keyword, which then
  calls ``__post_init__``;
- equality and hashing over the fields, where a record equals only a
  record of its own class;
- the repr ``Class(field=value, ...)``;
- immutability: assignment raises, and code that keeps a memo on a
  record stores it with ``object.__setattr__``.

Nothing is generated from source text when a class is made: the class
keeps its field names, and its ``__eq__`` and ``__hash__`` are closures
over an :func:`operator.attrgetter` of them, so a one-field record hashes
its field directly.  A class whose body defines either keeps its own,
such as a :func:`cached_hash`.  The class keyword ``eq=False`` compares
by identity instead, and ``frozen=False`` allows assignment and makes the
record unhashable.  Classes built at a high rate define their own
``__init__``, storing each field with ``object.__setattr__``; the generic
one checks its arguments and is slower.
"""

from __future__ import annotations

from operator import attrgetter


def _no_fields(record):
    return ()


def _structural(key):
    """``__eq__`` and ``__hash__`` over what ``key`` reads of a record."""
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))
    return __eq__, __hash__


def cached_hash(hash_of):
    """A ``__hash__`` that computes ``hash_of(record)`` once and keeps it
    on the record as ``_hash``, for records hashed again and again."""
    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash_of(self)
            object.__setattr__(self, "_hash", h)
            return h
    return __hash__


class Record:
    _fields = ()
    _defaults = frozenset()

    def __init_subclass__(cls, eq=True, frozen=True, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)  # the class's own, not its bases'
        cls._fields = fields = cls._fields + own
        cls._defaults = cls._defaults | {f for f in own if f in cls.__dict__}
        if eq:
            key = attrgetter(*fields) if fields else _no_fields
            methods = dict(zip(("__eq__", "__hash__"), _structural(key)))
        else:
            methods = {"__eq__": object.__eq__, "__hash__": object.__hash__}
        if not frozen:
            methods.update(__setattr__=object.__setattr__,
                           __delattr__=object.__delattr__, __hash__=None)
        for name, method in methods.items():
            if name not in cls.__dict__:
                setattr(cls, name, method)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, "
                            f"{len(args)} given")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                object.__setattr__(self, name, kwargs.pop(name))
            elif name not in self._defaults:
                raise TypeError(f"{type(self).__name__} needs field {name!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__} got an unexpected or repeated "
                            f"field {next(iter(kwargs))!r}")
        self.__post_init__()

    def __post_init__(self):
        """Checks or completes a record that the generic constructor made."""

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
