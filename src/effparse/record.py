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
such as a :func:`cached_hash` (``values.SeqV``, hashed again and again,
is the one that does).  The class keyword ``eq=False`` compares by
identity instead, and ``frozen=False`` allows assignment and makes the
record unhashable.  Classes built at a high rate define their own
``__init__``, storing each field with ``object.__setattr__``; the generic
one checks its arguments and is slower.

The class keyword ``interned=True`` hash-conses the class and its
subclasses (Filliâtre & Conchon, "Type-safe modular hash-consing", 2006):
the constructor reads its positional, keyword and default fields as one
tuple and looks it up in a table of the class, returning the object
already made from equal fields, or making one, running ``__post_init__``
once and storing it; a ``__post_init__`` that raises stores nothing.  So
there is one object per distinct value, and ``__eq__`` and ``__hash__``
are ``object``'s, which run in C.  The types of ``typesys``, the modes of
``combine`` and the diagram summaries of ``diagrams`` are interned.  A
table only grows.  It stays small because these values are few, bounded
by the language's types, effect rank and mode kinds.  After a 20-second
run of the corpus benchmark workload (Python 3.11) the tables held 282
types, 21 modes and 359 summaries, and the ambiguity workload made fewer;
the corpus had made 149, 323, 358 and 359 summaries after 10, 80, 320 and
640 rounds.
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


def _field_values(cls, args, kwargs) -> tuple:
    """The values of ``cls``'s fields, given by position, by keyword or by
    default; raises ``TypeError`` on a missing, extra or repeated field."""
    fields = cls._fields
    if len(args) > len(fields):
        raise TypeError(f"{cls.__name__} takes {len(fields)} fields, {len(args)} given")
    values = list(args)
    for name in fields[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in cls._defaults:
            values.append(getattr(cls, name))
        else:
            raise TypeError(f"{cls.__name__} needs field {name!r}")
    if kwargs:
        raise TypeError(f"{cls.__name__} got an unexpected or repeated "
                        f"field {next(iter(kwargs))!r}")
    return tuple(values)


def _interned_new(cls, *args, **kwargs):
    """The one object of ``cls`` with these fields (see the module
    docstring)."""
    if kwargs or len(args) != len(cls._fields):
        args = _field_values(cls, args, kwargs)
    self = cls._table.get(args)
    if self is None:
        self = object.__new__(cls)
        for name, value in zip(cls._fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()
        # of two threads making one value, both keep the object stored first
        self = cls._table.setdefault(args, self)
    return self


class Record:
    _fields = ()
    _defaults = frozenset()

    def __init_subclass__(cls, eq=True, frozen=True, interned=False, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)  # the class's own, not its bases'
        cls._fields = fields = cls._fields + own
        cls._defaults = cls._defaults | {f for f in own if f in cls.__dict__}
        if interned or hasattr(cls, "_table"):
            cls._table = {}
            # with __new__ overridden, object.__init__ takes the constructor's
            # arguments and does nothing
            methods = {"__new__": staticmethod(_interned_new), "__init__": object.__init__,
                       "__eq__": object.__eq__, "__hash__": object.__hash__}
        elif eq:
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
        if kwargs or len(args) != len(self._fields):
            args = _field_values(type(self), args, kwargs)
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)
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
