"""Immutable slotted records: the value classes of the library.

``record`` rebuilds a class whose body annotates its fields, in order and
with optional defaults, as a class with ``__slots__`` over those fields.
Unless the class defines them itself, it gains:

* ``__init__`` taking the fields positionally or by keyword, falling back
  to the defaults, then calling the class's ``__post_init__`` if it has one;
* class-exact, field-wise ``__eq__`` and ``__hash__`` over the field tuple;
* a ``Cls(field=value, ...)`` ``__repr__``.

Instances refuse every attribute assignment or deletion with
``AttributeError``, and pickle and copy through their fields. A class
that writes its own ``__init__`` (the hot constructors do, to skip the
generic argument binding) stores each field with ``setfield``, or with the
field's slot descriptor, ``Cls.field.__set__``, a cheaper call. The fields
are the only slots: a class body that declares ``__slots__`` is refused
with a ``TypeError``.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["record", "setfield"]

setfield = object.__setattr__


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")


def record(cls):
    """Class decorator: ``cls`` rebuilt as an immutable slotted record."""
    ns = dict(cls.__dict__)
    fields = tuple(ns.get("__annotations__", ()))
    if len(fields) < 2:
        raise TypeError(f"record {cls.__name__} needs at least two fields")
    if "__slots__" in ns:
        raise TypeError(f"record {cls.__name__} declares __slots__; its fields are its slots")
    defaults = {name: ns.pop(name) for name in fields if name in ns}
    for name in ("__dict__", "__weakref__"):
        ns.pop(name, None)
    values = attrgetter(*fields)  # the field tuple
    names = frozenset(fields)
    post_init = ns.get("__post_init__")

    def __init__(self, *args, **kwargs):
        given = dict(zip(fields, args))
        if (
            len(args) > len(fields)
            or not names.issuperset(kwargs)
            or not given.keys().isdisjoint(kwargs)
        ):
            raise TypeError(f"{type(self).__name__}() got too many, unknown or repeated arguments")
        given = {**defaults, **given, **kwargs}
        for name in fields:
            try:
                value = given[name]
            except KeyError:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}") from None
            setfield(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return (self.__class__, values(self))

    for method in (__init__, __eq__, __hash__, __repr__):
        ns.setdefault(method.__name__, method)
    ns.update(
        __slots__=fields,
        __qualname__=cls.__qualname__,
        __setattr__=_frozen,
        __delattr__=_frozen,
        __reduce__=__reduce__,
    )
    return type(cls)(cls.__name__, cls.__bases__, ns)
