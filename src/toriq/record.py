"""Immutable values with field-wise equality and hash.

A subclass names its fields in ``_fields`` and, when equality should see only
some of them, that subset in ``_compare``.  ``__init__`` stores its arguments
in ``_fields`` order; a subclass that normalises or checks them defines its own,
storing each into the instance ``__dict__``.  Assignment and deletion are
refused afterwards.  Instances are equal only to instances of the same class,
and the hash is that of the tuple of compared fields, as a frozen dataclass's
is; each subclass gets its own ``==`` and ``hash`` over that tuple.
``_unchecked(*values)`` stores values the library built, in ``_fields``
order, skipping ``__init__``.
"""

from operator import attrgetter


class Record:
    _fields = ()

    def __init_subclass__(cls):
        names = getattr(cls, "_compare", cls._fields)
        get = attrgetter(*names)  # a tuple for two or more names, so wrap one in a 1-tuple
        key = get if len(names) > 1 else lambda obj: (get(obj),)
        cls.__eq__ = lambda self, other: (key(self) == key(other)
                                          if other.__class__ is self.__class__ else NotImplemented)
        cls.__hash__ = lambda self: hash(key(self))

    def __init__(self, *values):
        self.__dict__.update(zip(self._fields, values, strict=True))

    @classmethod
    def _unchecked(cls, *values):
        obj = cls.__new__(cls)
        obj.__dict__.update(zip(cls._fields, values))
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
