"""The base of the package's frozen value records (traces, models, reports)."""


class Record:
    """A frozen value object whose fields, ``_fields``, are the names in the
    nearest non-empty ``__slots__`` of its class, in order.

    ``Record.__init__`` stores each field once, given by position or keyword,
    and raises :class:`TypeError` naming the fields for a missing, extra,
    duplicated or unknown one.  Records that check their values (traces,
    models, curves, the suite config) keep their own ``__init__``: this one
    doubles the cost per call, and a 100-trial suite builds ~6,600 models.

    Records are equal when they are of one class with equal fields, hash as
    the tuple of their fields and print as ``Name(field=value, ...)``.
    Assigning or deleting a field raises :class:`AttributeError`.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__dict__.get("__slots__"):
            cls._fields = tuple(cls.__slots__)

    def __init__(self, *values, **named):
        fields = self._fields
        if named and named.keys() == set(fields[len(values):]):
            values += tuple([named[name] for name in fields[len(values):]])
        elif named or len(values) != len(fields):
            raise TypeError(f"{type(self).__qualname__}({', '.join(fields)}) takes each field once")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild the record through __init__
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
