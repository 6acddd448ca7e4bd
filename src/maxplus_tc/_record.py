"""The base of the package's frozen value records (traces, models, reports)."""


class Record:
    """A frozen value object whose fields are the names in its class's
    ``__slots__``, in order.  Each subclass's ``__init__`` sets every field
    once with ``object.__setattr__``.

    Records are equal when they are of one class with equal fields, hash as
    the tuple of their fields and print as ``Name(field=value, ...)``.
    Assigning or deleting a field raises :class:`AttributeError`.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild the record through __init__
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
