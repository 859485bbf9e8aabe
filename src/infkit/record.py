"""Frozen records, written by hand so that importing infkit generates no
methods and imports no `inspect`. Each record's `__init__` stores its fields
straight into `__dict__`; assigning or deleting an attribute afterwards
raises AttributeError."""
from operator import attrgetter


class Record:
    """Equal only to itself; shown as `Name(field=value, ...)`. The fields
    are the parameters of the class's `__init__`, unless it lists
    `_fields`."""
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        init = vars(cls).get("__init__")
        if init and "_fields" not in vars(cls):
            code = init.__code__
            cls._fields = code.co_varnames[1:code.co_argcount]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    """Equal to a record of the same class with equal fields; hashed as the
    tuple of its fields, which each class reads with one getter built when
    the class is made."""

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        get = attrgetter(*cls._fields)
        cls._astuple = staticmethod(
            get if len(cls._fields) > 1 else lambda record: (get(record),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        astuple = self._astuple
        return astuple(self) == astuple(other)

    def __hash__(self) -> int:
        return hash(self._astuple(self))
