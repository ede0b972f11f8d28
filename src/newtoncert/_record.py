"""Frozen value records without code generation at import time.

A record class lists its fields once, in order, as __match_args__ and sets
each of them once in its own __init__ with object.__setattr__.
"""


class Record:
    """Equality, hash and repr over the fields named in __match_args__.

    Instances equal only instances of the same class with equal fields,
    hash as the tuple of their fields, and refuse assignment and deletion.
    """

    __match_args__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
