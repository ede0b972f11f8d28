"""Frozen value records without code generation at import time.

A record class lists its fields once, in order, as __match_args__.
Record.__init__ stores them; a class writes its own __init__ only to check
or normalise its input.  Each field is set once with object.__setattr__.
"""


class Record:
    """Construction, equality, hash and repr from the fields in __match_args__.

    The constructor takes the fields positionally or by name, with no
    defaults.  Instances equal only instances of the same class with equal
    fields, hash as the tuple of their fields, and refuse assignment and
    deletion.
    """

    __match_args__ = ()

    def __init__(self, *values, **named):
        names = self.__match_args__
        if named or len(values) != len(names):
            rest = names[len(values):]
            if len(values) > len(names) or named.keys() != set(rest):
                raise TypeError(f"{type(self).__qualname__}() takes the fields {names} once each")
            values += tuple([named[name] for name in rest])
        # Around __setattr__ on purpose; self.__dict__ would give each record its own dict.
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

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
