"""The frozen value base class of qpcert's AST nodes, results and algebra types.

A value class lists its fields in __match_args__, the same names in
__slots__, and sets them in an explicit __init__ with _set.  _Value then
makes it behave as a frozen dataclass would, with no generated code:
fields cannot be assigned or deleted, == compares the field tuples of
two values of the same class, equal values hash equal, the repr is
Name(field=value, ...), and pickle and copy rebuild a value field by
field without calling its __init__.

>>> class Pair(_Value):
...     __slots__ = __match_args__ = ("a", "b")
...     def __init__(self, a, b):
...         _set(self, "a", a)
...         _set(self, "b", b)
>>> Pair(1, [2])
Pair(a=1, b=[2])
>>> Pair(1, 2) == Pair(1, 2), hash(Pair(1, 2)) == hash((1, 2))
(True, True)
>>> Pair(1, 2).a = 3
Traceback (most recent call last):
    ...
AttributeError: cannot assign to field 'a'
"""

_set = object.__setattr__


def _rebuild(cls, values):
    """The cls value with these field values, set without cls.__init__."""
    value = object.__new__(cls)
    for name, v in zip(cls.__match_args__, values):
        _set(value, name, v)
    return value


class _Value:
    """Frozen, compared, hashed, printed and pickled by its __match_args__ fields."""

    __slots__ = ()
    __match_args__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return _rebuild, (type(self), self._fields())
