"""The frozen value classes' shared base, written out by hand: no code
is generated when a class is defined, and importing it loads only
``operator``, so each command's start-up pays for neither.

A value class lists its fields as the parameters of its ``__init__``,
in order; ``__init__`` sets each with ``object.__setattr__`` and then
runs the class's checks (``__post_init__``), and the unchecked
``_trusted`` builders set the same fields the same way.  Fields are
plain instance attributes, so reads stay as cheap as on any object.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    """Value ``==``, ``hash`` and ``repr`` over the fields, each read by
    one ``operator.attrgetter``; assignment and deletion raise
    ``AttributeError``.  Only instances of the same class compare equal,
    and the hash is that of the tuple of fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        get = attrgetter(*cls._fields)
        # a one-field getter returns the bare value, not a 1-tuple
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        values = zip(self._fields, self._values(self))
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={v!r}' for n, v in values)})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
