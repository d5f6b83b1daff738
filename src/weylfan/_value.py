"""Immutable value classes: the base of the library's records.

A subclass of `Value` lists its fields as annotations, in order, and a
class attribute gives a field its default.  Each subclass gets an
`__init__` of its own, which stores the fields and then runs the class's
`__post_init__` check, if it has one; `replace` makes a changed copy
through it.  Equality and hash read the fields, less those the class names
in `uncompared`, between instances of exactly one class.  Fields can be
neither assigned nor deleted; `functools.cached_property` still caches, as
it writes to the instance dict."""

from operator import attrgetter


class Value:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, uncompared: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._compared = attrgetter(*(f for f in fields if f not in uncompared))
        defaults = {f"_{f}": cls.__dict__[f] for f in fields if f in cls.__dict__}
        params = "".join(f", {f}=_{f}" if f"_{f}" in defaults else f", {f}" for f in fields)
        # one object.__setattr__ per field keeps CPython's compact attribute
        # storage; filling `self.__dict__` instead doubles an instance's memory
        stores = "; ".join(f"_set(self, {f!r}, {f})" for f in fields)
        check = "; self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        scope = {"_set": object.__setattr__, **defaults}
        exec(f"def __init__(self{params}): {stores}{check}", scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared(self) == self._compared(other)

    def __hash__(self) -> int:
        return hash(self._compared(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def replace(value: Value, **changes) -> Value:
    """A copy of `value` with the given fields changed, checked as a new one is."""
    for name in value._fields:
        changes.setdefault(name, getattr(value, name))
    return value.__class__(**changes)
