"""Frozen value classes without `dataclasses`.

`value_class` does what `@dataclass(frozen=True)` did for this package, at a
fraction of its import cost (`dataclasses` pulls in `inspect`).  The fields are
the class's own annotations, in order; a class attribute of the same name is the
field's default.  The class gets

- `__init__(self, field, ..., field=default)`, then `self.__post_init__()` if
  the class has one (it may normalize fields through `object.__setattr__`);
- `__eq__` and `__hash__` over the tuple of field values, equal only to an
  instance of the same class;
- the dataclass `__repr__`, `Name(field=value!r, ...)`;
- `__setattr__` and `__delattr__` raising AttributeError.

A method the class defines itself is kept: `__eq__ = object.__eq__` with
`__hash__ = object.__hash__` restores identity equality.
"""


def value_class(cls):
    names = tuple(cls.__annotations__)
    defaults = {f"_{name}": cls.__dict__[name] for name in names if name in cls.__dict__}
    params = "".join(f", {n}=_{n}" if f"_{n}" in defaults else f", {n}" for n in names)
    sets = "".join(f"    _set(self, {n!r}, {n})\n" for n in names)
    post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""

    def fields(owner):
        return "(" + "".join(f"{owner}.{n}, " for n in names) + ")"

    source = (
        f"def __init__(self{params}):\n{sets}{post}    pass\n"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return {fields('self')} == {fields('other')}\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash({fields('self')})\n"
    )
    methods = dict(defaults, _set=object.__setattr__)
    exec(source, methods)

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (methods["__init__"], methods["__eq__"], methods["__hash__"],
                   __repr__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    return cls
