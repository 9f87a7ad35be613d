"""Record classes built from closures, with no generated code.

``dataclasses`` writes each class's ``__init__``, ``__eq__``, ``__repr__``,
``__hash__`` and frozen ``__setattr__`` as source text and compiles it
when the class is defined, about 0.8 ms per frozen class at every import
of its module. :func:`record` gives a class the same methods as closures
over its field names, which cost nothing to compile.
"""


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen record."""


def record(cls):
    """Make ``cls`` a frozen record of the fields it annotates, in order of annotation.

    The class gets an ``__init__`` that takes the fields by position or by
    keyword, a class attribute named like a field being that field's
    default, and then calls ``__post_init__`` if the class has one;
    field-wise ``__eq__`` and ``__repr__`` as a dataclass writes them; an
    ``__setattr__`` and ``__delattr__`` that raise
    :class:`FrozenInstanceError`; and a ``__hash__`` of the fields, which
    raises :class:`TypeError` if a field is unhashable.
    """
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = hasattr(cls, "__post_init__")

    def bind(args, kwargs):
        """The field values of a call that does not pass every field by position."""
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def fields(self):
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(fields(self))

    for method in (__init__, __eq__, __repr__, __setattr__, __delattr__, __hash__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
