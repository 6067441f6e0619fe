"""``record``: a frozen dataclass built with one ``exec`` per class.

``@record`` means what ``@dataclass(frozen=True)`` means, with one
addition: an init field whose annotation has the outer type ``tuple`` or
``frozenset`` stores ``tuple(x)`` or ``frozenset(x)`` of its argument ``x``,
which is ``x`` itself when ``x`` already has that type.  ``dataclasses``
itself collects the fields, so ``dataclasses.fields``, ``replace``, every
``field(...)`` option, ``__post_init__``, ``__match_args__`` and inherited
fields keep their meaning.  ``__init__``, ``__eq__`` and ``__hash__`` have
the shapes that ``dataclasses`` generates (``object.__setattr__`` per field;
a tuple of the compare fields), so they cost the same and hash the same.
What changes is the cost of making the class: ``dataclasses`` compiles six
methods for a frozen class, one ``exec`` each, while ``record`` compiles
``__init__``, ``__eq__`` and ``__hash__`` in one ``exec`` and shares one
``__repr__``, ``__setattr__`` and ``__delattr__`` among all records.  Each
distinct generated source is compiled once, and every class that generates
it runs the same code object in a namespace of its own.  A method defined
in the class body is kept.  ``InitVar`` and keyword-only fields are not
supported; no record has one.
"""
from __future__ import annotations

import functools
import inspect
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields


class _Factory:
    """The default of a parameter whose field has a ``default_factory``."""

    def __repr__(self):
        return "<factory>"


class _Doc:
    """The docstring ``dataclasses`` gives an undocumented class, made when
    it is read rather than when the class is."""

    def __get__(self, obj, cls):
        return cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")


_FACTORY = _Factory()
_DOC = _Doc()


def _repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__record_repr__)
    return f"{self.__class__.__qualname__}({shown})"


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _tuple(obj: str, names: list[str]) -> str:
    return f"({','.join(f'{obj}.{name}' for name in names)},)" if names else "()"


_CONTAINERS = {"tuple": tuple, "frozenset": frozenset}


def _container(annotation):
    """``tuple`` or ``frozenset`` when it is the outer type of ``annotation``,
    else None.  Under ``from __future__ import annotations`` the annotation
    is a string such as ``"tuple[str, ...]"``."""
    if not isinstance(annotation, str):
        origin = getattr(annotation, "__origin__", annotation)
        return origin if origin in (tuple, frozenset) else None
    name, _, args = annotation.partition("[")
    if name not in _CONTAINERS or args[-1:] not in ("", "]"):
        return None
    depth = 1
    for char in args[:-1]:
        depth += (char == "[") - (char == "]")
        if depth == 0:  # the bracket after ``name`` closes early: ``tuple[x] | y[z]``
            return None
    return _CONTAINERS[name]


@functools.cache
def _compiled(source: str):
    """The code of one generated source; classes whose fields have the same
    names, options and tuple or frozenset types share it, and each runs it
    in its own namespace."""
    return compile(source, "<string>", "exec")


def record(cls):
    """Make ``cls`` a frozen dataclass (see the module docstring)."""
    documented = cls.__doc__ is not None
    if not documented:  # spares ``dataclass`` a signature of ``object``
        cls.__doc__ = cls.__name__
    dataclass(cls, init=False, repr=False, eq=False)
    flds = fields(cls)
    env = {"__dataclass_builtins_object__": object, "_HAS_DEFAULT_FACTORY": _FACTORY}
    params, lines = ["self"], []
    for f in flds:
        default = f"_dflt_{f.name}"
        if f.default_factory is not MISSING:
            env[default] = f.default_factory
            value = f"{default}()"
            if f.init:
                params.append(f"{f.name}=_HAS_DEFAULT_FACTORY")
                value = f"{value} if {f.name} is _HAS_DEFAULT_FACTORY else {f.name}"
        elif f.default is not MISSING:
            env[default] = f.default
            value = f.name if f.init else default
            if f.init:
                params.append(f"{f.name}={default}")
        elif f.init:
            params.append(f.name)
            value = f.name
        else:
            continue
        container = _container(f.type) if f.init else None
        if container is not None:
            value = f"{container.__name__}({value})"
        lines.append(f"__dataclass_builtins_object__.__setattr__(self,{f.name!r},{value})")
    if hasattr(cls, "__post_init__"):
        lines.append("self.__post_init__()")
    compared = [f.name for f in flds if f.compare]
    hashed = [f.name for f in flds if (f.compare if f.hash is None else f.hash)]
    source = (
        f"def __init__({','.join(params)}):\n"
        + "".join(f" {line}\n" for line in lines or ["pass"])
        + "def __eq__(self,other):\n"
        " if other.__class__ is self.__class__:\n"
        f"  return {_tuple('self', compared)}=={_tuple('other', compared)}\n"
        " return NotImplemented\n"
        "def __hash__(self):\n"
        f" return hash({_tuple('self', hashed)})\n"
    )
    exec(_compiled(source), env)
    env["__init__"].__annotations__ = {f.name: f.type for f in flds if f.init}
    env["__init__"].__annotations__["return"] = None
    methods = {name: env[name] for name in ("__init__", "__eq__", "__hash__")}
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
    methods.update(__repr__=_repr, __setattr__=_setattr, __delattr__=_delattr)
    cls.__record_repr__ = tuple(f.name for f in flds if f.repr)
    for name, method in methods.items():
        # None is also the ``__hash__`` of a class body that defines ``__eq__``
        if cls.__dict__.get(name) is None:
            setattr(cls, name, method)
    if not documented:
        cls.__doc__ = _DOC
    return cls
