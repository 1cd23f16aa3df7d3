"""Frozen value classes, and one serializer for every report.

``@frozen`` turns a class with annotated fields into an immutable value,
as ``dataclasses.dataclass(frozen=True)`` would, without generating code:
the methods it installs are closures over the field names, so importing
a module costs no ``exec`` per class.  It records the fields in
declaration order in ``_fields``, the defaults in ``_field_defaults`` and
the derived fields, declared ``field(init=False)`` and set in
``__post_init__``, in ``_derived``.  A class keeps any of the six methods
it defines itself.

A report's keys are its fields in declaration order, which is therefore
the key order of ``--json`` output.  A derived verdict that the dict
carries, such as ``ok``, is a derived field, declared where its key goes.
"""

from __future__ import annotations

from operator import attrgetter

_DERIVED = object()
_item = "{}={!r}".format  # one "name=repr" entry of a repr


def field(*, init: bool) -> object:
    """Mark a derived field: ``ok: bool = field(init=False)``."""
    if init:
        raise TypeError("field() marks only a derived field: use field(init=False)")
    return _DERIVED


def frozen(cls):
    """Make ``cls`` a frozen value class over its annotated fields.

    The constructor takes the fields that are not derived, by position or
    keyword, applies the defaults and then calls ``__post_init__`` if the
    class has one.  Equality holds between instances of the same class
    whose fields are equal in order, the hash is that of the field tuple,
    ``repr`` is ``Name(field=value, ...)`` and assigning or deleting an
    attribute raises ``AttributeError``.
    """
    own = vars(cls)
    names = tuple(own.get("__annotations__", ()))
    derived = tuple(n for n in names if own.get(n) is _DERIVED)
    params = tuple(n for n in names if n not in derived)
    defaults = {n: own[n] for n in params if n in own}
    if tuple(defaults) != params[len(params) - len(defaults):]:
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    for n in derived:
        delattr(cls, n)
    n_params, post = len(params), hasattr(cls, "__post_init__")
    put = object.__setattr__
    values = attrgetter(*names) if len(names) > 1 else lambda self: tuple(getattr(self, n) for n in names)

    def __init__(self, *args, **kw):
        if kw or len(args) != n_params:
            args = _bind(cls, params, defaults, args, kw)
        i = 0
        for name in params:
            put(self, name, args[i])
            i += 1
        if post:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(map(_item, names, values(self)))})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if own.get(method.__name__) is None:  # a class defining __eq__ alone has __hash__ None
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    cls._fields, cls._field_defaults, cls._derived = names, defaults, derived
    return cls


def _bind(cls, params: tuple, defaults: dict, args: tuple, kw: dict) -> list:
    """The constructor's arguments in field order, or ``TypeError``."""
    if len(args) > len(params):
        raise TypeError(f"{cls.__name__}() takes {len(params)} arguments but {len(args)} were given")
    bound = list(args)
    for name in params[len(args):]:
        if name in kw:
            bound.append(kw.pop(name))
        elif name in defaults:
            bound.append(defaults[name])
        else:
            raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
    if kw:
        name = next(iter(kw))
        why = "multiple values for" if name in params else "an unexpected keyword"
        raise TypeError(f"{cls.__name__}() got {why} argument {name!r}")
    return bound


class Report:
    """Mixin for frozen report classes: ``to_dict`` lists the fields in order."""

    def to_dict(self) -> dict:
        return {n: _plain(getattr(self, n)) for n in self._fields}


def _plain(v):
    """A nested report becomes its dict, a tuple or list a list, a dict key a str."""
    if isinstance(v, Report):
        return v.to_dict()
    if isinstance(v, (tuple, list)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {k if isinstance(k, str) else str(k): _plain(x) for k, x in v.items()}
    return v
