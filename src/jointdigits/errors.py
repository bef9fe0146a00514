"""Exceptions shared across the package, the one rule every size cap keeps,
the rule every JSON reader keeps, and the base of every frozen record."""

import json
from functools import wraps

__all__ = ["ResourceLimitError", "IndependentBasesError"]


class ResourceLimitError(Exception):
    """An operation would enumerate or scan past its configured cap.

    Raised instead of silently truncating; callers can retry with a larger
    cap or switch to a predicate/streaming form of the same operation.
    """


def _check_cap(what: str, size: int, cap: int) -> int:
    """size, or ResourceLimitError when it exceeds cap.

    Every size that grows with a caller's input is checked here before
    anything that large is built.
    """
    if size > cap:
        raise ResourceLimitError(f"{what} {_show(size)} exceeds cap {_show(cap)}")
    return size


def _check_power(what: str, a: int, e: int, cap: int) -> int:
    """a**e for a >= 1, refused past cap before a power far beyond it is built.

    a**e >= 2**(e * (bit_length(a) - 1)) bounds its size from e alone, so
    a power that is built has fewer than twice the bits of cap.
    """
    power = None if e * (a.bit_length() - 1) >= cap.bit_length() else a**e
    if power is None or power > cap:
        raise ResourceLimitError(f"{what} {a}**{e} exceeds cap {_show(cap)}")
    return power


def _show(n: int) -> str:
    """n in decimal, or its bit length where the decimal form would run long
    (str() of an int past 4300 digits even raises under the default limit)."""
    return str(n) if n.bit_length() <= 256 else f"of {n.bit_length()} bits"


class IndependentBasesError(ValueError):
    """An operation that needs multiplicatively dependent bases got an
    independent pair.

    For independent bases every digit tuple is attainable, so the exact
    image computation degenerates; callers must opt in to the trivial
    all-attainable report explicitly.
    """


def _json_reader(rebuild):
    """Make ``rebuild(cls, d)`` a strict ``from_json_dict`` classmethod.

    ``rebuild`` reads the payload's key fields, checks sizes against the caps
    and rebuilds the object through its constructors, coercing passed-through
    numbers with ``operator.index``.  d is accepted only if its sorted-key
    ``json.dumps`` is exactly that of the object's ``to_json_dict()``, its
    canonical text, so no float, bool, non-canonical string or extra key
    gets through.  A missing key or a value of the wrong JSON type is a
    ValueError; ResourceLimitError passes through.
    """
    @wraps(rebuild)
    def from_json_dict(cls, d):
        try:
            obj = rebuild(cls, d)
            if json.dumps(d, sort_keys=True) != json.dumps(obj.to_json_dict(), sort_keys=True):
                raise ValueError(f"payload is not the canonical JSON of its {cls.__name__}")
        except (KeyError, TypeError, IndexError) as e:
            raise ValueError(f"malformed {cls.__name__} payload: {e!r}") from e
        return obj

    return classmethod(from_json_dict)


class _Record:
    """Base of the package's frozen records, in place of frozen dataclasses.

    A subclass names its fields as annotations, in order, and a class
    attribute of a field's name is its default.  Each subclass gets an
    ``__init__`` taking the fields by position or keyword, which calls
    ``__post_init__`` when the class has one.  Records refuse assignment
    and deletion, and repr, compare and hash as a frozen dataclass of the
    same fields does; fields named in ``_uncompared`` are left out of ==
    and hash.  Building this once per class is what keeps ``dataclasses``
    (and the ``inspect`` and ``ast`` it loads) out of every process.
    """

    _uncompared = ()

    def __init_subclass__(cls):
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        params = "".join(f", {f}=_d[{f!r}]" if f in defaults else f", {f}" for f in fields)
        body = "".join(f"\n _set(self, {f!r}, {f})" for f in fields)
        if hasattr(cls, "__post_init__"):
            body += "\n self.__post_init__()"
        key = "".join(f"self.{f}, " for f in fields if f not in cls._uncompared)
        ns = {"_set": object.__setattr__, "_d": defaults}
        exec(f"def __init__(self{params}):{body or ' pass'}\n"
             f"def _key(self): return ({key})", ns)
        cls.__init__, cls._key = ns["__init__"], ns["_key"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
