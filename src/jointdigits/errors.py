"""Exceptions shared across the package, the one rule every size cap keeps,
and the rule every JSON reader keeps."""

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
        raise ResourceLimitError(f"{what} {size} exceeds cap {cap}")
    return size


def _check_power(what: str, a: int, e: int, cap: int) -> int:
    """a**e for a >= 1, refused past cap before a power far beyond it is built.

    a**e >= 2**(e * (bit_length(a) - 1)) bounds its size from e alone, so
    a power that is built has fewer than twice the bits of cap.
    """
    if e * (a.bit_length() - 1) >= cap.bit_length():
        raise ResourceLimitError(f"{what} {a}**{e} exceeds cap {cap}")
    return _check_cap(what, a**e, cap)


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
