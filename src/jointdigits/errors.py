"""Exceptions shared across the package."""

__all__ = ["ResourceLimitError", "IndependentBasesError"]


class ResourceLimitError(Exception):
    """An operation would enumerate or scan past its configured cap.

    Raised instead of silently truncating; callers can retry with a larger
    cap or switch to a predicate/streaming form of the same operation.
    """


class IndependentBasesError(ValueError):
    """An operation that needs multiplicatively dependent bases got an
    independent pair.

    For independent bases every digit tuple is attainable, so the exact
    image computation degenerates; callers must opt in to the trivial
    all-attainable report explicitly.
    """
