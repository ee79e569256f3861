"""Exception types shared across the package.

ValidationError means the caller handed us something outside an
operation's contract; BudgetError means an effort cap was hit.
A command-line front end is meant to map these to exit codes 2 and 1
(none exists yet).  A failed postcondition, checked by _ensure, is an
AssertionError: a bug here, not the caller's.
"""

__all__ = ["QuatPathError", "ValidationError", "BudgetError"]


class QuatPathError(Exception):
    pass


class ValidationError(QuatPathError):
    pass


class BudgetError(QuatPathError):
    pass


def _ensure(ok: bool, what: str) -> None:
    """Check a postcondition on a returned value; unlike assert, also under -O."""
    if not ok:
        raise AssertionError(f"postcondition failed: {what}")
