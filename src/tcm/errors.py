"""Exceptions shared across the package."""


class CapExceededError(ValueError):
    """An exhaustive scan was asked to run past its configured size cap."""

    def __init__(self, what: str, requested: int, cap: int):
        super().__init__(f"{what}={requested} exceeds cap {cap}")
        self.what = what
        self.requested = requested
        self.cap = cap



__all__ = ["CapExceededError"]
