"""Exceptions shared across the package."""


class CapExceededError(ValueError):
    """An exhaustive scan was asked to run past its configured size cap.

    requested is the size asked for, or a power written as "p**e" when
    its exponent alone puts it over the cap.
    """

    def __init__(self, what: str, requested: int | str, cap: int):
        super().__init__(f"{what}={requested} exceeds cap {cap}")
        self.what = what
        self.requested = requested
        self.cap = cap



__all__ = ["CapExceededError"]
