"""Shared error types for the evolution modules."""


class BlowUpError(RuntimeError):
    """Raised when an evolution produces non-finite or runaway values.

    Carries the last finite state and the partial trajectory the flow loop
    attaches, so callers can report diagnostics instead of losing the run.
    """

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state
        self.partial = None


class InvariantError(RuntimeError):
    """Raised when a declared invariant check fails at runtime.

    Carries the report its raiser had assembled before the check, so callers
    can record the figures that failed it.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}
