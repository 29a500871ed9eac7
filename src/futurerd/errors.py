"""Error taxonomy shared across the package.

Three failure classes are kept apart on purpose: callers misusing the API,
bad input traces, and bugs in our own bookkeeping. The CLI maps them to
distinct exit codes. A fourth, ``ReaderError``, exits like a bug: the
command's trace reader process died, so the trace was not read to its end
and no verdict can be given.
"""


class UsageError(ValueError):
    """The caller violated an API precondition (unknown element, dead set, ...)."""


class InputError(Exception):
    """The input trace is unacceptable: malformed, invalid, or outside the
    restrictions the selected algorithm requires."""


class ParseError(InputError):
    """Malformed trace text. Carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
        self.message = message

    def __reduce__(self):  # ``args`` holds the formatted text, not the two arguments
        return type(self), (self.lineno, self.message)


class ClosureLimitError(InputError):
    """The trace needs more attached sets than the closure dag's budget admits."""

    def __init__(self, attached_sets: int, budget: int):
        super().__init__(
            f"the closure dag refuses {attached_sets} attached sets: its rows could take "
            f"{attached_sets * attached_sets // 8:,} bytes, over the budget of {budget:,} bytes"
        )
        self.attached_sets = attached_sets


class ReaderError(Exception):
    """The forked trace reader could not start, or ended before the trace did."""


class InvariantError(AssertionError):
    """An internal invariant broke; this is a bug in the detector, not bad input."""
