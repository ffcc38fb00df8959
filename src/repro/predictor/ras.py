"""Return address stack (RAS).

Calls push their return address (the instruction after the call); returns pop
it.  The modelled RAS has a fixed number of entries (64 in Table II) and wraps
on overflow, exactly like hardware circular RAS implementations: pushing onto
a full stack overwrites the oldest entry, and popping an empty stack returns
``None`` (the front end then has no predicted target for the return).
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import ConfigurationError


class ReturnAddressStack:
    """Fixed-capacity circular return address stack."""

    def __init__(self, entries: int = 64) -> None:
        if entries <= 0:
            raise ConfigurationError("RAS needs at least one entry")
        self.entries = entries
        self._stack: List[int] = []

    def push(self, return_address: int) -> None:
        """Push a call's return address; overwrites the oldest on overflow."""
        self._stack.append(return_address)
        if len(self._stack) > self.entries:
            # Circular overwrite: the oldest entry is lost.
            self._stack.pop(0)

    def pop(self) -> Optional[int]:
        """Pop the predicted return target; ``None`` when the stack is empty."""
        if not self._stack:
            return None
        return self._stack.pop()

    def peek(self) -> Optional[int]:
        """Return the top of the stack without popping."""
        return self._stack[-1] if self._stack else None

    def clear(self) -> None:
        """Empty the stack (context-switch flush, tests)."""
        self._stack.clear()

    def snapshot(self) -> List[int]:
        """Copy of the current stack contents (per-ASID checkpointing)."""
        return list(self._stack)

    def restore(self, entries: List[int]) -> None:
        """Replace the stack contents with a previously taken snapshot."""
        self._stack = list(entries)

    def __len__(self) -> int:
        return len(self._stack)

    @property
    def capacity(self) -> int:
        """Maximum number of return addresses held."""
        return self.entries
