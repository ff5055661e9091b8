"""Run-time channel state: overwrite registers and FIFO buffers.

The base model's channel is a buffer of size 1 with overwrite semantics
(implicit AUTOSAR communication): a write replaces the stored token, a
read peeks it without consuming.  The Section IV optimization enlarges
selected channels to FIFOs of capacity ``n``: a write enqueues and
evicts the *oldest* element when full; a read peeks the oldest element
(the "first element") without consuming.  A register is exactly the
``n = 1`` FIFO, so one implementation covers both.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.model.task import ModelError
from repro.sim.provenance import Token


class ChannelState:
    """Mutable run-time state of one channel."""

    __slots__ = ("src", "dst", "capacity", "_buffer", "writes", "evictions")

    def __init__(self, src: str, dst: str, capacity: int = 1) -> None:
        if capacity < 1:
            raise ModelError(
                f"channel {src}->{dst}: capacity must be >= 1, got {capacity}"
            )
        self.src = src
        self.dst = dst
        self.capacity = capacity
        self._buffer: Deque[Token] = deque()
        self.writes = 0
        self.evictions = 0

    def write(self, token: Token) -> None:
        """Enqueue a token, evicting the oldest when the buffer is full."""
        if len(self._buffer) == self.capacity:
            self._buffer.popleft()
            self.evictions += 1
        self._buffer.append(token)
        self.writes += 1

    def read(self) -> Optional[Token]:
        """Peek the oldest token (non-consuming); ``None`` when empty.

        With ``capacity == 1`` the oldest token *is* the latest token,
        so this implements both the register and the FIFO semantics.
        """
        if not self._buffer:
            return None
        return self._buffer[0]

    @property
    def occupancy(self) -> int:
        """Number of tokens currently buffered."""
        return len(self._buffer)

    @property
    def is_full(self) -> bool:
        """True when a write would evict the oldest token."""
        return len(self._buffer) == self.capacity

    @property
    def is_empty(self) -> bool:
        """True when no token has been written yet."""
        return not self._buffer

    def snapshot(self) -> Tuple[Token, ...]:
        """The buffered tokens, oldest first (testing/debugging)."""
        return tuple(self._buffer)

    def validate_fifo_order(self) -> None:
        """Invariant: stored tokens are ordered by production time."""
        times = [token.produced_at for token in self._buffer]
        if times != sorted(times):
            raise AssertionError(
                f"channel {self.src}->{self.dst} lost FIFO order: {times}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChannelState({self.src}->{self.dst}, cap={self.capacity}, "
            f"occ={self.occupancy})"
        )
