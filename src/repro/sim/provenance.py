"""Data tokens and source provenance.

Every data token carries the provenance needed to evaluate Definition 2
exactly: for each *source task* whose raw data the token (transitively)
originates from, the minimum and maximum timestamp among all raw data
items that reached the token through any path.  The time disparity of a
job is then

    disparity = (max over sources of max-timestamp)
              - (min over sources of min-timestamp)

which equals the maximum pairwise timestamp difference over *all* the
job's sources — including two raw data items of the *same* sensor that
arrived through different paths (the counter-intuitive case Section IV
opens with).

Storing ``(min, max)`` per source instead of the full multiset keeps
tokens O(#sources) while preserving the disparity metric exactly (the
maximum pairwise difference only depends on the extremes).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.units import Time

#: Per-source timestamp extremes: source task name -> (min, max).
Provenance = Dict[str, Tuple[Time, Time]]


class Token:
    """A data token in a channel.

    Attributes:
        produced_at: Finish time of the job that wrote the token.
        producer: Name of the producing task.
        producer_release: Release time of the producing job (used to
            reconstruct observed backward times).
        provenance: Source-timestamp extremes (see module docstring).
    """

    __slots__ = ("produced_at", "producer", "producer_release", "provenance")

    def __init__(
        self,
        produced_at: Time,
        producer: str,
        producer_release: Time,
        provenance: Provenance,
    ) -> None:
        self.produced_at = produced_at
        self.producer = producer
        self.producer_release = producer_release
        self.provenance = provenance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Token({self.producer}@{self.produced_at}, "
            f"sources={self.provenance})"
        )


def source_token(source: str, timestamp: Time) -> Token:
    """Token produced by a source task; its timestamp is its release."""
    return Token(
        produced_at=timestamp,
        producer=source,
        producer_release=timestamp,
        provenance={source: (timestamp, timestamp)},
    )


def merge_provenance(parts: Iterable[Provenance]) -> Provenance:
    """Combine the provenance of several read tokens (min/max per source)."""
    merged: Provenance = {}
    for part in parts:
        for source, (lo, hi) in part.items():
            existing = merged.get(source)
            if existing is None:
                merged[source] = (lo, hi)
            else:
                merged[source] = (min(existing[0], lo), max(existing[1], hi))
    return merged


def disparity_of(provenance: Provenance) -> Optional[Time]:
    """Maximum pairwise timestamp difference; ``None`` for no sources.

    A token with a single source timestamp has disparity 0; a token with
    no provenance (produced before any source data arrived) has no
    defined disparity and yields ``None``.
    """
    if not provenance:
        return None
    lo = min(pair[0] for pair in provenance.values())
    hi = max(pair[1] for pair in provenance.values())
    return hi - lo


def pairwise_disparity_of(
    provenance: Provenance, source_a: str, source_b: str
) -> Optional[Time]:
    """Max timestamp difference restricted to two sources.

    For ``source_a == source_b`` this is the spread of that source's
    own timestamps (multi-path case).  Returns ``None`` unless both
    sources contributed to the token.
    """
    a = provenance.get(source_a)
    b = provenance.get(source_b)
    if a is None or b is None:
        return None
    if source_a == source_b:
        return a[1] - a[0]
    return max(a[1] - b[0], b[1] - a[0])
