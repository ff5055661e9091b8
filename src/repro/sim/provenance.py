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

from typing import Dict, Iterable, Optional, Sequence, Tuple

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


#: Interned provenance: ``(mask, stamps)`` where bit ``i`` of ``mask``
#: says source index ``i`` contributed, and ``stamps[2*i] / stamps[2*i+1]``
#: hold that source's min/max timestamp (0 when the bit is clear).
PackedProvenance = Tuple[int, Tuple[Time, ...]]


class ProvenancePacker:
    """Interned source-index bitmask form of :data:`Provenance`.

    The simulator's hot path merges provenance mappings once per job;
    with dicts that is hashing and tuple churn per source.  Packing the
    (fixed, known up front) source set into integer indices turns a
    merge into bitmask union plus min/max on a flat stamp array —
    integer ops only, no hashing.  ``pack``/``unpack`` convert at the
    boundary so observers keep seeing plain dicts.

    The packed form is equivalent to the dict form by construction:
    ``unpack(merge(map(pack, parts))) == merge_provenance(parts)``
    (property-tested in ``tests/test_sim_provenance_packed.py``).
    """

    __slots__ = ("sources", "index", "_empty")

    def __init__(self, sources: Sequence[str]) -> None:
        self.sources: Tuple[str, ...] = tuple(sources)
        self.index: Dict[str, int] = {
            name: i for i, name in enumerate(self.sources)
        }
        self._empty: PackedProvenance = (0, (0,) * (2 * len(self.sources)))

    @property
    def empty(self) -> PackedProvenance:
        """The packed form of ``{}``."""
        return self._empty

    def source(self, name: str, timestamp: Time) -> PackedProvenance:
        """Packed ``{name: (timestamp, timestamp)}``."""
        i = self.index[name]
        stamps = list(self._empty[1])
        stamps[2 * i] = timestamp
        stamps[2 * i + 1] = timestamp
        return (1 << i, tuple(stamps))

    def pack(self, provenance: Provenance) -> PackedProvenance:
        """Dict form -> packed form."""
        mask = 0
        stamps = list(self._empty[1])
        for name, (lo, hi) in provenance.items():
            i = self.index[name]
            mask |= 1 << i
            stamps[2 * i] = lo
            stamps[2 * i + 1] = hi
        return (mask, tuple(stamps))

    def unpack(self, packed: PackedProvenance) -> Provenance:
        """Packed form -> dict form (insertion order = source index)."""
        mask, stamps = packed
        out: Provenance = {}
        sources = self.sources
        while mask:
            bit = mask & -mask
            i = bit.bit_length() - 1
            out[sources[i]] = (stamps[2 * i], stamps[2 * i + 1])
            mask ^= bit
        return out

    def merge(self, parts: Iterable[PackedProvenance]) -> PackedProvenance:
        """Packed :func:`merge_provenance`: mask union + min/max folds."""
        acc_mask = -1
        acc: list = []
        for mask, stamps in parts:
            if acc_mask < 0:
                acc_mask = mask
                acc = list(stamps)
                continue
            fresh = mask & ~acc_mask
            shared = mask & acc_mask
            acc_mask |= mask
            while fresh:
                bit = fresh & -fresh
                i2 = 2 * (bit.bit_length() - 1)
                acc[i2] = stamps[i2]
                acc[i2 + 1] = stamps[i2 + 1]
                fresh ^= bit
            while shared:
                bit = shared & -shared
                i2 = 2 * (bit.bit_length() - 1)
                if stamps[i2] < acc[i2]:
                    acc[i2] = stamps[i2]
                if stamps[i2 + 1] > acc[i2 + 1]:
                    acc[i2 + 1] = stamps[i2 + 1]
                shared ^= bit
        if acc_mask < 0:
            return self._empty
        return (acc_mask, tuple(acc))

    def disparity(self, packed: PackedProvenance) -> Optional[Time]:
        """Packed :func:`disparity_of`."""
        mask, stamps = packed
        if not mask:
            return None
        lo: Optional[Time] = None
        hi: Optional[Time] = None
        while mask:
            bit = mask & -mask
            i2 = 2 * (bit.bit_length() - 1)
            if lo is None or stamps[i2] < lo:
                lo = stamps[i2]
            if hi is None or stamps[i2 + 1] > hi:
                hi = stamps[i2 + 1]
            mask ^= bit
        return hi - lo  # type: ignore[operator]


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
