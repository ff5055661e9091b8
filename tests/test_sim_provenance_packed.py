"""Property-based equivalence: packed provenance == dict provenance.

:class:`repro.sim.provenance.ProvenancePacker` merges provenance as
interned bitmask + stamp arrays; these tests pin it to the reference
dict implementation (:func:`merge_provenance`) over randomized inputs.
The columnar kernel folds the same ``(min, max)`` stamps per source;
the last test pins its per-job disparities to the simulator's tokens
over full simulated DAG runs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.provenance import (
    ProvenancePacker,
    disparity_of,
    merge_provenance,
)
from tests.tiers import assert_provenance_matches, random_system

SOURCES = tuple(f"s{i}" for i in range(9))


@st.composite
def provenance_dicts(draw):
    """A random provenance mapping over the fixed source pool."""
    names = draw(
        st.lists(st.sampled_from(SOURCES), unique=True, max_size=len(SOURCES))
    )
    out = {}
    for name in names:
        lo = draw(st.integers(min_value=0, max_value=10**9))
        hi = lo + draw(st.integers(min_value=0, max_value=10**9))
        out[name] = (lo, hi)
    return out


@settings(max_examples=250, deadline=None)
@given(st.lists(provenance_dicts(), max_size=6))
def test_packed_merge_matches_dict_merge(parts):
    packer = ProvenancePacker(SOURCES)
    reference = merge_provenance(parts)
    packed = packer.merge(packer.pack(part) for part in parts)
    assert packer.unpack(packed) == reference
    assert packer.disparity(packed) == disparity_of(reference)


@settings(max_examples=250, deadline=None)
@given(provenance_dicts())
def test_pack_unpack_roundtrip(provenance):
    packer = ProvenancePacker(SOURCES)
    assert packer.unpack(packer.pack(provenance)) == provenance


@settings(max_examples=250, deadline=None)
@given(
    st.sampled_from(SOURCES),
    st.integers(min_value=0, max_value=10**12),
)
def test_source_token_packed(name, timestamp):
    packer = ProvenancePacker(SOURCES)
    assert packer.unpack(packer.source(name, timestamp)) == {
        name: (timestamp, timestamp)
    }


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=12),
)
def test_dag_run_provenance_matches_reference_loop(seed, n_tasks):
    """Columnar per-job disparities on a random DAG run == the
    simulator's dict tokens.

    Runs the same scenario through the columnar kernel (stamps folded
    per source in the derive) and the reference ``Simulator`` (dict
    provenance), and compares every sink job's disparity.
    """
    system = random_system(seed, n_tasks)
    duration = 4 * max(task.period for task in system.graph.tasks)
    for sink in system.graph.sinks():
        assert_provenance_matches(system, sink, seed=seed, duration=duration)
