"""Property: the partitioned build is invariant in shard count AND input order.

For any partition count and any permutation of the input — source order
and record order within each source — the built graph, the lineage
ledger, and the quality snapshot must be identical to the single-shard
build over the canonically ordered input.  This is the strong form of the
tentpole contract: not just ``N == 1`` on one fixture, but "nothing about
how the work was split or fed in can change a single observable bit".
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import fixture_sources, partitioned_pipeline
from repro.datagen.sources import StructuredSource
from repro.obs import enabled_scope, reset_all
from repro.obs.lineage import get_ledger

_SOURCES = fixture_sources(n_people=12, n_movies=8, seed=3)
_N_RECORDS = sum(len(source) for source in _SOURCES)


def _permuted(order_seed: int):
    """The fixture sources with record and source order shuffled."""
    import random

    rng = random.Random(order_seed)
    permuted = []
    for source in _SOURCES:
        records = list(source.records)
        rng.shuffle(records)
        permuted.append(
            StructuredSource(
                name=source.name,
                field_map=dict(source.field_map),
                records=records,
            )
        )
    rng.shuffle(permuted)
    return permuted


def _build(sources, partitions):
    reset_all()
    with enabled_scope():
        pipeline, context = partitioned_pipeline(sources, name="prop")
        context = pipeline.run(context, partitions=partitions)
        ledger_state = get_ledger().export_state()
        snapshot = context.artifacts["quality_snapshot"].to_dict()
    reset_all()
    for volatile in ("captured_unix", "capture_seconds"):
        snapshot.pop(volatile, None)
    graph = context.artifacts["kg"]
    state = {
        "triples": graph.query(),
        "provenance": graph.provenance(),
        "entities": sorted(
            (e.entity_id, e.name, e.entity_class, tuple(sorted(e.aliases)))
            for e in graph.entities()
        ),
    }
    return state, ledger_state, snapshot


_REFERENCE = _build(_SOURCES, 1)


@settings(max_examples=12, deadline=None)
@given(
    partitions=st.integers(min_value=1, max_value=8),
    order_seed=st.integers(min_value=0, max_value=2**16),
)
def test_any_partition_count_any_order_is_identical(partitions, order_seed):
    assert _N_RECORDS > 0
    result = _build(_permuted(order_seed), partitions)
    assert result[0] == _REFERENCE[0]  # graph state + provenance
    assert result[1] == _REFERENCE[1]  # lineage ledger
    assert result[2] == _REFERENCE[2]  # quality snapshot
