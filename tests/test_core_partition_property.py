"""Property: the partitioned build is invariant in shard count AND input order.

For any partition count and any permutation of the input — source order
and record order within each source — the built graph, the lineage
ledger, and the quality snapshot must be identical to the single-shard
build over the canonically ordered input.  This is the strong form of the
tentpole contract: not just ``N == 1`` on one fixture, but "nothing about
how the work was split or fed in can change a single observable bit".

The second input casts the wiki source's ints to floats, so sources
claim equal values of different types (``2002`` and ``2002.0``).  The
kernel turns an integral float into an int, so that input builds, byte
for byte, what its all-int twin builds.
"""

import dataclasses
import os

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import codec
from repro.core.partition import (
    PartitionResult,
    fixture_sources,
    partitioned_pipeline,
)
from repro.datagen.sources import StructuredSource
from repro.integrate.exchange import stitch_fragments
from repro.integrate.fusion import ValueClaim
from repro.obs import enabled_scope, reset_all
from repro.obs.lineage import get_ledger
from tests import oracles


def _wiki_ints_as_floats(sources):
    """``sources`` with every int field of the wiki source made a float."""
    return [
        StructuredSource(
            name=source.name,
            field_map=dict(source.field_map),
            records=[
                dataclasses.replace(
                    record,
                    fields={
                        name: float(value) if type(value) is int else value
                        for name, value in record.fields.items()
                    },
                )
                for record in source.records
            ],
        )
        if source.name == "wiki"
        else source
        for source in sources
    ]


_INPUTS = {
    "fixture": fixture_sources(n_people=12, n_movies=8, seed=3),
    "mixed_types": _wiki_ints_as_floats(
        fixture_sources(n_people=30, n_movies=20, seed=5)
    ),
    "all_int_twin": fixture_sources(n_people=30, n_movies=20, seed=5),
}


def _permuted(sources, order_seed: int):
    """The sources with record and source order shuffled."""
    import random

    rng = random.Random(order_seed)
    permuted = []
    for source in sources:
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
    """(graph state with provenance, lineage ledger, quality snapshot, graph)."""
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
    return state, ledger_state, snapshot, graph


_REFERENCES = {name: _build(sources, 1) for name, sources in _INPUTS.items()}


@settings(max_examples=16, deadline=None)
@given(
    input_name=st.sampled_from(sorted(_INPUTS)),
    partitions=st.integers(min_value=1, max_value=8),
    order_seed=st.integers(min_value=0, max_value=2**16),
)
@example(input_name="mixed_types", partitions=3, order_seed=0)
def test_any_partition_count_any_order_is_identical(input_name, partitions, order_seed):
    sources = _INPUTS[input_name]
    assert sum(len(source) for source in sources) > 0
    reference = _REFERENCES[input_name]
    result = _build(_permuted(sources, order_seed), partitions)
    assert result[0] == reference[0]  # graph state + provenance
    assert result[1] == reference[1]  # lineage ledger
    assert result[2] == reference[2]  # quality snapshot


def test_integral_floats_build_the_all_int_graph(tmp_path):
    """Sources that differ only in ``2002`` versus ``2002.0`` build the same
    graph, provenance, lineage ledger and snapshot bytes."""
    mixed, twin = _REFERENCES["mixed_types"], _REFERENCES["all_int_twin"]
    assert mixed[0] == twin[0]  # graph state + provenance
    assert mixed[1] == twin[1]  # lineage ledger
    blobs = []
    for name, reference in (("mixed", mixed), ("twin", twin)):
        path = os.path.join(str(tmp_path), f"{name}.rkgs")
        codec.save_graph(reference[3], path, include_lineage=False)
        with open(path, "rb") as handle:
            blobs.append(handle.read())
    assert blobs[0] == blobs[1]


_IDS = [f"r{index}" for index in range(6)]
_CLAIMS = st.builds(
    ValueClaim,
    subject=st.sampled_from(_IDS),
    attribute=st.sampled_from(["birth_year", "runtime", "genre"]),
    value=st.one_of(
        st.sampled_from([0, 0.0, False, 1, 1.0, True]),
        st.text(max_size=3),
    ),
    source=st.sampled_from(["freebase", "imdb", "wiki"]),
)


@settings(max_examples=150, deadline=None)
@given(
    tables=st.lists(st.lists(_CLAIMS, max_size=12), min_size=1, max_size=4),
    root_of=st.dictionaries(st.sampled_from(_IDS), st.sampled_from(_IDS)),
)
def test_stitch_fragments_equals_the_id_remap_oracle(tables, root_of):
    results = [
        PartitionResult(
            index=index, records=[], keys={}, scores={}, claims=claims, rejections=[]
        )
        for index, claims in enumerate(tables)
    ]
    assert stitch_fragments(results, root_of) == oracles.stitch_fragments(
        results, root_of
    )
