"""Each workload's correctness check must fail on a corrupted result."""

import copy

from repro.core.triple import Triple

from bench import gen
from bench.loadgen import Sample
from bench.model import SetModel
from bench.trace import Tracer
from bench.workloads import serving, sorted_rows
from bench.workloads.build_batch import BuildBatch, check_build
from bench.workloads.graph_mutate import check_mutate
from bench.workloads.store_cycle import check_store
from bench.workloads.stream_live import check_stream, read_ok


def small_graph():
    spec = gen.graph_spec(3, 60, 500)
    return spec, gen.build_graph(spec)


def test_build_check(tmp_path):
    workload = BuildBatch(seed=3, factor=0.05, tracer=Tracer(False), workdir=str(tmp_path))
    workload.setup()
    measured = workload.run()
    assert workload.check(measured) == []
    counts, rows = workload.counts[0], workload.rows[0]
    n_input = sum(len(source) for source in workload.fixtures[0])
    good = dict(counts=counts, rows=rows, graph=workload.builds[0][1].artifacts["kg"],
                n_input_records=n_input, partition_equal=True)
    assert check_build(**good) == []
    assert check_build(**{**good, "partition_equal": False})
    assert check_build(**{**good, "n_input_records": n_input + 1})
    assert check_build(**{**good, "rows": rows[:-1]})
    assert check_build(**{**good, "counts": {**counts, "n_merges": 0}})
    assert check_build(**{**good, "rows": rows + [("nobody", "p", 1)]})


def test_stream_check():
    rows = [("a:1", "city", "x"), ("a:2", "city", "y")]
    entities = ["a:1", "a:2"]
    assert check_stream(rows, entities, list(rows), list(entities)) == []
    assert check_stream(rows[:1], entities, rows, entities)
    assert check_stream(rows, entities[:1], rows, entities)
    assert check_stream([], [], [], [])  # an empty build is not a pass
    assert read_ok(200, {"degraded": None, "payload": {"values": ["x"]}}, "x")
    assert not read_ok(200, {"degraded": None, "payload": {"values": ["y"]}}, "x")
    assert not read_ok(200, {"degraded": "stale", "payload": {"values": ["x"]}}, "x")
    assert not read_ok(429, {"degraded": None, "payload": {"values": ["x"]}}, "x")


def test_store_check():
    spec, graph = small_graph()
    entities = sorted(entity_id for entity_id, _, _ in spec.entities)
    copies = {"ingested": graph, "loaded": gen.build_graph(spec)}
    assert check_store(copies, set(spec.rows), entities, True) == []
    assert check_store(copies, set(spec.rows), entities, False)
    damaged = gen.build_graph(spec)
    damaged.remove_triple(Triple(*spec.rows[0]))
    assert check_store({**copies, "loaded": damaged}, set(spec.rows), entities, True)
    assert check_store(copies, set(spec.rows), entities[:-1], True)


def test_mutate_check():
    spec, graph = small_graph()
    ops = gen.mutate_ops(spec, 400, 3)
    model = SetModel((entity_id for entity_id, _, _ in spec.entities), spec.rows)
    for op in ops:
        model.apply(op)
    # Apply the same ops to the real graph the way the workload does.
    from repro.core.triple import Provenance

    for op in ops:
        if op[0] == "add":
            graph.add_triple(Triple(op[1], op[2], op[3]), Provenance(source=op[4]))
        elif op[0] == "remove":
            graph.remove_triple(Triple(op[1], op[2], op[3]))
        elif op[0] == "merge":
            graph.merge_entities(op[1], op[2])
    rows = sorted_rows(graph)
    live = sorted(entity.entity_id for entity in graph.entities())
    assert check_mutate(rows, live, model) == []
    assert check_mutate(rows[:-1], live, model)
    assert check_mutate(rows, live[:-1], model)
    skipped = copy.deepcopy(model)
    skipped.add(live[0], "attr_00", "never-added")
    assert check_mutate(rows, live, skipped)


def test_serve_check():
    spec, graph = small_graph()
    expected = serving.Expected(graph, spec)
    vocabulary = serving.vocabulary(spec, 40, 3)
    plan = gen.request_plan(vocabulary, 120, 3)
    assert {request.route for request in plan} == set(gen.SERVE_MIX)
    service = serving.make_service()
    service.publish(graph)
    from repro.serve.server import InProcessClient

    client = InProcessClient(service)
    samples = []
    for index, request in enumerate(plan):
        status, body = serving.dispatch(client, request)
        samples.append(Sample(index, 0.0, 0.0, 0.001, status, body))
    assert serving.count_failures(samples, plan, expected) == 0

    def corrupt(sample, **changes):
        body = copy.deepcopy(sample.body)
        body.update(changes)
        return Sample(sample.index, 0.0, 0.0, 0.001, changes.pop("_status", sample.status), body)

    lookup = next(s for s in samples if plan[s.index].route == "lookup")
    wrong = corrupt(lookup, payload={**lookup.body["payload"], "values": ["not the answer"]})
    assert serving.count_failures([wrong], plan, expected) == 1
    assert serving.count_failures([corrupt(lookup, degraded="stale")], plan, expected) == 1
    refused = Sample(lookup.index, 0.0, 0.0, 0.001, 429, lookup.body)
    assert serving.count_failures([refused], plan, expected) == 1
    transport = Sample(lookup.index, 0.0, 0.0, 0.001, 599, {"error": "transport"})
    assert serving.count_failures([transport], plan, expected) == 1
