"""Unit tests for the partition-parallel build: routing, the per-partition
pipeline, the exchange phase, and the sharded-EM fusion invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parallel import pmap
from repro.core.partition import (
    CanonicalRecord,
    Clusters,
    PartitionedBuild,
    block_pairs,
    blocking_keys,
    clean_reason,
    extract_claims,
    fixture_sources,
    home_partition,
    ordered_pair,
    pair_score,
    partitioned_pipeline,
    run_partition,
    transform_record,
)
from repro.datagen.sources import SourceRecord
from repro.integrate.blocking import BlockingStrategy
from repro.integrate.exchange import fuse_sharded
from repro.integrate.fusion import AccuFusion, ValueClaim
from repro.ml.similarity import _sorted_forms_similarity, jaro_winkler, name_forms
from repro.obs import enabled_scope
from tests import oracles


def _record(record_id="r1", source="s", entity_class="Person", **fields):
    return CanonicalRecord(
        record_id=record_id, source=source, entity_class=entity_class, fields=fields
    )


class TestTransform:
    def test_field_map_reversed(self):
        record = SourceRecord(
            record_id="a",
            source="imdb",
            entity_class="Movie",
            fields={"primaryTitle": "Heat", "startYear": 1995},
            world_id="w1",
        )
        canonical = transform_record(
            record, {"name": "primaryTitle", "release_year": "startYear"}
        )
        assert canonical.fields == {"name": "Heat", "release_year": 1995}

    def test_split_names_rejoined(self):
        record = SourceRecord(
            record_id="a",
            source="fb",
            entity_class="Person",
            fields={"first_name": "Ada", "last_name": "Lovelace"},
            world_id="w1",
        )
        assert transform_record(record, {}).name == "Ada Lovelace"

    def test_single_token_name_not_duplicated(self):
        record = SourceRecord(
            record_id="a",
            source="fb",
            entity_class="Person",
            fields={"first_name": "Cher", "last_name": "Cher"},
            world_id="w1",
        )
        assert transform_record(record, {}).name == "Cher"


class TestCleanReason:
    @pytest.mark.parametrize(
        "attribute,value,expected",
        [
            ("name", "", "empty value"),
            ("runtime", None, "empty value"),
            ("birth_year", "soon", "non-numeric year"),
            ("release_year", 1200, "implausible year"),
            ("release_year", 1995, None),
            ("runtime", "long", "non-numeric runtime"),
            ("runtime", 0, "implausible runtime"),
            ("runtime", 136, None),
            ("genre", "Drama", None),
        ],
    )
    def test_reasons(self, attribute, value, expected):
        assert clean_reason(attribute, value) == expected


class TestPairScore:
    def test_cross_class_is_zero(self):
        left = _record("a", entity_class="Person", name="Heat")
        right = _record("b", entity_class="Movie", name="Heat")
        assert pair_score(left, right) == 0.0

    def test_identical_records_score_high(self):
        left = _record("a", name="Michael Mann", birth_year=1943)
        right = _record("b", name="Michael Mann", birth_year=1943)
        assert pair_score(left, right) == pytest.approx(1.0)

    def test_symmetric(self):
        left = _record("a", name="Robert De Niro", birth_year=1943)
        right = _record("b", name="R. De Niro", birth_year=1944)
        assert pair_score(left, right) == pair_score(right, left)

    def test_ordered_pair(self):
        assert ordered_pair("b", "a") == ("a", "b")
        assert ordered_pair("a", "b") == ("a", "b")

    def test_non_numeric_year_scores_as_disagreement(self):
        left = _record("a", name="Michael Mann", birth_year="n/a")
        right = _record("b", name="Michael Mann", birth_year=1943)
        assert pair_score(left, right) == 0.75
        assert pair_score(_record("c", name="Michael Mann", birth_year=[1943]), right) == 0.75


def _fixture_build(partitions):
    """Artifacts of a build of the seed-11 fixture."""
    pipeline, context = partitioned_pipeline(fixture_sources(seed=11))
    return pipeline.run(context, partitions=partitions).artifacts


def _fixture_candidates():
    """(records by id, sorted candidate pairs) of the single-shard build."""
    (result,) = _fixture_build(1)["partition_results"]
    by_id = {record.record_id: record for record in result.records}
    return by_id, sorted(result.scores)


def _clear_memos():
    jaro_winkler.cache_clear()
    name_forms.cache_clear()
    _sorted_forms_similarity.cache_clear()


class TestPairScoreExactness:
    """The bit-parallel, memoized kernel returns the floats the plain one did."""

    def test_every_fixture_candidate_equals_the_oracle(self):
        by_id, pairs = _fixture_candidates()
        assert len(pairs) > 1000
        for left, right in pairs:
            assert pair_score(by_id[left], by_id[right]) == oracles.pair_score(
                by_id[left], by_id[right]
            )

    def test_scores_do_not_depend_on_memo_state(self):
        by_id, pairs = _fixture_candidates()

        def score_all(order):
            return {pair: pair_score(by_id[pair[0]], by_id[pair[1]]) for pair in order}

        _clear_memos()
        cold = score_all(pairs)
        assert jaro_winkler.cache_info().hits > 0
        warm = score_all(pairs)
        backwards = score_all(reversed(pairs))
        _clear_memos()
        assert jaro_winkler.cache_info().currsize == 0
        cold_again = score_all(reversed(pairs))
        assert cold == warm == backwards == cold_again

    def test_process_workers_score_like_the_serial_path(self):
        tasks = _fixture_build(2)["partition_tasks"]
        serial = [run_partition(task) for task in tasks]
        shipped = pmap(run_partition, tasks, mode="process", max_workers=2)
        assert [result.scores for result in shipped] == [result.scores for result in serial]
        assert sum(len(result.scores) for result in serial) > 500


class TestRouting:
    def test_partition_stable_and_in_range(self):
        strategy = BlockingStrategy()
        record = _record("a", name="Al Pacino", birth_year=1940)
        for n in (1, 2, 4, 8):
            home = home_partition(record, strategy, n)
            assert 0 <= home < n
            assert home == home_partition(record, strategy, n)

    def test_single_partition_takes_everything(self):
        strategy = BlockingStrategy()
        assert home_partition(_record("a", name="X"), strategy, 1) == 0

    def test_keyless_record_falls_back_to_id(self):
        strategy = BlockingStrategy()
        record = _record("only-id")  # no name, no keys
        assert 0 <= home_partition(record, strategy, 4) < 4


class TestRunPartition:
    def _task(self):
        source = fixture_sources(n_people=12, n_movies=8, seed=3)[0]
        build = PartitionedBuild()
        return build, source

    def test_worker_is_pure_and_deterministic(self):
        from repro.core.partition import PartitionTask

        build, source = self._task()
        task = PartitionTask(
            index=0,
            n_partitions=1,
            records=sorted(source.records, key=lambda r: r.record_id),
            field_maps={source.name: dict(source.field_map)},
            strategy=build.strategy,
        )
        first, second = run_partition(task), run_partition(task)
        assert first == second

    def test_worker_records_no_lineage(self):
        """Both callables ``pmap(mode="process")`` runs are pure: they
        record nothing in any collector, which is why a worker ships only
        its results back (DESIGN.md §10)."""
        from repro.core.partition import PartitionTask, _score_pair
        from repro.obs import get_ledger, get_registry, get_tracer
        from repro.obs.quality import snapshots

        build, source = self._task()
        task = PartitionTask(
            index=0,
            n_partitions=1,
            records=sorted(source.records, key=lambda r: r.record_id),
            field_maps={source.name: dict(source.field_map)},
            strategy=build.strategy,
        )
        _clear_memos()  # the cold scorer path runs too
        with enabled_scope():
            result = run_partition(task)
            by_id = {record.record_id: record for record in result.records}
            pairs = sorted(result.scores)
            assert pairs
            _clear_memos()
            scores = [_score_pair((by_id[left], by_id[right])) for left, right in pairs]
            assert get_tracer().spans() == []
            assert get_registry().snapshot() == {
                "counters": {},
                "gauges": {},
                "histograms": {},
            }
            assert get_ledger().export_state() == {"events": [], "absorbed": {}}
            assert snapshots() == []
        assert scores == [result.scores[pair] for pair in pairs]


_IDS = [f"r{index:02d}" for index in range(12)]


class TestClusters:
    @staticmethod
    def _components(edges):
        """Brute force: grow each item's component until nothing joins."""
        component = {item: {item} for item in _IDS}
        changed = True
        while changed:
            changed = False
            for left, right in edges:
                if component[left] is not component[right]:
                    merged = component[left] | component[right]
                    for item in merged:
                        component[item] = merged
                    changed = True
        return component

    @given(
        edges=st.lists(st.tuples(st.sampled_from(_IDS), st.sampled_from(_IDS)), max_size=30),
        order_seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_edge_order_and_orientation_gives_minimum_roots(self, edges, order_seed):
        import random

        rng = random.Random(order_seed)
        shuffled = [edge if rng.random() < 0.5 else edge[::-1] for edge in edges]
        rng.shuffle(shuffled)
        clusters = Clusters(_IDS)
        for done, (left, right) in enumerate(shuffled):
            before = self._components(shuffled[:done])
            merged = clusters.union(left, right)
            # a pair comes back exactly when two components join
            if before[left] is before[right]:
                assert merged is None
            else:
                assert merged == tuple(sorted((min(before[left]), min(before[right]))))
            # and both maps are current after every union
            component = self._components(shuffled[: done + 1])
            assert clusters.root_of == {item: min(component[item]) for item in _IDS}
            assert {root: sorted(ms) for root, ms in clusters.members.items()} == {
                min(members): sorted(members) for members in component.values()
            }
        # members partitions the items
        assert sorted(m for ms in clusters.members.values() for m in ms) == _IDS

    def test_add_is_idempotent(self):
        clusters = Clusters(["b", "a"])
        assert clusters.union("b", "a") == ("a", "b")
        clusters.add("b")
        assert clusters.root_of == {"a": "a", "b": "a"}
        assert clusters.union("a", "b") is None


class TestBlockPairs:
    @given(
        blocks=st.dictionaries(
            st.sampled_from(["k0", "k1", "k2", "k3"]),
            st.lists(st.sampled_from(_IDS), max_size=8, unique=True),
            max_size=4,
        ),
        classes=st.lists(
            st.sampled_from(["Person", "Movie"]), min_size=len(_IDS), max_size=len(_IDS)
        ),
        cap=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_the_brute_force_double_loop(self, blocks, classes, cap):
        records = {
            record_id: _record(record_id, entity_class=entity_class)
            for record_id, entity_class in zip(_IDS, classes)
        }
        expected = set()
        for left in _IDS:
            for right in _IDS:
                if left < right and classes[_IDS.index(left)] == classes[_IDS.index(right)]:
                    if any(
                        left in block and right in block and len(block) <= cap
                        for block in blocks.values()
                    ):
                        expected.add((left, right))
        assert block_pairs(blocks, records, cap) == expected
        # set-valued blocks (the streamer's) answer the same
        as_sets = {key: set(block) for key, block in blocks.items()}
        assert block_pairs(as_sets, records, cap) == expected

    def test_block_over_the_cap_contributes_nothing(self):
        records = {record_id: _record(record_id) for record_id in _IDS}
        blocks = {"crowd": _IDS[:5], "pair": _IDS[:2]}
        assert block_pairs(blocks, records, 4) == {("r00", "r01")}
        assert len(block_pairs(blocks, records, 5)) == 10


class TestExtractClaims:
    def test_claims_and_rejections_in_attribute_order(self):
        record = _record(
            "a:1",
            source="imdb",
            name="Heat",
            runtime=9000,
            release_year=1995,
            genre="crime",
            cast=["x", "y"],
            tagline="",
        )
        claims, rejections = extract_claims(record)
        assert claims == [
            ValueClaim("a:1", "genre", "crime", "imdb"),
            ValueClaim("a:1", "release_year", 1995, "imdb"),
        ]
        assert rejections == [
            ("a:1", "runtime", 9000, "implausible runtime"),
            ("a:1", "tagline", "", "empty value"),
        ]

    def test_blocking_keys_are_sorted_and_distinct(self):
        record = _record(name="Ada Ada Lovelace", birth_year=1815)
        keys = blocking_keys(BlockingStrategy(), record)
        assert list(keys) == sorted(set(keys)) and keys


class TestStageValidation:
    def test_partitions_must_be_positive_int(self):
        build = PartitionedBuild()
        for bad in (0, -1, 1.5, "2"):
            with pytest.raises(ValueError, match="positive integer"):
                build.stages(bad)

    def test_pipeline_without_build_rejects_partitions(self):
        from repro.core.pipeline import ConstructionPipeline

        pipeline = ConstructionPipeline(name="plain")
        with pytest.raises(ValueError, match="no partition_build attached"):
            pipeline.run(partitions=2)

    def test_failed_partitioned_run_reports_its_failing_stage(self):
        from repro.core.pipeline import PipelineContext

        pipeline, context = partitioned_pipeline(fixture_sources(12, 8, seed=3))
        pipeline.run(context, partitions=1)
        assert [row.get("error") for row in pipeline.report_table()] == [None] * 3
        with pytest.raises(KeyError, match="missing"):
            pipeline.run(PipelineContext(), partitions=2)
        rows = pipeline.report_table()
        assert [row["stage"] for row in rows] == ["partition"]
        assert rows[0]["error"].startswith("KeyError:")


class TestFuseSharded:
    def _claims(self):
        claims = []
        for i in range(40):
            subject = f"e{i}"
            truth = f"v{i}"
            claims.append(
                ValueClaim(subject=subject, attribute="a", value=truth, source="good")
            )
            # A corroborating source breaks the 1-vs-1 symmetry so EM can
            # actually learn that "noisy" deserves less trust.
            claims.append(
                ValueClaim(subject=subject, attribute="a", value=truth, source="ok")
            )
            claims.append(
                ValueClaim(
                    subject=subject,
                    attribute="a",
                    value=truth if i % 4 else "wrong",
                    source="noisy",
                )
            )
        return claims

    def test_shard_count_invariant(self):
        """``n_shards`` no longer splits anything: at every count the
        adapter is the stepwise EM over all items, bit for bit."""
        claims = self._claims()
        reference = oracles.accu_fuse_stepwise(AccuFusion(), claims)
        for n_shards in (1, 2, 3, 8):
            assert fuse_sharded(claims, n_shards) == reference

    def test_claim_order_invariant(self):
        claims = self._claims()
        assert fuse_sharded(list(reversed(claims)), 4) == fuse_sharded(claims, 4)

    @staticmethod
    def _assert_matches_oracle(claims, n_shards):
        """Winners equal (an exact tie may break either way), confidences
        and accuracies to 1e-9."""
        results, accuracy = fuse_sharded(claims, n_shards)
        posteriors, oracle_accuracy = oracles.accu_fuse(claims)
        assert [(r.subject, r.attribute) for r in results] == sorted(posteriors)
        for result in results:
            posterior = posteriors[(result.subject, result.attribute)]
            assert posterior[result.value] == pytest.approx(
                max(posterior.values()), abs=1e-9
            )
            assert result.confidence == pytest.approx(posterior[result.value], abs=1e-9)
            assert result.n_claims == sum(
                (claim.subject, claim.attribute) == (result.subject, result.attribute)
                for claim in claims
            )
        assert accuracy == pytest.approx(oracle_accuracy, abs=1e-9)
        return accuracy

    def test_matches_accu_fusion(self):
        """The one EM loop must reproduce the textbook EM in
        ``tests/oracles.py`` — comparing it with ``AccuFusion().fuse``
        would compare the loop with itself."""
        accuracy = self._assert_matches_oracle(self._claims(), 4)
        assert accuracy["good"] > accuracy["noisy"]

    def test_matches_accu_fusion_on_the_fixture(self):
        sources = fixture_sources(n_people=20, n_movies=15, seed=5)
        pipeline, context = partitioned_pipeline(sources, name="unit")
        context = pipeline.run(context, partitions=2)
        root_of = {
            member: root
            for root, members in context.artifacts["exchange"].clusters.items()
            for member in members
        }
        claims = [
            ValueClaim(root_of[claim.subject], claim.attribute, claim.value, claim.source)
            for result in context.artifacts["partition_results"]
            for claim in result.claims
        ]
        assert len({claim.subject for claim in claims}) < len(root_of)  # linked
        self._assert_matches_oracle(claims, 2)

    @given(
        n_items=st.integers(min_value=1, max_value=25),
        n_sources=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
        n_shards=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_accu_fusion_on_any_claim_table(
        self, n_items, n_sources, seed, n_shards
    ):
        claims = oracles.make_claims(n_items, n_sources=n_sources, seed=seed)
        self._assert_matches_oracle(claims, n_shards)

    def test_accu_fusion_is_the_same_loop(self):
        """``AccuFusion().fuse`` and ``fuse_sharded`` are one implementation."""
        claims = self._claims()
        fusion = AccuFusion()
        assert (fusion.fuse(claims), fusion.source_accuracy_) == fuse_sharded(claims, 4)


class TestKernelOptions:
    def test_build_em_options_are_gone(self):
        """``AccuFusion``'s fields are the one declaration of the EM
        hyper-parameters; the build path forwards none of them."""
        from repro.integrate.exchange import exchange

        for option in (
            "n_distractors",
            "n_iterations",
            "initial_accuracy",
            "min_accuracy",
            "max_accuracy",
        ):
            with pytest.raises(TypeError, match=option):
                PartitionedBuild(**{option: 4})
            with pytest.raises(TypeError, match=option):
                exchange([], strategy=BlockingStrategy(), **{option: 4})
            with pytest.raises(TypeError, match=option):
                fuse_sharded([], 1, **{option: 4})


class TestExchangeOutcome:
    def test_run_config_surfaces_in_reports_and_stats(self):
        sources = fixture_sources(n_people=20, n_movies=15, seed=5)
        pipeline, context = partitioned_pipeline(sources, name="unit")
        context = pipeline.run(context, partitions=3)
        outcome = context.artifacts["exchange"]
        assert outcome.stats["n_partitions"] == 3
        root_of = {
            member: root for root, members in outcome.clusters.items() for member in members
        }
        values = {}
        for result in context.artifacts["partition_results"]:
            for claim in result.claims:
                item = (root_of[claim.subject], claim.attribute)
                values.setdefault(item, set()).add(claim.value)
        n_contested = sum(len(item_values) > 1 for item_values in values.values())
        assert outcome.stats["n_data_items"] == len(values)
        assert 0 < outcome.stats["n_contested_items"] == n_contested < len(values)
        assert pipeline.reports[-1].metrics["n_contested_items"] == n_contested
        assert outcome.stats["n_triples"] == len(context.artifacts["kg"])
        assert outcome.stats["n_entities"] == len(
            list(context.artifacts["kg"].entities())
        )
        stage_names = [report.stage_name for report in pipeline.reports]
        assert stage_names == ["partition", "build_partitions", "exchange"]

    def test_every_triple_has_provenance(self):
        sources = fixture_sources(n_people=15, n_movies=10, seed=5)
        pipeline, context = partitioned_pipeline(sources, name="unit")
        context = pipeline.run(context, partitions=2)
        graph = context.artifacts["kg"]
        provenance = graph.provenance()
        assert list(provenance) == graph.query()
        for records in provenance.values():
            assert all(p.extractor == "partition" for p in records)

    def test_source_accuracy_orders_by_injected_noise(self):
        """The noisier wiki source must earn lower learned trust."""
        sources = fixture_sources(n_people=40, n_movies=30, seed=11)
        pipeline, context = partitioned_pipeline(sources, name="unit")
        context = pipeline.run(context, partitions=4)
        accuracy = context.artifacts["exchange"].source_accuracy
        assert accuracy["wiki"] < accuracy["freebase"]
