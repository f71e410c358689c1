"""pmap: ordering, chunking, the two modes, and worker failures."""

import os
import pickle

import pytest

from repro.core.parallel import WORKERS_ENV_VAR, default_workers, pmap
from repro.obs import enabled_scope, get_registry


def _square(x):
    return x * x


def _pid(_item):
    return os.getpid()


def _pair_sum(pair):
    left, right = pair
    return left + right


def _explode_on_seven(x):
    if x == 7:
        raise ValueError(f"cannot handle {x}")
    return x * x


class _UnpicklableError(Exception):
    def __init__(self):
        super().__init__("unpicklable")
        self.handle = lambda: None  # lambdas do not pickle


def _raise_unpicklable(x):
    if x == 3:
        raise _UnpicklableError()
    return x


def _fail_on_even(x):
    if x % 2 == 0:
        raise ValueError(f"even {x}")
    return x


class TestModes:
    def test_serial_matches_comprehension(self):
        items = list(range(37))
        assert pmap(_square, items, mode="serial") == [x * x for x in items]

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_all_modes_agree(self, mode):
        items = list(range(53))
        assert pmap(_square, items, mode=mode, max_workers=2) == [
            x * x for x in items
        ]

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown pmap mode"):
            pmap(_square, [1, 2], mode="gpu")

    def test_thread_mode_is_gone(self):
        with pytest.raises(ValueError, match="unknown pmap mode"):
            pmap(_square, [1, 2], mode="thread")

    def test_env_default(self, monkeypatch):
        """Nothing in the environment turns a default call into a pool."""
        monkeypatch.setenv("REPRO_PMAP_MODE", "process")
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        with enabled_scope():
            assert pmap(_square, range(10)) == [x * x for x in range(10)]
            counters = get_registry().snapshot()["counters"]
        assert "parallel.pmap.process_calls" not in counters

    def test_invalid_env_falls_back_to_explicit_mode(self, monkeypatch):
        """Whatever the old variable says, the call site's mode is used."""
        monkeypatch.setenv("REPRO_PMAP_MODE", "serial")
        with enabled_scope():
            pmap(_square, range(8), mode="process", max_workers=2)
            counters = get_registry().snapshot()["counters"]
        assert counters.get("parallel.pmap.process_calls") == 1.0

    def test_explicit_invalid_mode_raises_even_with_env(self, monkeypatch):
        # A typo at a call site is a bug regardless of the environment.
        monkeypatch.setenv("REPRO_PMAP_MODE", "serial")
        with pytest.raises(ValueError, match="unknown pmap mode"):
            pmap(_square, [1, 2], mode="gpu")

    def test_workers_env_overrides_cpu_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "6")
        assert default_workers() == 6
        monkeypatch.delenv(WORKERS_ENV_VAR)
        assert 1 <= default_workers() <= 8

    @pytest.mark.parametrize("raw", ["0", "-3", "banana", "4.5", "2x"])
    def test_workers_env_invalid_values_raise_actionable_error(
        self, monkeypatch, raw
    ):
        monkeypatch.setenv(WORKERS_ENV_VAR, raw)
        with pytest.raises(ValueError) as excinfo:
            default_workers()
        message = str(excinfo.value)
        assert WORKERS_ENV_VAR in message
        assert raw in message
        assert "unset" in message  # tells the operator how to fix it


class TestOrderingAndChunking:
    def test_order_preserved_with_tiny_chunks(self):
        items = list(range(101))
        result = pmap(_square, items, mode="process", max_workers=2, chunk_size=3)
        assert result == [x * x for x in items]

    def test_chunked_partitions_exactly(self):
        """Each run of ``chunk_size`` consecutive items is one worker call."""
        pids = pmap(_pid, range(10), mode="process", max_workers=2, chunk_size=3)
        chunks = [pids[start : start + 3] for start in range(0, 10, 3)]
        assert [len(set(chunk)) for chunk in chunks] == [1, 1, 1, 1]
        assert os.getpid() not in pids

    def test_tuple_items(self):
        pairs = [(i, i + 1) for i in range(20)]
        assert pmap(_pair_sum, pairs, mode="process") == [2 * i + 1 for i in range(20)]

    def test_generator_input(self):
        assert pmap(
            _square, (x for x in range(12)), mode="process", max_workers=2
        ) == [x * x for x in range(12)]

    def test_empty_and_singleton(self):
        assert pmap(_square, [], mode="process") == []
        assert pmap(_square, [7], mode="process") == [49]


class TestDegradation:
    def test_unpicklable_fn_fails_loudly(self):
        """An explicit ``mode="process"`` never quietly runs in-process."""
        # PicklingError for a lambda; older CPythons say AttributeError.
        with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
            pmap(lambda x: x + 1, [1, 2, 3], mode="process", max_workers=2)

    def test_max_workers_one_is_serial(self):
        assert pmap(_square, range(9), mode="process", max_workers=1) == [
            x * x for x in range(9)
        ]

    def test_clean_process_run_emits_no_degraded_counter(self):
        with enabled_scope():
            pmap(_square, range(8), mode="process", max_workers=2, chunk_size=2)
            counters = get_registry().snapshot()["counters"]
        assert counters.get("parallel.pmap.process_calls") == 1.0
        assert "pmap.degraded" not in counters


class TestWorkerExceptions:
    """Worker failures re-raise the original exception, traceback chained."""

    @pytest.mark.parametrize("mode", ["process"])
    def test_original_exception_type_survives(self, mode):
        # max_workers forces the pool path even on single-CPU machines,
        # where pmap would otherwise fall back to serial.
        with pytest.raises(ValueError, match="cannot handle 7") as exc_info:
            pmap(_explode_on_seven, range(20), mode=mode, max_workers=2, chunk_size=2)
        # The worker's own stack rides along as the chained cause.
        cause = exc_info.value.__cause__
        assert cause is not None
        assert "_explode_on_seven" in str(cause)
        assert "cannot handle 7" in str(cause)

    def test_serial_raises_directly(self):
        with pytest.raises(ValueError, match="cannot handle 7"):
            pmap(_explode_on_seven, range(20), mode="serial")

    def test_first_failure_in_input_order_wins(self):
        with pytest.raises(ValueError, match="even 0"):
            pmap(_fail_on_even, range(10), mode="process", max_workers=2, chunk_size=1)

    def test_unpicklable_exception_degrades_to_worker_error(self):
        """Process mode: an exception that cannot pickle still surfaces,
        its original ``Type: message`` line in the chained worker stack."""
        # The pool raises its own pickling failure (PicklingError, or
        # AttributeError on older CPythons) with the worker stack chained.
        with pytest.raises((pickle.PicklingError, AttributeError)) as exc_info:
            pmap(_raise_unpicklable, range(8), mode="process", max_workers=2, chunk_size=1)
        assert "unpicklable" in str(exc_info.value.__cause__)
