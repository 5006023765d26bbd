"""Array-native response pipeline: value identity and batched kernels.

Three layers of guarantees:

* **Property tests** -- the sorted-array set operations (Jaccard, majority
  and intersect filters, serialization helpers) produce values *identical*
  to a frozenset/Counter reference implementation, for arbitrary position
  sets (hypothesis-generated).
* **Batch = scalar** -- the batched pair kernels consume per-pair streams in
  the same order as the scalar kernels, so every partition of a pair range
  (including uneven ones) merges to the bit-identical full-range result.
* **Golden JSON** -- the pair-based experiments (fig5, fig6, aging), the
  sharded Monte Carlo table (table11), the memory-controller simulations
  (fig8, fig9), the NIST suite (table10) and the fleet traffic studies
  (fleet-roc, fleet-aging) encode byte-identically to JSON captured before
  their hot paths or job shapes were rewritten
  (``tests/golden/*_quick.json``).
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.geometry import DRAMGeometry
from repro.dram.module import DRAMModule, SegmentAddress
from repro.engine.jobs import ExperimentJob
from repro.puf.base import Challenge, PUFResponse
from repro.puf.codic_puf import CODICSigPUF
from repro.puf.evaluation import (
    MAX_INTER_CHALLENGE_REDRAWS,
    PUFEvaluator,
    aging_pair,
    aging_pairs_batch,
    quality_pair,
    quality_pairs_batch,
    temperature_pair,
    temperature_pairs_batch,
)
from repro.puf.filtering import intersect_filter, majority_filter
from repro.puf.jaccard import JaccardDistribution, jaccard_index
from repro.puf.latency_puf import DRAMLatencyPUF
from repro.puf.positions import (
    as_position_array,
    concat_position_arrays,
    intersection_size_batch,
    jaccard_index_arrays,
    jaccard_index_batch,
)
from repro.puf.prelat_puf import PreLatPUF
from repro.rng.stream import positions_to_address_bits, positions_to_dense_bits
from repro.utils.rng import StreamTree

GOLDEN_DIR = Path(__file__).parent / "golden"

position_sets = st.frozensets(st.integers(0, 2047), max_size=64)
observation_lists = st.lists(position_sets, min_size=1, max_size=8)


# ---------------------------------------------------------------------------
# Reference (frozenset) implementations
# ---------------------------------------------------------------------------
def reference_jaccard(first: frozenset, second: frozenset) -> float:
    union = first | second
    if not union:
        return 1.0
    return len(first & second) / len(union)


def reference_majority(observations, threshold=None) -> frozenset:
    if threshold is None:
        threshold = len(observations) // 2
    counts: Counter = Counter()
    for observation in observations:
        counts.update(observation)
    return frozenset(p for p, count in counts.items() if count > threshold)


def reference_intersect(observations) -> frozenset:
    result = None
    for observation in observations:
        result = observation if result is None else (result & observation)
    return result


class TestArrayValueIdentity:
    @given(position_sets, position_sets)
    @settings(max_examples=200, deadline=None)
    def test_jaccard_matches_frozenset_reference(self, a, b):
        array_value = jaccard_index_arrays(as_position_array(a), as_position_array(b))
        assert array_value == reference_jaccard(a, b)  # bit-identical floats

    @given(position_sets, position_sets)
    @settings(max_examples=100, deadline=None)
    def test_jaccard_index_front_door_accepts_sets_and_arrays(self, a, b):
        expected = reference_jaccard(a, b)
        assert jaccard_index(a, b) == expected
        assert jaccard_index(as_position_array(a), as_position_array(b)) == expected

    @given(observation_lists)
    @settings(max_examples=150, deadline=None)
    def test_majority_filter_matches_counter_reference(self, observations):
        result = majority_filter(observations)
        assert set(result.tolist()) == reference_majority(observations)
        assert np.all(result[1:] > result[:-1])  # sorted unique

    @given(observation_lists, st.integers(0, 7))
    @settings(max_examples=150, deadline=None)
    def test_majority_filter_explicit_threshold_matches(self, observations, threshold):
        if threshold >= len(observations):
            return
        result = majority_filter(observations, threshold=threshold)
        assert set(result.tolist()) == reference_majority(observations, threshold)

    @given(observation_lists)
    @settings(max_examples=150, deadline=None)
    def test_intersect_filter_matches_set_reference(self, observations):
        result = intersect_filter(observations)
        assert set(result.tolist()) == reference_intersect(observations)
        assert np.all(result[1:] > result[:-1])

    @given(position_sets)
    @settings(max_examples=100, deadline=None)
    def test_as_position_array_is_canonical(self, positions):
        array = as_position_array(positions)
        assert array.dtype == np.int64
        assert np.all(array[1:] > array[:-1])
        assert set(array.tolist()) == positions
        # Arrays with duplicates / reversed order are re-canonicalized.
        if positions:
            shuffled = np.array(sorted(positions, reverse=True) + [min(positions)])
            assert np.array_equal(as_position_array(shuffled), array)

    @given(position_sets)
    @settings(max_examples=100, deadline=None)
    def test_response_positions_view_matches_array(self, positions):
        response = PUFResponse(positions=positions, challenge=Challenge(SegmentAddress(0, 0)))
        assert set(response.position_array.tolist()) == positions
        assert len(response) == len(positions)

    @given(position_sets, position_sets)
    @settings(max_examples=100, deadline=None)
    def test_response_jaccard_and_matches_against_reference(self, a, b):
        challenge = Challenge(SegmentAddress(0, 0))
        first = PUFResponse(positions=a, challenge=challenge)
        second = PUFResponse(positions=b, challenge=challenge)
        assert first.jaccard_with(second) == reference_jaccard(a, b)
        assert first.matches(second) == (a == b)
        assert (first == second) == (a == b)

    @given(position_sets)
    @settings(max_examples=50, deadline=None)
    def test_serialization_helpers_match_frozenset_path(self, positions):
        array = as_position_array(positions)
        dense = positions_to_dense_bits(array, 2048)
        assert np.array_equal(np.flatnonzero(dense), array)
        reference_bits = [
            (position >> bit) & 1
            for position in sorted(positions)
            for bit in range(8)
        ]
        assert positions_to_address_bits(array).tolist() == reference_bits
        assert positions_to_address_bits(positions).tolist() == reference_bits


class TestSparseSigResponsePath:
    """sig_response's sparse fast path == flatnonzero over the dense row,
    with identical rng stream consumption -- pinned so the twin noise-model
    blocks in chip.py cannot silently desynchronize."""

    @pytest.mark.parametrize("temperature_c", [30.0, 55.0, 85.0])
    def test_sparse_equals_dense_and_consumes_stream_identically(self, chip, temperature_c):
        for seed, (bank, row) in enumerate([(0, 1), (2, 7), (7, 63)]):
            sparse_rng = np.random.default_rng(seed)
            dense_rng = np.random.default_rng(seed)
            sparse = chip.sig_response(bank, row, temperature_c, rng=sparse_rng)
            dense = np.flatnonzero(
                chip.signature_row_values(bank, row, temperature_c, rng=dense_rng)
            ).astype(np.int64)
            assert np.array_equal(sparse, dense)
            # Both paths must have consumed the same number of draws.
            assert sparse_rng.random() == dense_rng.random()


class TestPUFResponseAPI:
    def test_requires_exactly_one_position_form(self):
        challenge = Challenge(SegmentAddress(0, 0))
        with pytest.raises(TypeError):
            PUFResponse(challenge=challenge)
        with pytest.raises(TypeError):
            PUFResponse(
                positions={1}, challenge=challenge, position_array=np.array([1])
            )
        with pytest.raises(TypeError):
            PUFResponse(positions={1})

    def test_position_array_is_read_only(self):
        response = PUFResponse(positions={3, 1}, challenge=Challenge(SegmentAddress(0, 0)))
        with pytest.raises(ValueError):
            response.position_array[0] = 7

    def test_callers_array_stays_writable_and_isolated(self):
        array = np.array([1, 5, 9], dtype=np.int64)
        response = PUFResponse(position_array=array, challenge=Challenge(SegmentAddress(0, 0)))
        array[0] = 7  # caller's buffer is neither frozen nor aliased
        assert response.position_array.tolist() == [1, 5, 9]
        assert hash(response) == hash(
            PUFResponse(positions={1, 5, 9}, challenge=Challenge(SegmentAddress(0, 0)))
        )

    def test_non_canonical_fast_path_rejected(self):
        challenge = Challenge(SegmentAddress(0, 0))
        with pytest.raises(ValueError, match="sorted"):
            PUFResponse(position_array=np.array([5, 1]), challenge=challenge)
        with pytest.raises(ValueError, match="sorted"):
            PUFResponse(position_array=np.array([1, 1, 5]), challenge=challenge)

    def test_non_integer_positions_rejected_not_truncated(self):
        challenge = Challenge(SegmentAddress(0, 0))
        with pytest.raises(ValueError, match="integers"):
            PUFResponse(position_array=np.array([3.0, 7.5]), challenge=challenge)
        with pytest.raises(ValueError, match="integers"):
            as_position_array(np.array([0.5, 0.7]))
        with pytest.raises(ValueError, match="integers"):
            as_position_array({0.5, 0.7})
        with pytest.raises(ValueError, match="integers"):
            as_position_array(np.array([True, False]))  # mask, not indices

    def test_evaluated_responses_are_read_only(self, module, rng):
        puf = CODICSigPUF(module)
        response = puf.evaluate(Challenge(SegmentAddress(0, 1)), rng=rng)
        assert not response.position_array.flags.writeable

    def test_read_only_view_of_writable_base_is_copied(self):
        base = np.arange(100, dtype=np.int64)
        view = base[10:20]
        view.setflags(write=False)
        response = PUFResponse(
            position_array=view, challenge=Challenge(SegmentAddress(0, 0))
        )
        base[10:20] = 0  # mutation through the base must not reach the response
        assert response.position_array.tolist() == list(range(10, 20))

    def test_immutable_after_construction(self):
        response = PUFResponse(positions={1}, challenge=Challenge(SegmentAddress(0, 0)))
        with pytest.raises(AttributeError):
            response.temperature_c = 55.0
        with pytest.raises(AttributeError):
            response.position_array = np.array([2], dtype=np.int64)
        assert response.temperature_c == 30.0
        assert response.position_array.tolist() == [1]

    def test_hashable(self):
        challenge = Challenge(SegmentAddress(0, 0))
        a = PUFResponse(positions={1, 2}, challenge=challenge)
        b = PUFResponse(positions={2, 1}, challenge=challenge)
        assert len({a, b}) == 1


class TestJaccardDistributionArray:
    def test_extend_accepts_arrays_and_validates(self):
        distribution = JaccardDistribution()
        distribution.extend(np.array([0.0, 0.5, 1.0]))
        assert distribution.values == [0.0, 0.5, 1.0]
        with pytest.raises(ValueError):
            distribution.extend([0.5, 1.5])

    def test_growth_beyond_initial_capacity(self):
        values = (np.arange(1000) / 999.0).tolist()
        distribution = JaccardDistribution.from_values(values)
        assert len(distribution) == 1000
        assert distribution.values == values

    def test_merge_is_concatenation_in_order(self):
        parts = [
            JaccardDistribution.from_values([0.1, 0.2]),
            JaccardDistribution(),
            JaccardDistribution.from_values([0.3]),
        ]
        merged = JaccardDistribution.merge(parts)
        assert merged.values == [0.1, 0.2, 0.3]

    def test_stats_cache_invalidated_by_mutation(self):
        distribution = JaccardDistribution.from_values([0.0, 1.0])
        assert distribution.mean == 0.5
        distribution.add(1.0)
        assert distribution.mean == pytest.approx(2 / 3)
        distribution.extend([1.0, 1.0, 1.0])
        assert distribution.median == 1.0

    def test_as_array_snapshot_is_read_only(self):
        distribution = JaccardDistribution.from_values([0.25])
        snapshot = distribution.as_array()
        with pytest.raises(ValueError):
            snapshot[0] = 0.5

    def test_pickle_is_deterministic_and_round_trips(self):
        import pickle

        first = JaccardDistribution.from_values([0.1, 0.2])
        second = JaccardDistribution.from_values([0.1, 0.2])
        assert pickle.dumps(first) == pickle.dumps(second)
        restored = pickle.loads(pickle.dumps(first))
        assert restored == first
        restored.add(0.3)  # restored distribution remains growable
        assert restored.values == [0.1, 0.2, 0.3]

    def test_list_and_array_paths_store_identical_floats(self):
        values = [0.1, 0.123456789, 1.0, 0.0]
        via_list = JaccardDistribution.from_values(values)
        via_array = JaccardDistribution.from_values(np.array(values))
        assert via_list == via_array
        assert via_list.values == values


class TestBatchedKernelsBitIdentity:
    """Batched kernels == scalar kernels, for every (uneven) partition."""

    PAIRS = 12
    PARTITIONS = [[(0, 12)], [(0, 5), (5, 6), (6, 12)], [(0, 1), (1, 11), (11, 12)]]

    @pytest.fixture(params=["codic", "latency", "prelat"])
    def factory(self, request):
        return {
            "codic": lambda m: CODICSigPUF(m),
            "latency": lambda m: DRAMLatencyPUF(m),
            "prelat": lambda m: PreLatPUF(m),
        }[request.param]

    def _streams(self, seed=7):
        return StreamTree(seed).child("puf-evaluator")

    def test_quality_batch_matches_scalar_across_partitions(self, small_population, factory):
        modules = small_population.modules
        streams = self._streams()
        scalar = [
            quality_pair(modules, factory, streams.rng("quality", index))
            for index in range(self.PAIRS)
        ]
        expected_intra = [pair[0] for pair in scalar]
        expected_inter = [pair[1] for pair in scalar]
        for partition in self.PARTITIONS:
            evaluator = PUFEvaluator(modules, factory, pairs=self.PAIRS, seed=7)
            intra_parts, inter_parts = [], []
            for start, stop in partition:
                intra, inter = evaluator.quality_shard(start, stop)
                intra_parts.append(intra)
                inter_parts.append(inter)
            assert JaccardDistribution.merge(intra_parts).values == expected_intra
            assert JaccardDistribution.merge(inter_parts).values == expected_inter

    def test_temperature_batch_matches_scalar(self, small_population, factory):
        modules = small_population.modules
        streams = self._streams()
        delta = 25.0
        scalar = [
            temperature_pair(
                modules, factory, streams.rng("temperature", delta, index), delta_c=delta
            )
            for index in range(self.PAIRS)
        ]
        rngs = [streams.rng("temperature", delta, index) for index in range(self.PAIRS)]
        batched = temperature_pairs_batch(modules, factory, rngs, delta_c=delta)
        assert batched.tolist() == scalar
        evaluator = PUFEvaluator(modules, factory, pairs=self.PAIRS, seed=7)
        sharded = JaccardDistribution.merge(
            [evaluator.temperature_shard(delta, 0, 4), evaluator.temperature_shard(delta, 4, 12)]
        )
        assert sharded.values == scalar

    def test_aging_batch_matches_scalar(self, small_population, factory):
        modules = small_population.modules
        streams = self._streams()
        scalar = [
            aging_pair(modules, factory, streams.rng("aging", index))
            for index in range(self.PAIRS)
        ]
        rngs = [streams.rng("aging", index) for index in range(self.PAIRS)]
        assert aging_pairs_batch(modules, factory, rngs).tolist() == scalar
        evaluator = PUFEvaluator(modules, factory, pairs=self.PAIRS, seed=7)
        sharded = JaccardDistribution.merge(
            [evaluator.aging_shard(0, 7), evaluator.aging_shard(7, 12)]
        )
        assert sharded.values == scalar

    def test_quality_pairs_batch_front_door(self, small_population):
        modules = small_population.modules
        streams = self._streams()
        rngs = [streams.rng("quality", index) for index in range(self.PAIRS)]
        intra, inter = quality_pairs_batch(modules, lambda m: CODICSigPUF(m), rngs)
        assert intra.dtype == np.float64 and inter.dtype == np.float64
        scalar = [
            quality_pair(modules, lambda m: CODICSigPUF(m), streams.rng("quality", index))
            for index in range(self.PAIRS)
        ]
        assert intra.tolist() == [pair[0] for pair in scalar]
        assert inter.tolist() == [pair[1] for pair in scalar]


pair_batches = st.lists(
    st.tuples(position_sets, position_sets), min_size=0, max_size=12
)


class TestJaccardBatchKernel:
    """The pair-shift batched Jaccard equals the scalar kernel, bit for bit."""

    @staticmethod
    def pack(sets):
        return concat_position_arrays([as_position_array(s) for s in sets])

    @given(pair_batches)
    @settings(max_examples=200, deadline=None)
    def test_batch_matches_scalar_loop(self, pairs):
        first, first_offsets = self.pack([a for a, _ in pairs])
        second, second_offsets = self.pack([b for _, b in pairs])
        batch = jaccard_index_batch(first, first_offsets, second, second_offsets)
        assert batch.dtype == np.float64
        assert batch.tolist() == [
            reference_jaccard(a, b) for a, b in pairs
        ]  # bit-identical floats, incl. empty-vs-empty -> 1.0

    @given(pair_batches)
    @settings(max_examples=200, deadline=None)
    def test_intersection_counts_match_scalar(self, pairs):
        first, first_offsets = self.pack([a for a, _ in pairs])
        second, second_offsets = self.pack([b for _, b in pairs])
        counts = intersection_size_batch(
            first, first_offsets, second, second_offsets
        )
        assert counts.tolist() == [len(a & b) for a, b in pairs]

    def test_concat_offsets_delimit_slices(self):
        arrays = [
            np.array([5, 9], dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.array([1], dtype=np.int64),
        ]
        buffer, offsets = concat_position_arrays(arrays)
        assert offsets.tolist() == [0, 2, 2, 3]
        for index, array in enumerate(arrays):
            assert (
                buffer[offsets[index] : offsets[index + 1]].tolist()
                == array.tolist()
            )
        empty_buffer, empty_offsets = concat_position_arrays([])
        assert empty_buffer.size == 0 and empty_offsets.tolist() == [0]

    def test_batch_size_mismatch_raises(self):
        first, first_offsets = self.pack([{1, 2}])
        second, second_offsets = self.pack([{1}, {2}])
        with pytest.raises(ValueError, match="batch size mismatch"):
            intersection_size_batch(first, first_offsets, second, second_offsets)


class TestDegeneratePopulationGuard:
    def test_single_segment_population_raises(self):
        geometry = DRAMGeometry(banks=1, rows_per_bank=1, row_bits=8192, device_width=8)
        module = DRAMModule(
            module_id="degenerate", chip_geometry=geometry, chips_per_rank=8, seed=3
        )
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="degenerate"):
            quality_pair([module], lambda m: CODICSigPUF(m), rng)

    def test_multi_module_single_segment_population_succeeds(self):
        geometry = DRAMGeometry(banks=1, rows_per_bank=1, row_bits=8192, device_width=8)
        modules = [
            DRAMModule(
                module_id=f"single-seg-{index}",
                chip_geometry=geometry,
                chips_per_rank=8,
                seed=index,
            )
            for index in range(2)
        ]
        # Every module has one segment, so intra/inter collisions force the
        # kernel to resample the module; all pairs must still complete.
        for seed in range(8):
            intra, inter = quality_pair(
                modules, lambda m: CODICSigPUF(m), np.random.default_rng(seed)
            )
            assert 0.0 <= intra <= 1.0
            assert 0.0 <= inter <= 1.0

    def test_two_segment_population_is_fine(self):
        geometry = DRAMGeometry(banks=1, rows_per_bank=2, row_bits=8192, device_width=8)
        module = DRAMModule(
            module_id="tiny", chip_geometry=geometry, chips_per_rank=8, seed=3
        )
        rng = np.random.default_rng(0)
        intra, inter = quality_pair([module], lambda m: CODICSigPUF(m), rng)
        assert 0.0 <= intra <= 1.0
        assert 0.0 <= inter <= 1.0

    def test_bound_is_generous(self):
        assert MAX_INTER_CHALLENGE_REDRAWS >= 100


class TestEvaluationCounterMetadata:
    @pytest.mark.parametrize("puf_class", [CODICSigPUF, DRAMLatencyPUF, PreLatPUF])
    def test_counter_excluded_from_equality_and_repr(self, puf_class, module):
        first = puf_class(module)
        second = puf_class(module)
        first.evaluate(Challenge(SegmentAddress(0, 1)))  # default rng: increments
        assert first._evaluations > 0
        assert first == second
        assert "_evaluations" not in repr(first)

    @pytest.mark.parametrize("puf_class", [CODICSigPUF, DRAMLatencyPUF, PreLatPUF])
    def test_counter_untouched_with_explicit_rng(self, puf_class, module, rng):
        puf = puf_class(module)
        puf.evaluate(Challenge(SegmentAddress(0, 1)), rng=rng)
        assert puf._evaluations == 0


class TestGoldenExperimentJSON:
    """Optimised execution is byte-identical to the JSON captured from the
    pre-refactor implementations (scalar-era PUF kernels, hash-based
    memory-controller timing, bit-serial Berlekamp-Massey and scipy p-values)."""

    @pytest.mark.parametrize(
        "experiment_id",
        [
            "fig5", "fig6", "aging", "table11", "fig8", "fig9", "table10",
            "fleet-roc", "fleet-aging",
        ],
    )
    def test_quick_json_matches_golden(self, experiment_id):
        result = ExperimentJob(experiment_id=experiment_id, quick=True).run()
        payload = json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n"
        golden = (GOLDEN_DIR / f"{experiment_id}_quick.json").read_text()
        assert payload == golden
