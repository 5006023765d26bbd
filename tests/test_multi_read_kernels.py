"""Multi-read kernel bit-identity and bookkeeping tests.

The batched multi-read evaluation core (`DRAMModule.sig_response_multi`,
`rp_response_multi`, the fused counting `rcd_filtered_response`) must be
bit-identical to the retained scalar reference loops for every vendor,
temperature, filter configuration and rng mode -- that is the contract the
golden fixtures enforce at the system level, checked here directly at the
kernel level with hypothesis-driven configurations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.chip import VENDOR_PROFILES
from repro.dram.geometry import DRAMGeometry
from repro.dram.module import DRAMModule, SegmentAddress
from repro.puf.base import Challenge
from repro.puf.codic_puf import CODICSigPUF
from repro.puf.latency_puf import DRAMLatencyPUF
from repro.puf.prelat_puf import PreLatPUF
from repro.utils.rng import make_rng

#: Small geometry so hypothesis examples stay fast; 2 banks x 4 rows x 1 KB
#: rows is enough to exercise multi-chip offsets and profile memos.
TEST_GEOMETRY = DRAMGeometry(banks=2, rows_per_bank=4, row_bits=1024, device_width=8)

#: Module cache: module construction derives per-chip profiles, which would
#: dominate the hypothesis run if rebuilt per example.  Modules are never
#: mutated by evaluation (all rngs are supplied), so reuse is safe.
_MODULES: dict[str, tuple[DRAMModule, DRAMModule]] = {}


def _module_pair(vendor: str) -> tuple[DRAMModule, DRAMModule]:
    """Two identically-seeded modules (batched vs scalar must not share
    memo state for the comparison to be meaningful)."""
    pair = _MODULES.get(vendor)
    if pair is None:
        pair = tuple(
            DRAMModule(
                module_id=f"kernel-{vendor}",
                chip_geometry=TEST_GEOMETRY,
                chips_per_rank=2,
                vendor=VENDOR_PROFILES[vendor],
                seed=97,
            )
            for _ in range(2)
        )
        _MODULES[vendor] = pair
    return pair


vendors = st.sampled_from(["A", "B", "C"])
temperatures = st.sampled_from([30.0, 45.0, 85.0])
light_passes = st.sampled_from([1, 3, 5])
#: (reads, threshold) pairs including both edges: threshold=0 (any failure
#: qualifies) and threshold=reads (counts > reads is unsatisfiable).
read_threshold = st.sampled_from([(1, 0), (5, 0), (5, 4), (5, 5), (100, 90)])
segments = st.tuples(st.integers(0, 1), st.integers(0, 3))
seeds = st.integers(0, 2**16)
supplied_rng = st.booleans()


def _challenge(segment: tuple[int, int]) -> Challenge:
    return Challenge(segment=SegmentAddress(bank=segment[0], row=segment[1]))


def _assert_identical(batched, scalar):
    assert batched.position_array.dtype == np.int64
    assert np.array_equal(batched.position_array, scalar.position_array)


class TestMultiReadBitIdentity:
    @given(vendors, temperatures, light_passes, segments, seeds, supplied_rng)
    @settings(max_examples=120, deadline=None)
    def test_codic_multi_matches_scalar(
        self, vendor, temperature, passes, segment, seed, supplied
    ):
        batched_module, scalar_module = _module_pair(vendor)
        challenge = _challenge(segment)
        batched_puf = CODICSigPUF(batched_module, filter_passes=passes)
        scalar_puf = CODICSigPUF(scalar_module, filter_passes=passes)
        if supplied:
            batched = batched_puf.evaluate(challenge, temperature, rng=make_rng(seed))
            scalar = scalar_puf.evaluate_scalar(challenge, temperature, rng=make_rng(seed))
        else:
            batched_puf._evaluations = scalar_puf._evaluations = seed
            batched = batched_puf.evaluate(challenge, temperature)
            scalar = scalar_puf.evaluate_scalar(challenge, temperature)
            assert batched_puf._evaluations == scalar_puf._evaluations
        _assert_identical(batched, scalar)

    @given(vendors, temperatures, light_passes, segments, seeds, supplied_rng)
    @settings(max_examples=120, deadline=None)
    def test_prelat_multi_matches_scalar(
        self, vendor, temperature, passes, segment, seed, supplied
    ):
        batched_module, scalar_module = _module_pair(vendor)
        challenge = _challenge(segment)
        batched_puf = PreLatPUF(batched_module, filter_passes=passes)
        scalar_puf = PreLatPUF(scalar_module, filter_passes=passes)
        if supplied:
            batched = batched_puf.evaluate(challenge, temperature, rng=make_rng(seed))
            scalar = scalar_puf.evaluate_scalar(challenge, temperature, rng=make_rng(seed))
        else:
            batched_puf._evaluations = scalar_puf._evaluations = seed
            batched = batched_puf.evaluate(challenge, temperature)
            scalar = scalar_puf.evaluate_scalar(challenge, temperature)
            assert batched_puf._evaluations == scalar_puf._evaluations
        _assert_identical(batched, scalar)

    @given(vendors, temperatures, read_threshold, segments, seeds, supplied_rng)
    @settings(max_examples=120, deadline=None)
    def test_latency_fused_matches_scalar(
        self, vendor, temperature, read_config, segment, seed, supplied
    ):
        reads, threshold = read_config
        batched_module, scalar_module = _module_pair(vendor)
        challenge = _challenge(segment)
        batched_puf = DRAMLatencyPUF(
            batched_module, filter_reads=reads, filter_threshold=threshold
        )
        scalar_puf = DRAMLatencyPUF(
            scalar_module, filter_reads=reads, filter_threshold=threshold
        )
        if supplied:
            batched = batched_puf.evaluate(challenge, temperature, rng=make_rng(seed))
            scalar = scalar_puf.evaluate_scalar(challenge, temperature, rng=make_rng(seed))
        else:
            batched_puf._evaluations = scalar_puf._evaluations = seed
            batched = batched_puf.evaluate(challenge, temperature)
            scalar = scalar_puf.evaluate_scalar(challenge, temperature)
            assert batched_puf._evaluations == scalar_puf._evaluations
        _assert_identical(batched, scalar)


class TestModuleKernels:
    def test_sig_multi_shared_stream_matches_repeated_responses(self):
        module, reference = _module_pair("A")
        segment = SegmentAddress(bank=0, row=1)
        rng = make_rng(11, "shared")
        positions = module.sig_response_multi(segment, 3, rngs=[rng] * 3)
        check = make_rng(11, "shared")
        observations = [reference.sig_response(segment, rng=check) for _ in range(3)]
        expected = observations[0]
        for observation in observations[1:]:
            expected = np.intersect1d(expected, observation, assume_unique=True)
        assert np.array_equal(positions, expected)

    def test_rp_multi_distinct_streams_matches_per_pass_responses(self):
        module, reference = _module_pair("B")
        segment = SegmentAddress(bank=1, row=2)
        rngs = [make_rng(5, "pass", index) for index in range(3)]
        positions = module.rp_response_multi(segment, 3, trp_ns=2.5, rngs=rngs)
        check = [make_rng(5, "pass", index) for index in range(3)]
        observations = [
            reference.rp_response(segment, trp_ns=2.5, rng=rng) for rng in check
        ]
        expected = observations[0]
        for observation in observations[1:]:
            expected = np.intersect1d(expected, observation, assume_unique=True)
        assert np.array_equal(positions, expected)

    def test_fused_rcd_matches_scalar_loop(self):
        module, reference = _module_pair("C")
        segment = SegmentAddress(bank=0, row=3)
        fused = module.rcd_filtered_response(
            segment, 2.5, 100, 90, temperature_c=55.0, rng=make_rng(3)
        )
        scalar = reference.rcd_filtered_response_scalar(
            segment, 2.5, 100, 90, temperature_c=55.0, rng=make_rng(3)
        )
        assert np.array_equal(fused, scalar)

    def test_fused_rcd_without_rng_falls_back_to_scalar_defaults(self):
        # With no supplied rng every chip derives its own default noise
        # stream; the fused kernel cannot reproduce that with one stream, so
        # it must route to the scalar loop.
        module, reference = _module_pair("A")
        segment = SegmentAddress(bank=1, row=0)
        assert np.array_equal(
            module.rcd_filtered_response(segment, 2.5, 5, 2),
            reference.rcd_filtered_response_scalar(segment, 2.5, 5, 2),
        )

    def test_multi_read_validates_rngs(self):
        module, _ = _module_pair("A")
        segment = SegmentAddress(bank=0, row=0)
        with pytest.raises(ValueError):
            module.sig_response_multi(segment, 0, rngs=[])
        with pytest.raises(ValueError):
            module.sig_response_multi(segment, 2, rngs=[make_rng(1)])
        with pytest.raises(ValueError):
            module.rp_response_multi(segment, 2, trp_ns=2.5, rngs=None)

    def test_reset_profile_memos_clears_module_and_chip_memos(self):
        module = DRAMModule(
            module_id="reset-test",
            chip_geometry=TEST_GEOMETRY,
            chips_per_rank=2,
            seed=3,
        )
        segment = SegmentAddress(bank=0, row=0)
        module.rcd_filtered_response(segment, 2.5, 5, 2, rng=make_rng(1))
        module.sig_response_multi(segment, 2, rngs=[make_rng(2)] * 2)
        assert len(module._segment_profile_cache) > 0
        module.reset_profile_memos()
        assert len(module._segment_profile_cache) == 0
        for chip in module.chips:
            assert len(chip._rcd_profile_cache) == 0
            assert len(chip._sig_weak_cache) == 0


class TestEvaluationsCounterParity:
    def test_codic_counts_one_increment_per_pass(self):
        module, _ = _module_pair("A")
        challenge = _challenge((0, 1))
        puf = CODICSigPUF(module, filter_passes=5)
        puf.evaluate(challenge)
        assert puf._evaluations == 5
        puf.evaluate(challenge)
        assert puf._evaluations == 10
        puf.evaluate(challenge, rng=make_rng(1))
        assert puf._evaluations == 10  # supplied rng leaves the counter alone

    def test_prelat_counts_one_increment_per_pass(self):
        module, _ = _module_pair("A")
        puf = PreLatPUF(module, filter_passes=3)
        puf.evaluate(_challenge((1, 1)))
        assert puf._evaluations == 3

    def test_latency_counts_one_increment_per_filtered_evaluate(self):
        module, _ = _module_pair("A")
        challenge = _challenge((0, 2))
        puf = DRAMLatencyPUF(module, filter_reads=5, filter_threshold=2)
        puf.evaluate(challenge)
        assert puf._evaluations == 1
        puf.evaluate(challenge)
        assert puf._evaluations == 2
        puf.evaluate(challenge, rng=make_rng(1))
        assert puf._evaluations == 2

    def test_default_seeded_sequences_interchange_with_scalar(self):
        # A batched evaluate followed by a scalar one must continue the same
        # default-seeded noise sequence as two scalar (or two batched) calls.
        module_a, module_b = _module_pair("B")
        challenge = _challenge((1, 3))
        mixed = DRAMLatencyPUF(module_a, filter_reads=5, filter_threshold=2)
        pure = DRAMLatencyPUF(module_b, filter_reads=5, filter_threshold=2)
        first_mixed = mixed.evaluate(challenge)
        second_mixed = mixed.evaluate_scalar(challenge)
        first_pure = pure.evaluate_scalar(challenge)
        second_pure = pure.evaluate_scalar(challenge)
        assert np.array_equal(first_mixed.position_array, first_pure.position_array)
        assert np.array_equal(second_mixed.position_array, second_pure.position_array)


class TestScalarReference:
    def test_evaluate_consumes_shared_rng_like_scalar(self):
        module, _ = _module_pair("A")
        challenge = _challenge((0, 0))
        rng_batched = make_rng(21)
        batched = CODICSigPUF(module, filter_passes=3).evaluate(
            challenge, rng=rng_batched
        )
        rng_scalar = make_rng(21)
        scalar = CODICSigPUF(module, filter_passes=3).evaluate_scalar(
            challenge, rng=rng_scalar
        )
        assert np.array_equal(batched.position_array, scalar.position_array)
        # Both consumed the stream identically: the next draw must agree.
        assert rng_batched.integers(0, 2**31) == rng_scalar.integers(0, 2**31)
