"""Tests for the DRAM chip model: data path, retention, variation, CODIC execution."""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.core.variants import VariantFunction, standard_variants
from repro.dram.chip import DRAMChip, RowState, VENDOR_PROFILES, _vendor_rp_columns
from repro.dram.geometry import DRAMGeometry
from repro.dram.module import DRAMModule

VARIANTS = standard_variants()


class TestDataPath:
    def test_unwritten_row_reads_zero(self, chip):
        assert not np.any(chip.read_row(0, 0))

    def test_write_read_roundtrip(self, chip, rng):
        data = rng.integers(0, 2, chip.geometry.row_bits).astype(np.uint8)
        chip.write_row(2, 10, data)
        assert np.array_equal(chip.read_row(2, 10), data)

    def test_fill_row(self, chip):
        chip.fill_row(1, 1, 1)
        assert np.all(chip.read_row(1, 1) == 1)

    def test_wrong_length_rejected(self, chip):
        with pytest.raises(ValueError):
            chip.write_row(0, 0, np.zeros(10, dtype=np.uint8))

    def test_non_binary_rejected(self, chip):
        with pytest.raises(ValueError):
            chip.write_row(0, 0, np.full(chip.geometry.row_bits, 2, dtype=np.uint8))

    def test_out_of_range_rejected(self, chip):
        with pytest.raises(ValueError):
            chip.read_row(99, 0)
        with pytest.raises(ValueError):
            chip.read_row(0, 10_000)

    def test_written_rows_counter(self, chip):
        assert chip.written_rows == 0
        chip.fill_row(0, 0, 1)
        chip.fill_row(0, 1, 1)
        assert chip.written_rows == 2


class TestSignatureBehaviour:
    def test_weak_cells_deterministic(self, chip):
        first = chip.sig_weak_cells(0, 5)
        second = chip.sig_weak_cells(0, 5)
        assert np.array_equal(first, second)

    def test_weak_cells_differ_across_rows(self, chip):
        assert not np.array_equal(chip.sig_weak_cells(0, 1), chip.sig_weak_cells(0, 2))

    def test_weak_fraction_in_paper_range(self, chip):
        # The paper observes 0.01 % - 0.22 % minority cells.
        counts = [chip.sig_weak_cells(0, row).size for row in range(32)]
        fraction = np.mean(counts) / chip.geometry.row_bits
        assert 5e-5 < fraction < 5e-3

    def test_weak_cells_differ_across_chips(self, small_geometry):
        chip_a = DRAMChip("a", geometry=small_geometry, seed=1)
        chip_b = DRAMChip("b", geometry=small_geometry, seed=2)
        a = set(chip_a.sig_weak_cells(0, 0).tolist())
        b = set(chip_b.sig_weak_cells(0, 0).tolist())
        union = a | b
        assert not union or len(a & b) / len(union) < 0.5

    def test_sig_response_mostly_stable(self, chip, rng):
        base = set(chip.sig_weak_cells(0, 3).tolist())
        if not base:
            pytest.skip("row has no weak cells for this seed")
        observed = set(chip.sig_response(0, 3, rng=rng).tolist())
        assert len(observed & base) >= 0.9 * len(base)

    def test_signature_values_are_binary(self, chip, rng):
        values = chip.signature_row_values(0, 4, rng=rng)
        assert values.dtype == np.uint8
        assert set(np.unique(values)).issubset({0, 1})

    def test_sigsa_weak_cells_distinct_from_sig(self, chip):
        sig = set(chip.sig_weak_cells(0, 6).tolist())
        sigsa = set(chip.sigsa_weak_cells(0, 6).tolist())
        assert sig != sigsa or not sig


class TestReducedTimingFailures:
    def test_nominal_timing_has_no_failures(self, chip):
        cells, _ = chip.rcd_failure_profile(0, 0, trcd_ns=13.75)
        assert cells.size == 0
        cells, _ = chip.rp_failure_profile(0, 0, trp_ns=13.75)
        assert cells.size == 0

    def test_reduced_trcd_produces_failures(self, chip):
        cells, probabilities = chip.rcd_failure_profile(0, 0, trcd_ns=2.5)
        assert cells.size > 0
        assert np.all((probabilities > 0) & (probabilities < 1))

    def test_rcd_filter_keeps_reliable_failures(self, chip, rng):
        filtered = chip.rcd_filtered_response(0, 0, 2.5, reads=100, threshold=90, rng=rng)
        cells, probabilities = chip.rcd_failure_profile(0, 0, trcd_ns=2.5)
        reliable = set(cells[probabilities > 0.95].tolist())
        assert reliable.issubset(set(cells.tolist()))
        assert set(filtered.tolist()).issubset(set(cells.tolist()))

    def test_rp_failures_shared_across_rows(self, chip):
        first, _ = chip.rp_failure_profile(0, 1, trp_ns=2.5)
        second, _ = chip.rp_failure_profile(0, 2, trp_ns=2.5)
        shared = set(first.tolist()) & set(second.tolist())
        union = set(first.tolist()) | set(second.tolist())
        # Column-dominated failures: substantial overlap between rows.
        assert len(shared) / len(union) > 0.3

    def test_rcd_failures_vary_with_temperature(self, chip, rng):
        cold = chip.rcd_response(0, 0, 2.5, temperature_c=30.0, rng=np.random.default_rng(0))
        hot = chip.rcd_response(0, 0, 2.5, temperature_c=85.0, rng=np.random.default_rng(0))
        assert hot.size >= cold.size  # failures become more likely when hot


class TestRetention:
    def test_no_decay_while_refreshing(self, chip):
        chip.fill_row(0, 0, 1)
        chip.advance_time(3600.0)
        assert np.all(chip.read_row(0, 0) == 1)

    def test_decay_after_refresh_disabled(self, chip, rng):
        chip.fill_row(0, 0, 1)
        chip.disable_refresh()
        chip.advance_time(48 * 3600.0)
        data = chip.read_row(0, 0, rng=rng)
        assert np.count_nonzero(data == 0) > 0  # some cells decayed

    def test_temperature_accelerates_decay(self, small_geometry, rng):
        hot = DRAMChip("hot", geometry=small_geometry, seed=5)
        cold = DRAMChip("cold", geometry=small_geometry, seed=5)
        for chip in (hot, cold):
            chip.fill_row(0, 0, 1)
            chip.disable_refresh()
        hot.advance_time(4 * 3600.0, temperature_c=85.0)
        cold.advance_time(4 * 3600.0, temperature_c=30.0)
        hot_decayed = np.count_nonzero(hot.read_row(0, 0, rng=rng) == 0)
        cold_decayed = np.count_nonzero(cold.read_row(0, 0, rng=rng) == 0)
        assert hot_decayed > cold_decayed

    def test_enable_refresh_resets_clock(self, chip):
        chip.disable_refresh()
        chip.advance_time(100.0)
        chip.enable_refresh()
        assert chip.seconds_since_refresh == 0.0
        assert chip.refresh_enabled

    def test_retention_times_positive(self, chip):
        times = chip.retention_times_s(0, 0)
        assert np.all(times > 0)


class TestCODICExecution:
    def test_sig_marks_row_pending_then_resolves(self, chip):
        chip.fill_row(0, 2, 1)
        function = chip.execute_codic(VARIANTS["CODIC-sig"].schedule, 0, 2)
        assert function is VariantFunction.SIGNATURE
        assert chip.row_state(0, 2) is RowState.SIGNATURE_PENDING
        data = chip.read_row(0, 2)
        assert chip.row_state(0, 2) is RowState.DATA
        # The resolved signature is sparse ones over a zero background.
        assert np.count_nonzero(data) < chip.geometry.row_bits // 10

    def test_det_zero_and_one(self, chip):
        chip.fill_row(1, 1, 1)
        chip.execute_codic(VARIANTS["CODIC-det"].schedule, 1, 1)
        assert not np.any(chip.read_row(1, 1))
        chip.execute_codic(VARIANTS["CODIC-det-one"].schedule, 1, 1)
        assert np.all(chip.read_row(1, 1) == 1)

    def test_precharge_preserves_data(self, chip, rng):
        data = rng.integers(0, 2, chip.geometry.row_bits).astype(np.uint8)
        chip.write_row(0, 9, data)
        chip.execute_codic(VARIANTS["CODIC-precharge"].schedule, 0, 9)
        assert np.array_equal(chip.read_row(0, 9), data)

    def test_activate_preserves_data(self, chip, rng):
        data = rng.integers(0, 2, chip.geometry.row_bits).astype(np.uint8)
        chip.write_row(0, 11, data)
        chip.execute_codic(VARIANTS["CODIC-activate"].schedule, 0, 11)
        assert np.array_equal(chip.read_row(0, 11), data)

    def test_sigsa_writes_sparse_signature(self, chip):
        chip.fill_row(2, 2, 1)
        chip.execute_codic(VARIANTS["CODIC-sigsa"].schedule, 2, 2)
        data = chip.read_row(2, 2)
        assert np.count_nonzero(data) < chip.geometry.row_bits // 10

    def test_sig_destroys_previous_content(self, chip):
        chip.fill_row(3, 3, 1)
        chip.execute_codic(VARIANTS["CODIC-sig"].schedule, 3, 3)
        data = chip.read_row(3, 3)
        # All-ones content must be gone (signature is overwhelmingly zeros).
        assert np.count_nonzero(data) < chip.geometry.row_bits // 2

    def test_destroy_all_clears_written_rows(self, chip):
        chip.fill_row(0, 0, 1)
        chip.fill_row(1, 0, 1)
        chip.destroy_all(fill_value=0)
        assert chip.written_rows == 0
        assert not np.any(chip.read_row(0, 0))


class TestVendorProfiles:
    def test_three_vendors_defined(self):
        assert set(VENDOR_PROFILES) == {"A", "B", "C"}

    def test_chip_profile_within_vendor_ranges(self, small_geometry):
        for vendor_name, profile in VENDOR_PROFILES.items():
            chip = DRAMChip("x", geometry=small_geometry, vendor=profile, seed=3)
            low, high = profile.sig_weak_fraction_range
            assert low <= chip.sig_weak_fraction <= high
            low, high = profile.readable_fraction_range
            assert low <= chip.readable_fraction <= high

    def test_ddr3l_more_stable_than_ddr3(self, small_geometry):
        ddr3l = DRAMChip("l", geometry=small_geometry, voltage=1.35, seed=4)
        ddr3 = DRAMChip("h", geometry=small_geometry, voltage=1.50, seed=4)
        assert ddr3l.sig_stability > ddr3.sig_stability


#: Geometry of the pinned chips below (the fleet's default device geometry).
PINNED_GEOMETRY = DRAMGeometry(banks=4, rows_per_bank=64, row_bits=8192, device_width=8)

#: Per-chip variation of chip ``pin-<vendor>-<voltage>`` (seed 20211), as
#: drawn when every chip still derived it at construction: the
#: ``sig_weak_fraction`` and ``readable_fraction`` bits (``float.hex``), and
#: the size and SHA-256 prefix of the little-endian int64 reduced-tRP
#: failing columns.
PINNED_VARIATION = {
    ("A", 1.35): ("0x1.7648004ac0762p-10", "0x1.d85ca568234ccp-1", 164, "ab9518b54fd16a39"),
    ("A", 1.50): ("0x1.3985ebc53707ap-10", "0x1.b3171ba7a5138p-1", 164, "68c264fca138e536"),
    ("B", 1.35): ("0x1.783600d0983bcp-11", "0x1.92fc8220704ccp-2", 163, "00a24f81b7099a46"),
    ("B", 1.50): ("0x1.d4b789d5e9d62p-12", "0x1.397c8bbd94962p-1", 164, "38010a10b7418b36"),
    ("C", 1.35): ("0x1.73f5ba4a6ec28p-11", "0x1.0a5cbad18eaa4p-1", 202, "30a155b556a2253e"),
    ("C", 1.50): ("0x1.fee27cee52e36p-13", "0x1.e0b61cdefb333p-1", 205, "cccb2ab4de594be7"),
}

VARIATION_ATTRIBUTES = ("sig_weak_fraction", "readable_fraction", "_rp_failing_columns")


class TestLazyVariation:
    """Per-chip variation is drawn on first read, from the same streams."""

    def test_building_chips_and_modules_creates_no_generator(
        self, generator_calls, small_geometry
    ):
        for vendor in VENDOR_PROFILES.values():
            DRAMChip("lazy", geometry=small_geometry, vendor=vendor, seed=5)
            DRAMModule(
                module_id="lazy", chip_geometry=small_geometry, vendor=vendor, seed=5
            )
        assert generator_calls.make_rng == []
        assert generator_calls.default_rng == 0

    @pytest.mark.parametrize("order", list(itertools.permutations(VARIATION_ATTRIBUTES)))
    def test_variation_matches_pinned_values_in_any_read_order(self, order):
        for (vendor, voltage), pinned in PINNED_VARIATION.items():
            sig_hex, readable_hex, n_columns, digest = pinned
            chip = DRAMChip(
                f"pin-{vendor}-{voltage}",
                geometry=PINNED_GEOMETRY,
                vendor=VENDOR_PROFILES[vendor],
                voltage=voltage,
                seed=20211,
            )
            values = {name: getattr(chip, name) for name in order}
            assert values["sig_weak_fraction"] == float.fromhex(sig_hex)
            assert values["readable_fraction"] == float.fromhex(readable_hex)
            columns = values["_rp_failing_columns"]
            assert columns.dtype == np.int64
            assert columns.size == n_columns
            assert hashlib.sha256(columns.astype("<i8").tobytes()).hexdigest()[:16] == digest
            # A derived value is kept: later reads return the same object.
            for name in order:
                assert getattr(chip, name) is values[name]

    def test_reset_profile_memos_keeps_the_variation(self, chip):
        before = (chip.sig_weak_fraction, chip.readable_fraction, chip._rp_failing_columns)
        chip.reset_profile_memos()
        after = (chip.sig_weak_fraction, chip.readable_fraction, chip._rp_failing_columns)
        assert all(a is b for a, b in zip(before, after))

    def test_vendor_columns_are_drawn_once_and_shared_read_only(
        self, generator_calls, small_geometry
    ):
        vendor = VENDOR_PROFILES["B"]
        _vendor_rp_columns.cache_clear()
        chips = [
            DRAMChip(f"v{i}", geometry=small_geometry, vendor=vendor, seed=i)
            for i in range(12)
        ]
        per_chip = [chip._rp_failing_columns for chip in chips]
        vendor_draws = [
            labels for labels in generator_calls.make_rng if "rp-vendor-columns" in labels
        ]
        assert vendor_draws == [("rp-vendor-columns", "B")]
        n_columns = small_geometry.row_bits
        n_fail = max(1, int(round(vendor.rp_column_failure_fraction * n_columns)))
        n_vendor = int(round(n_fail * vendor.rp_vendor_common_fraction))
        shared = _vendor_rp_columns(vendor.name, n_columns, n_vendor)
        assert _vendor_rp_columns(vendor.name, n_columns, n_vendor) is shared
        assert _vendor_rp_columns.cache_info().misses == 1
        assert shared.size == n_vendor
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0] = -1
        for columns in per_chip:
            assert np.isin(shared, columns).all()
