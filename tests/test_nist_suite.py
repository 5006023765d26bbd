"""Tests for the NIST SP 800-22 statistical test suite.

The suite is validated in three ways: known-good uniform streams must pass,
pathological streams must fail the relevant tests, and selected tests are
checked against hand-computable statistics.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rng.nist import NIST_TEST_NAMES, run_nist_suite, run_single_test
from repro.rng.nist.basic import _cusum_p_value, _gf2_rank, _longest_run
from repro.rng.nist.complexity import _berlekamp_massey
from repro.rng.nist.result import NISTTestResult
from repro.rng.nist.special import gammaincc, normal_cdf
from repro.rng.nist.templates import (
    non_overlapping_template_matching as run_nist_template_test,
)


def reference_berlekamp_massey(block: np.ndarray) -> int:
    """Bit-serial Berlekamp-Massey: the oracle for the packed-int version.

    The connection polynomials are Python integers (bit i is coefficient
    i), and the discrepancy is summed one coefficient at a time.
    """
    n = block.size
    bits_int = [int(b) for b in block]
    c = 1  # C(x) = 1
    b = 1  # B(x) = 1
    l = 0
    m = -1
    for index in range(n):
        # Discrepancy: s[index] + sum_{i=1..l} c_i * s[index - i]  (mod 2).
        discrepancy = bits_int[index]
        connection = c >> 1
        i = 1
        while connection and i <= l:
            if connection & 1:
                discrepancy ^= bits_int[index - i]
            connection >>= 1
            i += 1
        if discrepancy:
            temp = c
            c ^= b << (index - m)
            if l <= index // 2:
                l = index + 1 - l
                m = index
                b = temp
    return l


@pytest.fixture(scope="module")
def uniform_bits() -> np.ndarray:
    return np.random.default_rng(42).integers(0, 2, 120_000).astype(np.uint8)


@pytest.fixture(scope="module")
def biased_bits() -> np.ndarray:
    return (np.random.default_rng(43).random(50_000) < 0.65).astype(np.uint8)


class TestSuiteOnUniformInput:
    def test_all_fifteen_tests_present(self):
        assert len(NIST_TEST_NAMES) == 15

    @pytest.mark.parametrize("name", NIST_TEST_NAMES)
    def test_uniform_stream_passes(self, uniform_bits, name):
        result = run_single_test(name, uniform_bits)
        assert result.passed, f"{name} unexpectedly failed: p={result.p_value}"

    def test_suite_aggregate(self, uniform_bits):
        suite = run_nist_suite(uniform_bits, tests=("monobit", "runs", "serial"))
        assert suite.all_passed
        assert suite.applicable_tests == 3
        assert suite.result("runs").passed

    def test_unknown_test_name(self, uniform_bits):
        with pytest.raises(KeyError):
            run_single_test("bogus", uniform_bits)


class TestSuiteOnPathologicalInput:
    def test_biased_stream_fails_monobit(self, biased_bits):
        assert not run_single_test("monobit", biased_bits).passed

    def test_biased_stream_fails_cumulative_sums(self, biased_bits):
        assert not run_single_test("cumulative_sums", biased_bits).passed

    def test_alternating_stream_fails_runs_family(self):
        bits = np.tile([0, 1], 10_000).astype(np.uint8)
        assert not run_single_test("runs", bits).passed
        assert not run_single_test("serial", bits).passed
        assert not run_single_test("approximate_entropy", bits).passed

    def test_repeating_block_fails_linear_complexity_or_serial(self):
        block = np.random.default_rng(7).integers(0, 2, 16).astype(np.uint8)
        bits = np.tile(block, 4000)
        serial = run_single_test("serial", bits)
        complexity = run_single_test("linear_complexity", bits)
        assert not (serial.passed and complexity.passed)

    def test_all_ones_blocks_fail_overlapping_template(self):
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, 40_000).astype(np.uint8)
        bits[::50] = 1  # inject periodic structure plus runs of ones
        bits[: 20_000] = 1
        assert not run_single_test("overlapping_template_matching", bits).passed


class TestApplicability:
    def test_short_stream_marks_heavy_tests_not_applicable(self):
        bits = np.random.default_rng(0).integers(0, 2, 500).astype(np.uint8)
        for name in ("maurers_universal", "binary_matrix_rank", "overlapping_template_matching"):
            result = run_single_test(name, bits)
            assert not result.applicable
            assert result.passed  # N/A tests do not fail the suite

    def test_suite_counts_applicable(self):
        bits = np.random.default_rng(0).integers(0, 2, 500).astype(np.uint8)
        suite = run_nist_suite(bits, tests=("monobit", "maurers_universal"))
        assert suite.applicable_tests == 1

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            run_single_test("monobit", np.empty(0, dtype=np.uint8))


class TestKnownStatistics:
    def test_monobit_exact_p_value(self):
        # SP 800-22 worked example: 1011010101 -> p = 0.527089.
        bits = np.array([1, 0, 1, 1, 0, 1, 0, 1, 0, 1], dtype=np.uint8)
        result = run_single_test("monobit", bits)
        assert result.p_value == pytest.approx(0.527089, abs=1e-4)

    def test_runs_exact_p_value(self):
        # SP 800-22 worked example: 1001101011 -> p = 0.147232.
        bits = np.array([1, 0, 0, 1, 1, 0, 1, 0, 1, 1], dtype=np.uint8)
        result = run_single_test("runs", bits)
        assert result.p_value == pytest.approx(0.147232, abs=1e-4)

    def test_longest_run_helper(self):
        assert _longest_run(np.array([1, 1, 0, 1, 1, 1, 0], dtype=np.uint8)) == 3
        assert _longest_run(np.zeros(5, dtype=np.uint8)) == 0

    def test_gf2_rank_identity(self):
        assert _gf2_rank(np.eye(8, dtype=np.uint8)) == 8

    def test_gf2_rank_dependent_rows(self):
        matrix = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.uint8)
        assert _gf2_rank(matrix) == 2

    def test_berlekamp_massey_lfsr(self):
        # An m-sequence from a degree-4 LFSR has linear complexity 4.
        state = [1, 0, 0, 1]
        bits = []
        for _ in range(60):
            bits.append(state[-1])
            new = state[0] ^ state[-1]
            state = [new] + state[:-1]
        assert _berlekamp_massey(np.array(bits, dtype=np.uint8)) == 4

    def test_berlekamp_massey_constant_zero(self):
        assert _berlekamp_massey(np.zeros(32, dtype=np.uint8)) == 0

    def test_result_describe(self):
        result = NISTTestResult(name="monobit", p_value=0.5)
        assert "PASS" in result.describe()
        assert NISTTestResult(name="x", p_value=0.0, applicable=False).passed


class TestBerlekampMasseyOracle:
    """The packed-int Berlekamp-Massey equals the bit-serial reference."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=600))
    def test_random_blocks_match_reference(self, bits):
        block = np.array(bits, dtype=np.int8)
        assert _berlekamp_massey(block) == reference_berlekamp_massey(block)

    @pytest.mark.parametrize("length", [1, 2, 3, 31, 64, 500, 600])
    def test_constant_blocks_match_reference(self, length):
        for value in (0, 1):
            block = np.full(length, value, dtype=np.int8)
            assert _berlekamp_massey(block) == reference_berlekamp_massey(block)
        assert _berlekamp_massey(np.zeros(length, dtype=np.int8)) == 0
        assert _berlekamp_massey(np.ones(length, dtype=np.int8)) == 1

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=40),
        st.integers(1, 600),
    )
    def test_periodic_blocks_match_reference(self, period, length):
        block = np.resize(np.array(period, dtype=np.int8), length)
        complexity = _berlekamp_massey(block)
        assert complexity == reference_berlekamp_massey(block)
        if length >= 2 * len(period):
            assert complexity <= len(period)

    def test_sp800_22_worked_example(self):
        # SP 800-22 section 2.10.8: the 13-bit sequence 1101011110001 has
        # linear complexity 4.
        block = np.array([int(c) for c in "1101011110001"], dtype=np.int8)
        assert _berlekamp_massey(block) == 4
        assert reference_berlekamp_massey(block) == 4


def reference_non_overlapping_counts(
    bits: np.ndarray, template: tuple[int, ...], num_blocks: int
) -> list[int]:
    """Position-by-position scan: the oracle for the vectorised counts."""
    m = len(template)
    block_size = bits.size // num_blocks
    template_arr = np.asarray(template, dtype=np.int8)
    counts = []
    for index in range(num_blocks):
        block = bits[index * block_size : (index + 1) * block_size]
        count = 0
        position = 0
        while position <= block_size - m:
            if np.array_equal(block[position : position + m], template_arr):
                count += 1
                position += m
            else:
                position += 1
        counts.append(count)
    return counts


def reference_template_p_value(
    bits: np.ndarray, template: tuple[int, ...], num_blocks: int
) -> float:
    """SP 800-22 p-value from the position-scan counts."""
    m = len(template)
    block_size = bits.size // num_blocks
    counts = np.asarray(reference_non_overlapping_counts(bits, template, num_blocks))
    mean = (block_size - m + 1) / (2.0 ** m)
    variance = block_size * (1.0 / 2.0 ** m - (2.0 * m - 1.0) / 2.0 ** (2 * m))
    chi_squared = float(np.sum((counts - mean) ** 2 / variance))
    return gammaincc(num_blocks / 2.0, chi_squared / 2.0)


class TestNonOverlappingTemplateOracle:
    """The vectorised match counting equals the position-by-position scan."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(0, 1), min_size=60, max_size=1500),
        st.lists(st.integers(0, 1), min_size=1, max_size=6),
        st.integers(1, 8),
    )
    def test_matches_position_scan(self, bits, template, num_blocks):
        bits = np.array(bits, dtype=np.int8)
        template = tuple(template)
        result = run_nist_template_test(bits, template, num_blocks)
        if bits.size // num_blocks < len(template) * 10:
            assert not result.applicable
        else:
            assert result.p_value == reference_template_p_value(bits, template, num_blocks)

    def test_self_overlapping_template(self):
        # "11" occurs non-overlapping at 0, 2 and 5 of "1111011100": 3 per
        # period, while a sliding count would find 5.
        bits = np.tile(np.array([1, 1, 1, 1, 0, 1, 1, 1, 0, 0], dtype=np.int8), 8)
        assert reference_non_overlapping_counts(bits, (1, 1), 2) == [12, 12]
        result = run_nist_template_test(bits, (1, 1), 2)
        assert result.p_value == reference_template_p_value(bits, (1, 1), 2)


class TestSpecialFunctions:
    def test_sp800_22_cusum_worked_example(self):
        # SP 800-22 section 2.13.8: a 100-bit stream with p = 0.219194
        # (forward) and 0.114866 (backward).
        epsilon = (
            "11001001000011111101101010100010001000010110100011"
            "00001000110100110001001100011001100010100010111000"
        )
        bits = np.array([int(c) for c in epsilon], dtype=np.uint8)
        result = run_single_test("cumulative_sums", bits)
        forward, backward = result.sub_p_values
        assert forward == pytest.approx(0.219194, abs=1e-6)
        assert backward == pytest.approx(0.114866, abs=1e-6)
        assert result.p_value == backward

    def test_cusum_zero_statistic(self):
        assert _cusum_p_value(0.0, 100) == 0.0

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 6, 10])
    @pytest.mark.parametrize("x", [0.1, 1.0, 2.5, 4.0, 7.5, 20.0])
    def test_gammaincc_integer_a_closed_form(self, a, x):
        # Q(a, x) = e^-x * sum_{k<a} x^k / k! for integer a.
        closed = math.exp(-x) * sum(x**k / math.factorial(k) for k in range(a))
        assert gammaincc(a, x) == pytest.approx(closed, rel=1e-13, abs=1e-300)

    def test_gammaincc_worked_value(self):
        assert gammaincc(3, 2.5) == pytest.approx(
            math.exp(-2.5) * (1 + 2.5 + 2.5**2 / 2), rel=1e-14
        )

    def test_gammaincc_half_integer_is_chi_squared_one_dof(self):
        # Q(1/2, x) = erfc(sqrt(x)).
        for x in (0.01, 0.3, 1.0, 3.0, 12.0):
            assert gammaincc(0.5, x) == pytest.approx(math.erfc(math.sqrt(x)), rel=1e-13)

    def test_gammaincc_edges(self):
        assert gammaincc(2.5, 0.0) == 1.0
        assert gammaincc(2.5, math.inf) == 0.0
        assert gammaincc(234.0, 1e4) == 0.0
        with pytest.raises(ValueError):
            gammaincc(0.0, 1.0)

    @pytest.mark.parametrize("a", [2.5, 58.5, 234.0, 937.5])
    def test_gammaincc_is_a_survival_function(self, a):
        values = [gammaincc(a, x) for x in np.linspace(0.0, 3 * a, 200)]
        assert values[0] == 1.0
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(later <= earlier for earlier, later in zip(values, values[1:]))

    def test_normal_cdf(self):
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-15)
        assert normal_cdf(-1.0) + normal_cdf(1.0) == pytest.approx(1.0, abs=1e-16)
