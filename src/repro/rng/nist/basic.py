"""Frequency-family NIST tests.

Implements: monobit, frequency within block, runs, longest run of ones in a
block, cumulative sums, binary matrix rank and the discrete Fourier transform
(spectral) test.
"""

from __future__ import annotations

import math

import numpy as np

from repro.rng.nist.result import NISTTestResult
from repro.rng.nist.special import gammaincc, normal_cdf


def _as_bits(bits: np.ndarray) -> np.ndarray:
    bits = np.asarray(bits).astype(np.int8)
    if bits.ndim != 1:
        raise ValueError("bit stream must be one-dimensional")
    if bits.size == 0:
        raise ValueError("bit stream must not be empty")
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bit stream must contain only 0/1 values")
    return bits


def monobit(bits: np.ndarray) -> NISTTestResult:
    """Frequency (monobit) test: balance of ones and zeros."""
    bits = _as_bits(bits)
    n = bits.size
    s = np.sum(2 * bits - 1)
    s_obs = abs(s) / math.sqrt(n)
    p_value = math.erfc(s_obs / math.sqrt(2.0))
    return NISTTestResult(name="monobit", p_value=p_value)


def frequency_within_block(bits: np.ndarray, block_size: int = 128) -> NISTTestResult:
    """Frequency within a block: balance of ones inside M-bit blocks."""
    bits = _as_bits(bits)
    n = bits.size
    if n < block_size:
        return NISTTestResult(
            name="frequency_within_block", p_value=0.0, applicable=False
        )
    num_blocks = n // block_size
    blocks = bits[: num_blocks * block_size].reshape(num_blocks, block_size)
    proportions = blocks.mean(axis=1)
    chi_squared = 4.0 * block_size * float(np.sum((proportions - 0.5) ** 2))
    p_value = float(gammaincc(num_blocks / 2.0, chi_squared / 2.0))
    return NISTTestResult(name="frequency_within_block", p_value=p_value)


def runs(bits: np.ndarray) -> NISTTestResult:
    """Runs test: number of uninterrupted runs of identical bits."""
    bits = _as_bits(bits)
    n = bits.size
    pi = float(bits.mean())
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        # Prerequisite (monobit) fails decisively: p-value is 0 by definition.
        return NISTTestResult(name="runs", p_value=0.0)
    v_obs = 1 + int(np.count_nonzero(bits[1:] != bits[:-1]))
    numerator = abs(v_obs - 2.0 * n * pi * (1.0 - pi))
    denominator = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    p_value = math.erfc(numerator / denominator)
    return NISTTestResult(name="runs", p_value=p_value)


#: Longest-run test parameterizations: (min n, block size M, categories, pi).
_LONGEST_RUN_CONFIGS = (
    (128, 8, (1, 2, 3, 4), (0.2148, 0.3672, 0.2305, 0.1875)),
    (6272, 128, (4, 5, 6, 7, 8, 9),
     (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (750000, 10000, (10, 11, 12, 13, 14, 15, 16),
     (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
)


def longest_run_ones_in_a_block(bits: np.ndarray) -> NISTTestResult:
    """Longest run of ones within M-bit blocks."""
    bits = _as_bits(bits)
    n = bits.size
    if n < 128:
        return NISTTestResult(
            name="longest_run_ones_in_a_block", p_value=0.0, applicable=False
        )
    config = _LONGEST_RUN_CONFIGS[0]
    for candidate in _LONGEST_RUN_CONFIGS:
        if n >= candidate[0]:
            config = candidate
    _, block_size, categories, pi = config
    num_blocks = n // block_size
    blocks = bits[: num_blocks * block_size].reshape(num_blocks, block_size)

    counts = np.zeros(len(categories), dtype=np.int64)
    for block in blocks:
        longest = _longest_run(block)
        index = int(np.searchsorted(categories, longest))
        index = min(index, len(categories) - 1)
        counts[index] += 1

    expected = num_blocks * np.asarray(pi)
    chi_squared = float(np.sum((counts - expected) ** 2 / expected))
    degrees = len(categories) - 1
    p_value = float(gammaincc(degrees / 2.0, chi_squared / 2.0))
    return NISTTestResult(name="longest_run_ones_in_a_block", p_value=p_value)


def _longest_run(block: np.ndarray) -> int:
    """Length of the longest run of ones in one block."""
    longest = 0
    current = 0
    for bit in block:
        if bit:
            current += 1
            longest = max(longest, current)
        else:
            current = 0
    return longest


def cumulative_sums(bits: np.ndarray) -> NISTTestResult:
    """Cumulative sums (cusum) test, forward and backward modes."""
    bits = _as_bits(bits)
    n = bits.size
    adjusted = 2 * bits - 1
    p_values = []
    for mode in ("forward", "backward"):
        sequence = adjusted if mode == "forward" else adjusted[::-1]
        partial = np.cumsum(sequence)
        z = float(np.max(np.abs(partial)))
        p_values.append(_cusum_p_value(z, n))
    p_value = min(p_values)
    return NISTTestResult(
        name="cumulative_sums", p_value=p_value, sub_p_values=tuple(p_values)
    )


def _cusum_p_value(z: float, n: int) -> float:
    """P-value of the cusum statistic (SP 800-22 section 2.13.4)."""
    if z == 0.0:
        return 0.0
    total = 1.0
    k_start = int((-n / z + 1) // 4)
    k_end = int((n / z - 1) // 4)
    for k in range(k_start, k_end + 1):
        total -= normal_cdf((4 * k + 1) * z / math.sqrt(n)) - normal_cdf(
            (4 * k - 1) * z / math.sqrt(n)
        )
    k_start = int((-n / z - 3) // 4)
    for k in range(k_start, k_end + 1):
        total += normal_cdf((4 * k + 3) * z / math.sqrt(n)) - normal_cdf(
            (4 * k + 1) * z / math.sqrt(n)
        )
    return float(min(max(total, 0.0), 1.0))


def binary_matrix_rank(bits: np.ndarray, rows: int = 32, cols: int = 32) -> NISTTestResult:
    """Binary matrix rank test over GF(2)."""
    bits = _as_bits(bits)
    n = bits.size
    matrix_bits = rows * cols
    num_matrices = n // matrix_bits
    if num_matrices < 38:
        # SP 800-22 requires at least 38 matrices for the chi-squared
        # approximation to hold.
        return NISTTestResult(name="binary_matrix_rank", p_value=0.0, applicable=False)

    full_rank = 0
    full_minus_one = 0
    for index in range(num_matrices):
        block = bits[index * matrix_bits : (index + 1) * matrix_bits]
        rank = _gf2_rank(block.reshape(rows, cols).copy())
        if rank == rows:
            full_rank += 1
        elif rank == rows - 1:
            full_minus_one += 1
    remainder = num_matrices - full_rank - full_minus_one

    p_full = 0.2888
    p_minus_one = 0.5776
    p_rest = 0.1336
    chi_squared = (
        (full_rank - p_full * num_matrices) ** 2 / (p_full * num_matrices)
        + (full_minus_one - p_minus_one * num_matrices) ** 2
        / (p_minus_one * num_matrices)
        + (remainder - p_rest * num_matrices) ** 2 / (p_rest * num_matrices)
    )
    p_value = float(math.exp(-chi_squared / 2.0))
    return NISTTestResult(name="binary_matrix_rank", p_value=p_value)


def _gf2_rank(matrix: np.ndarray) -> int:
    """Rank of a 0/1 matrix over GF(2) via Gaussian elimination."""
    matrix = matrix.astype(np.uint8)
    rows, cols = matrix.shape
    rank = 0
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        pivot_candidates = np.nonzero(matrix[pivot_row:, col])[0]
        if pivot_candidates.size == 0:
            continue
        pivot = pivot_candidates[0] + pivot_row
        if pivot != pivot_row:
            matrix[[pivot_row, pivot]] = matrix[[pivot, pivot_row]]
        eliminate = np.nonzero(matrix[:, col])[0]
        for row in eliminate:
            if row != pivot_row:
                matrix[row] ^= matrix[pivot_row]
        pivot_row += 1
        rank += 1
    return rank


def dft(bits: np.ndarray) -> NISTTestResult:
    """Discrete Fourier transform (spectral) test."""
    bits = _as_bits(bits)
    n = bits.size
    adjusted = 2.0 * bits - 1.0
    spectrum = np.abs(np.fft.rfft(adjusted))[: n // 2]
    threshold = math.sqrt(math.log(1.0 / 0.05) * n)
    expected_below = 0.95 * n / 2.0
    observed_below = float(np.count_nonzero(spectrum < threshold))
    d = (observed_below - expected_below) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    p_value = math.erfc(abs(d) / math.sqrt(2.0))
    return NISTTestResult(name="dft", p_value=p_value)
