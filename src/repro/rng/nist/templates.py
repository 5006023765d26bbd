"""Template-matching and pattern-entropy NIST tests.

Implements: non-overlapping template matching, overlapping template matching,
Maurer's universal statistical test, serial test and approximate entropy.
"""

from __future__ import annotations

import math

import numpy as np

from repro.rng.nist.basic import _as_bits
from repro.rng.nist.result import NISTTestResult
from repro.rng.nist.special import gammaincc

#: Default non-overlapping template (SP 800-22 uses m = 9 aperiodic templates;
#: this is the canonical example template).
DEFAULT_NONOVERLAPPING_TEMPLATE = (0, 0, 0, 0, 0, 0, 0, 0, 1)

#: Default overlapping template: m = 9 consecutive ones.
DEFAULT_OVERLAPPING_TEMPLATE_LENGTH = 9


def non_overlapping_template_matching(
    bits: np.ndarray,
    template: tuple[int, ...] = DEFAULT_NONOVERLAPPING_TEMPLATE,
    num_blocks: int = 8,
) -> NISTTestResult:
    """Non-overlapping template matching test."""
    bits = _as_bits(bits)
    n = bits.size
    m = len(template)
    block_size = n // num_blocks
    if block_size < m * 10:
        return NISTTestResult(
            name="non_overlapping_template_matching", p_value=0.0, applicable=False
        )
    template_arr = np.asarray(template, dtype=np.int8)

    counts = []
    for index in range(num_blocks):
        block = bits[index * block_size : (index + 1) * block_size]
        windows = np.lib.stride_tricks.sliding_window_view(block, m)
        matches = np.flatnonzero((windows == template_arr).all(axis=1))
        # Scan the matches left to right; a counted match hides the m - 1
        # windows that overlap it.
        count = 0
        next_free = 0
        for position in matches.tolist():
            if position >= next_free:
                count += 1
                next_free = position + m
        counts.append(count)

    mean = (block_size - m + 1) / (2.0 ** m)
    variance = block_size * (1.0 / 2.0 ** m - (2.0 * m - 1.0) / 2.0 ** (2 * m))
    chi_squared = float(np.sum((np.asarray(counts) - mean) ** 2 / variance))
    p_value = float(gammaincc(num_blocks / 2.0, chi_squared / 2.0))
    return NISTTestResult(name="non_overlapping_template_matching", p_value=p_value)


#: Category probabilities of the overlapping template test (K = 5, m = 9,
#: M = 1032), from SP 800-22 section 2.8.4.
_OVERLAPPING_PI = (0.364091, 0.185659, 0.139381, 0.100571, 0.070432, 0.139865)


def overlapping_template_matching(
    bits: np.ndarray,
    template_length: int = DEFAULT_OVERLAPPING_TEMPLATE_LENGTH,
    block_size: int = 1032,
) -> NISTTestResult:
    """Overlapping template matching test (template of all ones)."""
    bits = _as_bits(bits)
    n = bits.size
    num_blocks = n // block_size
    if num_blocks < 5:
        return NISTTestResult(
            name="overlapping_template_matching", p_value=0.0, applicable=False
        )
    categories = len(_OVERLAPPING_PI) - 1
    counts = np.zeros(len(_OVERLAPPING_PI), dtype=np.int64)
    for index in range(num_blocks):
        block = bits[index * block_size : (index + 1) * block_size]
        # Number of (overlapping) windows consisting entirely of ones.
        windows = np.lib.stride_tricks.sliding_window_view(block, template_length)
        matches = int(np.count_nonzero(windows.sum(axis=1) == template_length))
        counts[min(matches, categories)] += 1

    expected = num_blocks * np.asarray(_OVERLAPPING_PI)
    chi_squared = float(np.sum((counts - expected) ** 2 / expected))
    p_value = float(gammaincc(categories / 2.0, chi_squared / 2.0))
    return NISTTestResult(name="overlapping_template_matching", p_value=p_value)


#: Maurer's universal test parameters: L -> (expected value, variance),
#: from SP 800-22 section 2.9.4.
_MAURER_EXPECTED = {
    6: (5.2177052, 2.954),
    7: (6.1962507, 3.125),
    8: (7.1836656, 3.238),
    9: (8.1764248, 3.311),
    10: (9.1723243, 3.356),
    11: (10.170032, 3.384),
    12: (11.168765, 3.401),
    13: (12.168070, 3.410),
    14: (13.167693, 3.416),
    15: (14.167488, 3.419),
    16: (15.167379, 3.421),
}


def maurers_universal(bits: np.ndarray) -> NISTTestResult:
    """Maurer's "universal statistical" test."""
    bits = _as_bits(bits)
    n = bits.size

    # Choose the block length L from the stream size (SP 800-22 table 2-5):
    # n must be at least 1010 * 2^L * L-ish; pick the largest L that fits.
    length = 0
    for candidate in range(6, 17):
        if n >= (candidate + 1010) * (2 ** candidate) * candidate // candidate and \
           n >= 1010 * (2 ** candidate) + 1000 * candidate:
            length = candidate
    if length < 6:
        return NISTTestResult(name="maurers_universal", p_value=0.0, applicable=False)

    q = 10 * (2 ** length)
    total_blocks = n // length
    k = total_blocks - q
    if k <= 0:
        return NISTTestResult(name="maurers_universal", p_value=0.0, applicable=False)

    # Decode each L-bit block into an integer.
    usable = bits[: total_blocks * length].reshape(total_blocks, length)
    powers = 1 << np.arange(length - 1, -1, -1)
    values = usable @ powers

    table = np.zeros(2 ** length, dtype=np.int64)
    for index in range(q):
        table[values[index]] = index + 1

    total = 0.0
    for index in range(q, total_blocks):
        value = values[index]
        total += math.log2((index + 1) - table[value])
        table[value] = index + 1
    fn = total / k

    expected, variance = _MAURER_EXPECTED[length]
    c = 0.7 - 0.8 / length + (4 + 32 / length) * (k ** (-3 / length)) / 15
    sigma = c * math.sqrt(variance / k)
    p_value = math.erfc(abs(fn - expected) / (math.sqrt(2.0) * sigma))
    return NISTTestResult(name="maurers_universal", p_value=p_value)


def _pattern_frequencies(bits: np.ndarray, m: int) -> np.ndarray:
    """Frequencies of all overlapping m-bit patterns with wrap-around."""
    if m == 0:
        return np.asarray([bits.size], dtype=np.float64)
    extended = np.concatenate([bits, bits[: m - 1]])
    windows = np.lib.stride_tricks.sliding_window_view(extended, m)[: bits.size]
    powers = 1 << np.arange(m - 1, -1, -1)
    values = windows @ powers
    return np.bincount(values, minlength=2 ** m).astype(np.float64)


def _psi_squared(bits: np.ndarray, m: int) -> float:
    """The psi^2 statistic of the serial test."""
    if m <= 0:
        return 0.0
    n = bits.size
    counts = _pattern_frequencies(bits, m)
    return float((2.0 ** m) / n * np.sum(counts ** 2) - n)


def serial(bits: np.ndarray, m: int = 5) -> NISTTestResult:
    """Serial test: uniformity of overlapping m-bit patterns."""
    bits = _as_bits(bits)
    n = bits.size
    if m < 2 or 2 ** (m + 1) > n:
        return NISTTestResult(name="serial", p_value=0.0, applicable=False)
    psi_m = _psi_squared(bits, m)
    psi_m1 = _psi_squared(bits, m - 1)
    psi_m2 = _psi_squared(bits, m - 2)
    delta1 = psi_m - psi_m1
    delta2 = psi_m - 2.0 * psi_m1 + psi_m2
    p1 = float(gammaincc(2.0 ** (m - 2), delta1 / 2.0))
    p2 = float(gammaincc(2.0 ** (m - 3), delta2 / 2.0))
    return NISTTestResult(
        name="serial", p_value=min(p1, p2), sub_p_values=(p1, p2)
    )


def approximate_entropy(bits: np.ndarray, m: int = 4) -> NISTTestResult:
    """Approximate entropy test: regularity of overlapping patterns."""
    bits = _as_bits(bits)
    n = bits.size
    if 2 ** (m + 1) > n:
        return NISTTestResult(name="approximate_entropy", p_value=0.0, applicable=False)

    def phi(block_length: int) -> float:
        if block_length == 0:
            return 0.0
        counts = _pattern_frequencies(bits, block_length)
        proportions = counts[counts > 0] / n
        return float(np.sum(proportions * np.log(proportions)))

    ap_en = phi(m) - phi(m + 1)
    chi_squared = 2.0 * n * (math.log(2.0) - ap_en)
    p_value = float(gammaincc(2.0 ** (m - 1), chi_squared / 2.0))
    return NISTTestResult(name="approximate_entropy", p_value=p_value)
