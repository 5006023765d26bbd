"""Linear complexity and random excursion NIST tests."""

from __future__ import annotations

import math

import numpy as np

from repro.rng.nist.basic import _as_bits
from repro.rng.nist.result import NISTTestResult
from repro.rng.nist.special import gammaincc

#: Category probabilities of the linear complexity test (SP 800-22, 2.10.4).
_LINEAR_COMPLEXITY_PI = (0.010417, 0.03125, 0.125, 0.5, 0.25, 0.0625, 0.020833)


def _berlekamp_massey(block: np.ndarray) -> int:
    """Linear complexity of a bit block via Berlekamp-Massey.

    Polynomials and the sequence are packed into Python integers.  Bit ``i``
    of ``c``/``b`` is coefficient ``i`` of the connection polynomials, and
    the sequence is held reversed (bit ``j`` of ``window`` is
    ``s[index - j]``), so the discrepancy
    ``s[index] + sum_{i=1..l} c_i * s[index - i]`` is the parity of
    ``c & window`` over bits ``0..l``.
    """
    c = 1  # C(x) = 1
    b = 1  # B(x) = 1
    l = 0
    m = -1
    window = 0
    for index, bit in enumerate(block.tolist()):
        window = (window << 1) | bit
        if (c & ((2 << l) - 1) & window).bit_count() & 1:
            temp = c
            c ^= b << (index - m)
            if l <= index // 2:
                l = index + 1 - l
                m = index
                b = temp
    return l


def linear_complexity(bits: np.ndarray, block_size: int = 500) -> NISTTestResult:
    """Linear complexity test over ``block_size``-bit blocks."""
    bits = _as_bits(bits)
    n = bits.size
    num_blocks = n // block_size
    if num_blocks < 5:
        return NISTTestResult(name="linear_complexity", p_value=0.0, applicable=False)

    mean = (
        block_size / 2.0
        + (9.0 + (-1.0) ** (block_size + 1)) / 36.0
        - (block_size / 3.0 + 2.0 / 9.0) / 2.0 ** block_size
    )
    counts = np.zeros(7, dtype=np.int64)
    sign = 1.0 if block_size % 2 == 0 else -1.0
    for index in range(num_blocks):
        block = bits[index * block_size : (index + 1) * block_size]
        complexity = _berlekamp_massey(block)
        t = sign * (complexity - mean) + 2.0 / 9.0
        if t <= -2.5:
            counts[0] += 1
        elif t <= -1.5:
            counts[1] += 1
        elif t <= -0.5:
            counts[2] += 1
        elif t <= 0.5:
            counts[3] += 1
        elif t <= 1.5:
            counts[4] += 1
        elif t <= 2.5:
            counts[5] += 1
        else:
            counts[6] += 1

    expected = num_blocks * np.asarray(_LINEAR_COMPLEXITY_PI)
    chi_squared = float(np.sum((counts - expected) ** 2 / expected))
    p_value = float(gammaincc(6.0 / 2.0, chi_squared / 2.0))
    return NISTTestResult(name="linear_complexity", p_value=p_value)


def _excursion_cycles(bits: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Random-walk cycles (zero-to-zero excursions) and the full walk."""
    walk = np.cumsum(2 * bits.astype(np.int64) - 1)
    padded = np.concatenate([[0], walk, [0]])
    zero_positions = np.flatnonzero(padded == 0)
    cycles = []
    for start, end in zip(zero_positions[:-1], zero_positions[1:]):
        cycles.append(padded[start : end + 1])
    return cycles, padded


def _excursion_pi(k: int, x: int) -> float:
    """P(exactly k visits to state x within one cycle) (SP 800-22, 2.14.4)."""
    ax = abs(x)
    if k == 0:
        return 1.0 - 1.0 / (2.0 * ax)
    return (1.0 / (4.0 * ax * ax)) * (1.0 - 1.0 / (2.0 * ax)) ** (k - 1)


def random_excursion(bits: np.ndarray) -> NISTTestResult:
    """Random excursions test (states -4..-1, 1..4)."""
    bits = _as_bits(bits)
    cycles, _ = _excursion_cycles(bits)
    num_cycles = len(cycles)
    if num_cycles < 100:
        # SP 800-22 requires J >= 500 for the approximation; we relax slightly
        # but still refuse to run on streams with very few cycles.
        return NISTTestResult(name="random_excursion", p_value=0.0, applicable=False)

    states = [-4, -3, -2, -1, 1, 2, 3, 4]
    p_values = []
    for state in states:
        visit_counts = np.zeros(6, dtype=np.int64)
        for cycle in cycles:
            visits = int(np.count_nonzero(cycle == state))
            visit_counts[min(visits, 5)] += 1
        chi_squared = 0.0
        for k in range(6):
            if k < 5:
                pi = _excursion_pi(k, state)
            else:
                pi = 1.0 - sum(_excursion_pi(j, state) for j in range(5))
            expected = num_cycles * pi
            chi_squared += (visit_counts[k] - expected) ** 2 / expected
        p_values.append(float(gammaincc(5.0 / 2.0, chi_squared / 2.0)))

    return NISTTestResult(
        name="random_excursion", p_value=min(p_values), sub_p_values=tuple(p_values)
    )


def random_excursion_variant(bits: np.ndarray) -> NISTTestResult:
    """Random excursions variant test (states -9..-1, 1..9)."""
    bits = _as_bits(bits)
    cycles, padded = _excursion_cycles(bits)
    num_cycles = len(cycles)
    if num_cycles < 100:
        return NISTTestResult(
            name="random_excursion_variant", p_value=0.0, applicable=False
        )
    p_values = []
    for state in list(range(-9, 0)) + list(range(1, 10)):
        visits = int(np.count_nonzero(padded == state))
        denominator = math.sqrt(2.0 * num_cycles * (4.0 * abs(state) - 2.0))
        p_values.append(math.erfc(abs(visits - num_cycles) / denominator))
    return NISTTestResult(
        name="random_excursion_variant",
        p_value=min(p_values),
        sub_p_values=tuple(p_values),
    )
