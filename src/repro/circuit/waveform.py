"""Waveform containers: control-signal drive waveforms and recorded traces.

``ControlWaveforms`` is the interface between the CODIC substrate (which
describes *when* each internal signal toggles) and the circuit simulator
(which needs to know each signal's level at an arbitrary time).  ``Waveform``
and ``WaveformSet`` hold the recorded analog traces that reproduce the
paper's Figures 2b, 3a, 3b and 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

#: Names of the four internal DRAM signals CODIC controls.
CONTROL_SIGNALS = ("wl", "EQ", "sense_p", "sense_n")


@dataclass(frozen=True)
class ControlWaveforms:
    """Digital drive waveforms for the four internal control signals.

    Each signal is described by a sorted tuple of ``(time_ns, level)``
    transitions; the signal holds its last level after the final transition
    and its initial level (0) before the first one.
    """

    transitions: Mapping[str, tuple[tuple[float, int], ...]]
    window_ns: float = 25.0

    @classmethod
    def from_pulses(
        cls,
        pulses: Mapping[str, tuple[float, float] | None],
        window_ns: float = 25.0,
    ) -> "ControlWaveforms":
        """Build waveforms from ``signal -> (assert_time, deassert_time)`` pulses.

        Signals mapped to ``None`` (or absent) stay de-asserted for the whole
        window, matching the paper's Table 1 notation where a command simply
        does not touch some signals.
        """
        transitions: dict[str, tuple[tuple[float, int], ...]] = {}
        for signal in CONTROL_SIGNALS:
            pulse = pulses.get(signal)
            if pulse is None:
                transitions[signal] = ()
                continue
            start, end = pulse
            if not 0.0 <= start < end:
                raise ValueError(
                    f"signal {signal!r} pulse must satisfy 0 <= start < end, "
                    f"got ({start}, {end})"
                )
            if end > window_ns:
                raise ValueError(
                    f"signal {signal!r} pulse end {end} exceeds window {window_ns}"
                )
            transitions[signal] = ((float(start), 1), (float(end), 0))
        return cls(transitions=transitions, window_ns=window_ns)

    def level(self, signal: str, time_ns: float) -> int:
        """Level (0/1) of ``signal`` at ``time_ns``."""
        if signal not in self.transitions:
            raise KeyError(f"unknown control signal {signal!r}")
        level = 0
        for transition_time, transition_level in self.transitions[signal]:
            if time_ns >= transition_time:
                level = transition_level
            else:
                break
        return level

    def active_signals(self) -> tuple[str, ...]:
        """Signals that are asserted at least once during the window."""
        return tuple(
            signal
            for signal in CONTROL_SIGNALS
            if any(level == 1 for _, level in self.transitions.get(signal, ()))
        )


@dataclass
class Waveform:
    """A recorded analog trace: a named sequence of (time, value) samples."""

    name: str
    times_ns: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def append(self, time_ns: float, value: float) -> None:
        """Record one sample."""
        self.times_ns.append(time_ns)
        self.values.append(value)

    def value_at(self, time_ns: float) -> float:
        """Value of the most recent sample at or before ``time_ns``."""
        if not self.times_ns:
            raise ValueError(f"waveform {self.name!r} has no samples")
        best = self.values[0]
        for t, v in zip(self.times_ns, self.values):
            if t <= time_ns:
                best = v
            else:
                break
        return best

    def final_value(self) -> float:
        """Value of the last recorded sample."""
        if not self.values:
            raise ValueError(f"waveform {self.name!r} has no samples")
        return self.values[-1]

    def crossing_time(self, threshold: float, rising: bool = True) -> float | None:
        """First time the trace crosses ``threshold`` in the given direction."""
        previous = None
        for t, v in zip(self.times_ns, self.values):
            if previous is not None:
                if rising and previous < threshold <= v:
                    return t
                if not rising and previous > threshold >= v:
                    return t
            previous = v
        return None


@dataclass
class WaveformSet:
    """A collection of named waveforms recorded during one simulation."""

    waveforms: dict[str, Waveform] = field(default_factory=dict)

    def track(self, names: Iterable[str]) -> None:
        """Start tracking the given trace names."""
        for name in names:
            self.waveforms.setdefault(name, Waveform(name=name))

    def record(self, time_ns: float, samples: Mapping[str, float]) -> None:
        """Record one sample per tracked trace."""
        for name, value in samples.items():
            self.waveforms.setdefault(name, Waveform(name=name)).append(time_ns, value)

    def __getitem__(self, name: str) -> Waveform:
        return self.waveforms[name]

    def __contains__(self, name: str) -> bool:
        return name in self.waveforms

    def names(self) -> Sequence[str]:
        """Names of all recorded traces."""
        return tuple(self.waveforms)
