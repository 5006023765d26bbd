"""Device provisioning for a simulated authentication fleet.

A *fleet* is a population of N simulated DRAM devices, each carrying one PUF
instance, provisioned purely from a fleet seed: device ``i`` is a
:class:`~repro.dram.module.DRAMModule` whose chip seeds derive from
``(fleet_seed, i)``, so **any device is reconstructible from its identifier
alone** -- no PUF state is ever stored or shipped between processes.  That is
what lets the engine partition authentication traffic by request range
across a pool, each worker enrolling the goldens it touches, and still
reproduce a serial run bit-for-bit.

Per-device randomness is addressed through a :class:`~repro.utils.rng.
StreamTree` rooted at the fleet seed:

* ``("fleet", "challenge", device_id, k)`` -- the address of the device's
  ``k``-th enrolled challenge;
* ``("fleet", "enroll", device_id, k)`` -- the noise stream of the golden
  (enrollment-time) evaluation of that challenge;
* ``("fleet", "traffic", index)`` -- everything request ``index`` of a
  traffic stream draws (see :mod:`repro.fleet.traffic`).

Fleet devices use a deliberately small chip geometry (one chip, 4 banks x 64
rows by default): the authentication workload scales in *population size and
request volume*, not in per-device capacity, and a small row space keeps a
10,000-device fleet cheap enough to benchmark.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.dram.chip import VENDOR_PROFILES
from repro.dram.geometry import DRAMGeometry
from repro.dram.module import DRAMModule, SegmentAddress
from repro.puf.base import Challenge, DRAMPUF
from repro.puf.codic_puf import CODICSigPUF
from repro.puf.latency_puf import DRAMLatencyPUF
from repro.puf.prelat_puf import PreLatPUF
from repro.utils.rng import StreamTree, derive_seed

#: PUF classes a fleet can be provisioned with, keyed by the same names the
#: figure experiments use (:data:`repro.experiments.puf_experiments.
#: PUF_FACTORIES` -- duplicated here so the fleet layer never imports the
#: experiment layer).
FLEET_PUF_FACTORIES: dict[str, Callable[[DRAMModule], DRAMPUF]] = {
    "DRAM Latency PUF": lambda module: DRAMLatencyPUF(module),
    "PreLatPUF": lambda module: PreLatPUF(module),
    "CODIC-sig PUF": lambda module: CODICSigPUF(module),
}

#: Vendors are cycled across device identifiers so every fleet mixes the
#: paper's three vendor profiles.
_VENDOR_CYCLE = ("A", "B", "C")


@dataclass(frozen=True)
class FleetConfig:
    """Deterministic description of one device fleet.

    The config is the *complete* identity of the fleet: two
    :class:`DeviceFleet` instances built from equal configs produce
    bit-identical devices, challenges and golden responses, in any process.
    """

    seed: int = 4242
    devices: int = 64
    puf: str = "CODIC-sig PUF"
    challenges_per_device: int = 4
    banks: int = 4
    rows_per_bank: int = 64
    row_bits: int = 8192
    chips_per_device: int = 1
    enroll_temperature_c: float = 30.0

    def __post_init__(self) -> None:
        for name in ("seed", "devices", "challenges_per_device"):
            value = getattr(self, name)
            # bool is an int subclass: refuse ``True`` rather than read it as 1.
            if type(value) is not int:
                raise TypeError(f"{name} must be an int, got {value!r}")
        if self.devices <= 0:
            raise ValueError(f"devices must be positive, got {self.devices}")
        if self.challenges_per_device <= 0:
            raise ValueError(
                "challenges_per_device must be positive, got "
                f"{self.challenges_per_device}"
            )
        if self.puf not in FLEET_PUF_FACTORIES:
            raise ValueError(
                f"unknown PUF {self.puf!r}; known PUFs: "
                f"{sorted(FLEET_PUF_FACTORIES)}"
            )
        if self.chips_per_device <= 0:
            raise ValueError(
                f"chips_per_device must be positive, got {self.chips_per_device}"
            )
        # banks/rows_per_bank/row_bits are validated by DRAMGeometry, but a
        # config should fail at construction, not at first device build.
        self.geometry()

    def geometry(self) -> DRAMGeometry:
        """Chip geometry shared by every device of the fleet."""
        return DRAMGeometry(
            banks=self.banks,
            rows_per_bank=self.rows_per_bank,
            row_bits=self.row_bits,
            device_width=8,
        )

    @property
    def segment_bytes(self) -> int:
        """Size of one challenge segment (= one device row) in bytes."""
        return self.row_bits * self.chips_per_device // 8


@dataclass(frozen=True)
class FleetDevice:
    """One provisioned device: a module plus its PUF instance."""

    device_id: int
    module: DRAMModule
    puf: DRAMPUF

    def evaluate(
        self,
        challenge: Challenge,
        temperature_c: float,
        rng: np.random.Generator,
    ) -> Any:
        """Evaluate the device's PUF on one challenge."""
        return self.puf.evaluate(challenge, temperature_c, rng=rng)


class DeviceFleet:
    """Lazily provisioned population of PUF devices.

    Devices are built on demand from ``(config.seed, device_id)`` and kept in
    a bounded LRU memo: eviction only trades recomputation for memory, never
    values -- a rebuilt device is the same device.
    """

    def __init__(self, config: FleetConfig, *, max_cached_devices: int = 512) -> None:
        if max_cached_devices <= 0:
            raise ValueError(
                f"max_cached_devices must be positive, got {max_cached_devices}"
            )
        self.config = config
        self.max_cached_devices = max_cached_devices
        self._tree = StreamTree(config.seed).child("fleet")
        self._geometry = config.geometry()
        self._devices: "OrderedDict[int, FleetDevice]" = OrderedDict()
        self._challenges: "OrderedDict[tuple[int, int], Challenge]" = OrderedDict()

    def __len__(self) -> int:
        return self.config.devices

    # ------------------------------------------------------------------
    # Provisioning
    # ------------------------------------------------------------------
    def _check_device_id(self, device_id: int) -> None:
        if not 0 <= device_id < self.config.devices:
            raise ValueError(
                f"device_id {device_id} out of range for a "
                f"{self.config.devices}-device fleet"
            )

    def device(self, device_id: int) -> FleetDevice:
        """The fleet device with identifier ``device_id`` (LRU-memoized)."""
        self._check_device_id(device_id)
        cached = self._devices.get(device_id)
        if cached is not None:
            self._devices.move_to_end(device_id)
            return cached
        device = self._build_device(device_id)
        self._devices[device_id] = device
        while len(self._devices) > self.max_cached_devices:
            self._devices.popitem(last=False)
        return device

    def _build_device(self, device_id: int) -> FleetDevice:
        config = self.config
        module = DRAMModule(
            module_id=f"D{device_id}",
            chip_geometry=self._geometry,
            chips_per_rank=config.chips_per_device,
            ranks=1,
            vendor=VENDOR_PROFILES[_VENDOR_CYCLE[device_id % len(_VENDOR_CYCLE)]],
            voltage=1.35,
            data_rate_mt_s=1600,
            seed=derive_seed(config.seed, "fleet", "device", device_id),
        )
        puf = FLEET_PUF_FACTORIES[config.puf](module)
        return FleetDevice(device_id=device_id, module=module, puf=puf)

    # ------------------------------------------------------------------
    # Deterministic per-device streams
    # ------------------------------------------------------------------
    #: Bound of the challenge memo: challenges are tiny (an address plus a
    #: size), so the memo mostly trades repeated stream derivations for a
    #: dict lookup on the traffic hot path.
    MAX_CACHED_CHALLENGES = 4096

    def challenge(self, device_id: int, challenge_index: int) -> Challenge:
        """The device's ``challenge_index``-th enrolled challenge.

        The address is drawn from the challenge's own stream, so it depends
        only on ``(seed, device_id, challenge_index)`` -- never on which
        other challenges (or devices) were materialized first.  Challenges
        are therefore safe to memoize (LRU-bounded): a re-derived challenge
        is the same challenge.
        """
        self._check_device_id(device_id)
        if not 0 <= challenge_index < self.config.challenges_per_device:
            raise ValueError(
                f"challenge_index {challenge_index} out of range for "
                f"{self.config.challenges_per_device} challenges per device"
            )
        key = (device_id, challenge_index)
        cached = self._challenges.get(key)
        if cached is not None:
            self._challenges.move_to_end(key)
            return cached
        rng = self._tree.rng("challenge", device_id, challenge_index)
        segment = SegmentAddress(
            bank=int(rng.integers(0, self.config.banks)),
            row=int(rng.integers(0, self.config.rows_per_bank)),
        )
        challenge = Challenge(segment=segment, size_bytes=self.config.segment_bytes)
        self._challenges[key] = challenge
        while len(self._challenges) > self.MAX_CACHED_CHALLENGES:
            self._challenges.popitem(last=False)
        return challenge

    def enrollment_rng(self, device_id: int, challenge_index: int) -> np.random.Generator:
        """Noise stream of the golden evaluation of one (device, challenge)."""
        return self._tree.rng("enroll", device_id, challenge_index)

    def traffic_rng(self, request_index: int) -> np.random.Generator:
        """The stream that authentication request ``request_index`` consumes."""
        return self._tree.rng("traffic", request_index)
