"""repro.fleet -- device-fleet enrollment and authentication at scale.

The fleet subsystem turns the paper's Section 6.1.1 single-device
authentication protocol into a population-scale workload:

* :mod:`repro.fleet.devices` -- :class:`DeviceFleet` provisions N simulated
  PUF devices purely from ``(fleet_seed, device_id)`` (no stored PUF state),
  with per-device challenge and enrollment streams;
* :mod:`repro.fleet.verifier` -- :class:`FleetVerifier` enrolls each golden
  response on first use into the array-native :class:`GoldenStore` (one
  concatenated position buffer plus a slot table);
* :mod:`repro.fleet.traffic` -- replayable mixed genuine/impostor request
  streams (:func:`authenticate_block`) with per-request temperature jitter
  and aging drift, summarized into FAR/FRR curves by
  :class:`TrafficSummary`.

Scale comes from the engine: :class:`repro.engine.jobs.FleetTrafficJob`
shards request blocks across the worker pool, bit-identical to a serial
replay, and the ``fleet-roc``/``fleet-aging`` registry experiments plus the
``fleet`` CLI subcommand make the workload first-class.
"""

from repro.fleet.devices import (
    FLEET_PUF_FACTORIES,
    DeviceFleet,
    FleetConfig,
    FleetDevice,
)
from repro.fleet.traffic import (
    MAX_IMPOSTOR_REDRAWS,
    TrafficConfig,
    TrafficSummary,
    authenticate_block,
    authenticate_block_scalar,
    authenticate_request,
)
from repro.fleet.verifier import FleetVerifier, GoldenStore

__all__ = [
    "FLEET_PUF_FACTORIES",
    "MAX_IMPOSTOR_REDRAWS",
    "DeviceFleet",
    "FleetConfig",
    "FleetDevice",
    "FleetVerifier",
    "GoldenStore",
    "TrafficConfig",
    "TrafficSummary",
    "authenticate_block",
    "authenticate_block_scalar",
    "authenticate_request",
]
