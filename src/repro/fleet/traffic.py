"""Authentication traffic: replayable request streams over a device fleet.

A *traffic stream* is a deterministic sequence of authentication requests
against a fleet.  Request ``i`` draws everything it needs -- which device is
being authenticated, which of its enrolled challenges is presented, whether
the presenter is an impostor (a different device replaying the challenge),
the request's temperature jitter and its aging drift -- from the dedicated
stream ``("fleet", "traffic", i)`` of the fleet's
:class:`~repro.utils.rng.StreamTree`.  Exactly like the figure pair kernels,
that per-request addressing makes any contiguous block ``[start, stop)``
evaluable in isolation: concatenating block results in index order is
bit-identical to a serial replay, for every partition and worker count.

Each request records the Jaccard similarity between the presented response
and the verifier's golden response (1.0 if and only if they match exactly).
FAR/FRR then fall out of the recorded similarities *for every acceptance
threshold at once*: ``FRR(t)`` is the fraction of genuine similarities below
``t`` and ``FAR(t)`` the fraction of impostor similarities at or above
``t`` -- which is how the ``fleet-roc`` experiment sweeps a whole ROC curve
from one traffic replay.

Aging and re-enrollment policy: a request's device age is drawn uniformly
from ``[0, aging_horizon_hours]``; with a re-enrollment interval ``R`` the
golden response is refreshed every ``R`` hours, so only the *residual* age
``age % R`` drifts the response away from the golden (the drift model is the
one :func:`repro.puf.evaluation.aging_pair` uses: a residual temperature
shift of ``min(10, 0.25 * hours)`` degrees).

Execution: :func:`authenticate_block` replays a block in two phases, exactly
like the PR 3 pair kernels.  The **plan phase** walks the block once and
makes every scalar draw (device, challenge index, impostor flag, jitter,
age, impostor redraws) on each request's own stream, in the scalar kernel's
draw order, retaining the live generator.  The **grouped evaluation phase**
then sorts the planned requests by presenter device, enrolls missing goldens
and evaluates each device's candidate responses in one pass over a single
memoized :class:`~repro.fleet.devices.FleetDevice` (amortizing device
construction, chip profile memos and challenge materialization), and finally
computes every Jaccard similarity in one batched kernel against gathered
:class:`~repro.fleet.verifier.GoldenStore` slices before scattering results
back to request-index order.  Because streams are per-request and PUF
evaluation never mutates device state, regrouping is invisible: the batched
block is bit-identical to the scalar reference loop,
:func:`authenticate_block_scalar` over :func:`authenticate_request`, which
stays here as the oracle the tests replay the batched kernel against.

Per-request PUF evaluation inside the grouped phase (and golden enrollment)
runs the multi-read module kernels of :mod:`repro.dram.module` -- each
``device.evaluate`` call is one counting kernel over a memoized segment
profile instead of a per-read Python loop.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import telemetry
from repro.fleet.devices import DeviceFleet
from repro.fleet.verifier import FleetVerifier
from repro.puf.positions import concat_position_arrays

#: Bound on the impostor-device redraw loop (mirrors
#: :data:`repro.puf.evaluation.MAX_INTER_CHALLENGE_REDRAWS`).
MAX_IMPOSTOR_REDRAWS = 256

#: Residual aging drift model shared with :func:`repro.puf.evaluation.
#: aging_pair`: degrees of temperature shift per residual hour, capped.
AGING_DRIFT_C_PER_HOUR = 0.25
AGING_DRIFT_CAP_C = 10.0


@dataclass(frozen=True)
class TrafficConfig:
    """Shape of one authentication traffic stream."""

    requests: int = 256
    #: Probability that a request is presented by an impostor device.
    impostor_ratio: float = 0.1
    #: Per-request temperature jitter, uniform in ``[-j, +j]`` degrees.
    temperature_jitter_c: float = 0.0
    #: Device ages are drawn uniformly from ``[0, horizon]`` hours
    #: (``0`` disables aging entirely).
    aging_horizon_hours: float = 0.0
    #: Golden responses are re-enrolled every this many hours (``0`` means
    #: never: the full drawn age drifts the device).
    reenroll_hours: float = 0.0

    def __post_init__(self) -> None:
        # bool is an int subclass: refuse ``True`` rather than read it as 1.
        if type(self.requests) is not int:
            raise TypeError(f"requests must be an int, got {self.requests!r}")
        if self.requests <= 0:
            raise ValueError(f"requests must be positive, got {self.requests}")
        if not 0.0 <= self.impostor_ratio <= 1.0:
            raise ValueError(
                f"impostor_ratio must be in [0, 1], got {self.impostor_ratio}"
            )
        for name in ("temperature_jitter_c", "aging_horizon_hours", "reenroll_hours"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")

    def check_fleet_size(self, devices: int) -> None:
        """Refuse a stream that a ``devices``-device fleet cannot serve."""
        if self.impostor_ratio > 0.0 and devices < 2:
            raise ValueError(
                "impostor traffic requires a fleet of at least two devices"
            )


def authenticate_request(
    fleet: DeviceFleet,
    verifier: FleetVerifier,
    traffic: TrafficConfig,
    index: int,
) -> tuple[bool, float]:
    """Replay one authentication request: ``(is_impostor, similarity)``.

    The kernel consumes only the request's own stream (golden responses are
    evaluated on their independent enrollment streams), so the result depends
    exclusively on ``(fleet config, traffic config, index)``.
    """
    config = fleet.config
    rng = fleet.traffic_rng(index)
    device_id = int(rng.integers(0, config.devices))
    challenge_index = int(rng.integers(0, config.challenges_per_device))
    is_impostor = bool(rng.random() < traffic.impostor_ratio)
    jitter = float(
        rng.uniform(-traffic.temperature_jitter_c, traffic.temperature_jitter_c)
    )
    age_hours = float(rng.uniform(0.0, traffic.aging_horizon_hours))
    if traffic.reenroll_hours > 0.0:
        age_hours = age_hours % traffic.reenroll_hours
    drift = min(AGING_DRIFT_CAP_C, AGING_DRIFT_C_PER_HOUR * age_hours)
    temperature_c = config.enroll_temperature_c + jitter + drift

    challenge = fleet.challenge(device_id, challenge_index)
    if is_impostor:
        if config.devices < 2:
            raise ValueError(
                "impostor traffic requires a fleet of at least two devices"
            )
        presenter_id = int(rng.integers(0, config.devices))
        redraws = 0
        while presenter_id == device_id:
            redraws += 1
            if redraws > MAX_IMPOSTOR_REDRAWS:
                raise ValueError(
                    "cannot draw a distinct impostor device after "
                    f"{MAX_IMPOSTOR_REDRAWS} attempts; the request stream "
                    "is broken"
                )
            presenter_id = int(rng.integers(0, config.devices))
    else:
        presenter_id = device_id
    presenter = fleet.device(presenter_id)
    response = presenter.evaluate(challenge, temperature_c, rng=rng)
    return is_impostor, verifier.similarity(device_id, challenge_index, response)


def _check_block(
    fleet: DeviceFleet, traffic: TrafficConfig, start: int, stop: int
) -> None:
    """Shared eager validation of one request block (both execution paths)."""
    if not 0 <= start <= stop <= traffic.requests:
        raise ValueError(
            f"invalid request range [{start}, {stop}) for "
            f"{traffic.requests} requests"
        )
    # Checked eagerly (not just on the first impostor draw) so every block
    # of a degenerate stream fails identically, whether or not its request
    # range happens to contain an impostor.
    traffic.check_fleet_size(fleet.config.devices)


@dataclass
class _BlockPlan:
    """All scalar draws of one request block, in request order.

    ``rngs[i]`` is request ``start + i``'s live generator, positioned exactly
    where the scalar kernel would hand it to ``presenter.evaluate`` -- the
    plan phase made precisely the draws :func:`authenticate_request` makes,
    in the same order, on the same stream.
    """

    device_ids: np.ndarray
    challenge_indices: np.ndarray
    impostor_flags: np.ndarray
    presenter_ids: np.ndarray
    temperatures: np.ndarray
    rngs: list

    @property
    def size(self) -> int:
        return len(self.rngs)


def _plan_block(
    fleet: DeviceFleet, traffic: TrafficConfig, start: int, stop: int
) -> _BlockPlan:
    """Plan phase: make every scalar draw for requests ``[start, stop)``."""
    config = fleet.config
    count = stop - start
    device_ids = np.empty(count, dtype=np.int64)
    challenge_indices = np.empty(count, dtype=np.int64)
    impostor_flags = np.zeros(count, dtype=bool)
    presenter_ids = np.empty(count, dtype=np.int64)
    temperatures = np.empty(count, dtype=np.float64)
    rngs: list = [None] * count
    for position in range(count):
        rng = fleet.traffic_rng(start + position)
        device_id = int(rng.integers(0, config.devices))
        challenge_index = int(rng.integers(0, config.challenges_per_device))
        is_impostor = bool(rng.random() < traffic.impostor_ratio)
        jitter = float(
            rng.uniform(-traffic.temperature_jitter_c, traffic.temperature_jitter_c)
        )
        age_hours = float(rng.uniform(0.0, traffic.aging_horizon_hours))
        if traffic.reenroll_hours > 0.0:
            age_hours = age_hours % traffic.reenroll_hours
        drift = min(AGING_DRIFT_CAP_C, AGING_DRIFT_C_PER_HOUR * age_hours)
        if is_impostor:
            presenter_id = int(rng.integers(0, config.devices))
            redraws = 0
            while presenter_id == device_id:
                redraws += 1
                if redraws > MAX_IMPOSTOR_REDRAWS:
                    raise ValueError(
                        "cannot draw a distinct impostor device after "
                        f"{MAX_IMPOSTOR_REDRAWS} attempts; the request stream "
                        "is broken"
                    )
                presenter_id = int(rng.integers(0, config.devices))
        else:
            presenter_id = device_id
        device_ids[position] = device_id
        challenge_indices[position] = challenge_index
        impostor_flags[position] = is_impostor
        presenter_ids[position] = presenter_id
        temperatures[position] = config.enroll_temperature_c + jitter + drift
        rngs[position] = rng
    return _BlockPlan(
        device_ids=device_ids,
        challenge_indices=challenge_indices,
        impostor_flags=impostor_flags,
        presenter_ids=presenter_ids,
        temperatures=temperatures,
        rngs=rngs,
    )


def _evaluate_block(
    fleet: DeviceFleet,
    verifier: FleetVerifier,
    plan: _BlockPlan,
    latency: "telemetry.Histogram | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Grouped evaluation phase: candidates by presenter, one batched Jaccard.

    One ascending pass over every device the block touches: a device's
    missing golden slots are enrolled and its candidate responses evaluated
    while the single memoized :class:`~repro.fleet.devices.FleetDevice` is
    in hand.  When ``latency`` is given, each evaluation group is timed with
    one clock pair and its mean is attributed to every request in the group
    (histogram counts still sum to the request count).
    """
    count = plan.size
    # Missing golden slots grouped by target device, in first-touch order.
    missing: dict[int, list[int]] = {}
    store = verifier.store
    seen: set = set()
    for position in range(count):
        key = (int(plan.device_ids[position]), int(plan.challenge_indices[position]))
        if key not in seen and key not in store:
            seen.add(key)
            missing.setdefault(key[0], []).append(key[1])
    # Candidate evaluations grouped by presenter device, ascending request
    # order within each group (streams are independent, so cross-request
    # evaluation order is free; ascending keeps the pass deterministic).
    by_presenter: dict[int, list[int]] = {}
    for position in range(count):
        by_presenter.setdefault(int(plan.presenter_ids[position]), []).append(position)
    candidates: list = [None] * count
    for device_id in sorted(set(missing) | set(by_presenter)):
        for challenge_index in missing.get(device_id, ()):
            verifier.enroll(device_id, challenge_index)
        group = by_presenter.get(device_id)
        if not group:
            continue
        device = fleet.device(device_id)
        group_start = time.perf_counter() if latency is not None else 0.0
        for position in group:
            challenge = fleet.challenge(
                int(plan.device_ids[position]), int(plan.challenge_indices[position])
            )
            response = device.evaluate(
                challenge, float(plan.temperatures[position]), rng=plan.rngs[position]
            )
            candidates[position] = response.position_array
        if latency is not None:
            latency.observe_many(
                (time.perf_counter() - group_start) / len(group), len(group)
            )
    keys = list(zip(plan.device_ids.tolist(), plan.challenge_indices.tolist()))
    buffer, offsets = concat_position_arrays(candidates)
    similarities = verifier.similarity_batch(keys, buffer, offsets)
    flags = plan.impostor_flags
    return similarities[~flags], similarities[flags]


def authenticate_block(
    fleet: DeviceFleet,
    verifier: FleetVerifier,
    traffic: TrafficConfig,
    start: int,
    stop: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Replay requests ``[start, stop)``: ``(genuine, impostor)`` similarities.

    Each returned ``float64`` array keeps its category's request-index order,
    so concatenating block results (in block order) reproduces the full
    stream's arrays exactly.  Runs the plan + grouped-evaluation kernel,
    bit-identical to :func:`authenticate_block_scalar`.
    """
    _check_block(fleet, traffic, start, stop)
    plan = _plan_block(fleet, traffic, start, stop)
    # Service-grade latency, amortized: the collection gate is checked once
    # per block and each evaluation group is timed with one clock pair (not
    # one per request).  Timing never touches the RNG streams, so recorded
    # similarities are bit-identical with collection on or off.
    reg = telemetry.registry() if telemetry.collection_enabled() else None
    latency = reg.histogram(telemetry.FLEET_AUTH_SECONDS) if reg is not None else None
    with telemetry.span("fleet.auth_block", kind="fleet", start=start, stop=stop):
        genuine, impostor = _evaluate_block(fleet, verifier, plan, latency=latency)
    if reg is not None:
        reg.counter(telemetry.FLEET_AUTH_REQUESTS).inc(stop - start)
    return genuine, impostor


def authenticate_block_scalar(
    fleet: DeviceFleet,
    verifier: FleetVerifier,
    traffic: TrafficConfig,
    start: int,
    stop: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar reference replay of requests ``[start, stop)``.

    The pre-batch per-request loop, kept as the executable specification of
    :func:`authenticate_block`: the batched kernel must reproduce this
    output bit-for-bit (the tests replay both paths and compare).
    """
    _check_block(fleet, traffic, start, stop)
    genuine: list[float] = []
    impostor: list[float] = []
    # The scalar path keeps per-request timing (one clock pair per request)
    # -- it is the reference, not the hot path.
    reg = telemetry.registry() if telemetry.collection_enabled() else None
    latency = reg.histogram(telemetry.FLEET_AUTH_SECONDS) if reg is not None else None
    with telemetry.span("fleet.auth_block", kind="fleet", start=start, stop=stop):
        for index in range(start, stop):
            t0 = time.perf_counter() if latency is not None else 0.0
            is_impostor, similarity = authenticate_request(
                fleet, verifier, traffic, index
            )
            if latency is not None:
                latency.observe(time.perf_counter() - t0)
            (impostor if is_impostor else genuine).append(similarity)
    if reg is not None:
        reg.counter(telemetry.FLEET_AUTH_REQUESTS).inc(stop - start)
    return (
        np.asarray(genuine, dtype=np.float64),
        np.asarray(impostor, dtype=np.float64),
    )


@dataclass
class TrafficSummary:
    """FAR/FRR accounting over recorded traffic similarities."""

    genuine: np.ndarray
    impostor: np.ndarray

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "TrafficSummary":
        """Build from the JSON-safe ``{"genuine", "impostor"}`` job value."""
        return cls(
            genuine=np.asarray(payload["genuine"], dtype=np.float64),
            impostor=np.asarray(payload["impostor"], dtype=np.float64),
        )

    @property
    def genuine_trials(self) -> int:
        """Number of genuine requests replayed."""
        return int(self.genuine.size)

    @property
    def impostor_trials(self) -> int:
        """Number of impostor requests replayed."""
        return int(self.impostor.size)

    def frr(self, acceptance_threshold: float) -> float:
        """False rejection rate at one threshold (0 with no genuine trials).

        A genuine request is rejected when its similarity falls below the
        threshold; at ``1.0`` this is exact matching (similarity 1.0 if and
        only if the position sets are equal).
        """
        if not self.genuine.size:
            return 0.0
        return float(np.mean(self.genuine < acceptance_threshold))

    def far(self, acceptance_threshold: float) -> float:
        """False acceptance rate at one threshold (0 with no impostor trials)."""
        if not self.impostor.size:
            return 0.0
        return float(np.mean(self.impostor >= acceptance_threshold))

    def genuine_mean(self) -> float:
        """Mean genuine similarity (0 with no genuine trials)."""
        return float(np.mean(self.genuine)) if self.genuine.size else 0.0

    def impostor_mean(self) -> float:
        """Mean impostor similarity (0 with no impostor trials)."""
        return float(np.mean(self.impostor)) if self.impostor.size else 0.0
