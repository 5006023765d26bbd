"""Tests for the fleet subsystem: devices, verifier, traffic, engine jobs,
experiments and the ``fleet`` CLI subcommand.

The load-bearing property throughout is *partition independence*: devices
are reconstructible from ``(fleet_seed, device_id)`` alone, golden responses
from ``(fleet_seed, device_id, challenge_index)``, and request results from
``(fleet config, traffic config, request_index)`` -- so golden responses
enrolled in any order, and any sharding of traffic, match a serial run
bit-identically.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import telemetry
from repro.engine import ExperimentJob, FleetTrafficJob, run_sharded
from repro.fleet import (
    FLEET_PUF_FACTORIES,
    DeviceFleet,
    FleetConfig,
    FleetVerifier,
    GoldenStore,
    TrafficConfig,
    TrafficSummary,
    authenticate_block,
    authenticate_block_scalar,
    authenticate_request,
)
from repro.puf.positions import concat_position_arrays

#: Small fleet shared by most tests (CODIC-sig: cheapest evaluation).
CONFIG = FleetConfig(seed=11, devices=8, puf="CODIC-sig PUF", challenges_per_device=2)

TRAFFIC = TrafficConfig(requests=24, impostor_ratio=0.4, temperature_jitter_c=4.0)


def fresh_runtime(config: FleetConfig = CONFIG) -> tuple[DeviceFleet, FleetVerifier]:
    fleet = DeviceFleet(config)
    return fleet, FleetVerifier(fleet)


class TestFleetConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="devices"):
            FleetConfig(devices=0)
        with pytest.raises(ValueError, match="challenges_per_device"):
            FleetConfig(challenges_per_device=0)
        with pytest.raises(ValueError, match="unknown PUF"):
            FleetConfig(puf="nope")
        with pytest.raises(ValueError, match="chips_per_device"):
            FleetConfig(chips_per_device=-1)
        with pytest.raises(ValueError):
            FleetConfig(banks=0)
        # bool is an int subclass, and a float count would key its own cache
        # entry: both are refused.
        with pytest.raises(TypeError, match="seed must be an int"):
            FleetConfig(seed=1.5)
        with pytest.raises(TypeError, match="devices must be an int"):
            FleetConfig(devices=True)
        with pytest.raises(TypeError, match="challenges_per_device must be an int"):
            FleetConfig(challenges_per_device=2.0)

    def test_segment_bytes(self):
        assert CONFIG.segment_bytes == CONFIG.row_bits // 8

    def test_fleet_and_figures_share_one_puf_table(self):
        from repro.experiments.puf_experiments import PUF_FACTORIES as FIGURE_PUFS
        from repro.puf import PUF_FACTORIES

        assert FLEET_PUF_FACTORIES is PUF_FACTORIES
        assert FIGURE_PUFS is PUF_FACTORIES
        assert list(PUF_FACTORIES) == ["DRAM Latency PUF", "PreLatPUF", "CODIC-sig PUF"]


class TestDeviceFleet:
    def test_device_reconstructible_across_instances(self):
        first = DeviceFleet(CONFIG)
        second = DeviceFleet(CONFIG)
        challenge = first.challenge(5, 1)
        assert challenge == second.challenge(5, 1)
        response_a = first.device(5).evaluate(
            challenge, 30.0, rng=first.enrollment_rng(5, 1)
        )
        response_b = second.device(5).evaluate(
            challenge, 30.0, rng=second.enrollment_rng(5, 1)
        )
        assert response_a == response_b

    def test_devices_are_physically_distinct(self):
        fleet = DeviceFleet(CONFIG)
        challenge = fleet.challenge(0, 0)
        response_0 = fleet.device(0).evaluate(
            challenge, 30.0, rng=fleet.enrollment_rng(0, 0)
        )
        response_1 = fleet.device(1).evaluate(
            challenge, 30.0, rng=fleet.enrollment_rng(0, 0)
        )
        assert not response_0.matches(response_1)

    def test_lru_eviction_preserves_values(self):
        unbounded = DeviceFleet(CONFIG)
        bounded = DeviceFleet(CONFIG, max_cached_devices=2)
        challenge = unbounded.challenge(0, 0)
        want = unbounded.device(0).evaluate(
            challenge, 30.0, rng=unbounded.enrollment_rng(0, 0)
        )
        for device_id in (0, 1, 2, 3):  # evicts device 0 from the memo
            bounded.device(device_id)
        got = bounded.device(0).evaluate(
            challenge, 30.0, rng=bounded.enrollment_rng(0, 0)
        )
        assert want == got

    def test_out_of_range_ids_raise(self):
        fleet = DeviceFleet(CONFIG)
        with pytest.raises(ValueError, match="device_id"):
            fleet.device(CONFIG.devices)
        with pytest.raises(ValueError, match="device_id"):
            fleet.challenge(-1, 0)
        with pytest.raises(ValueError, match="challenge_index"):
            fleet.challenge(0, CONFIG.challenges_per_device)

    def test_vendor_cycling(self):
        fleet = DeviceFleet(CONFIG)
        vendors = {fleet.device(i).module.vendor.name for i in range(3)}
        assert vendors == {"A", "B", "C"}

    @pytest.mark.parametrize("puf", sorted(FLEET_PUF_FACTORIES))
    def test_building_devices_creates_no_generator(self, generator_calls, puf):
        fleet = DeviceFleet(
            FleetConfig(seed=11, devices=6, puf=puf, chips_per_device=2)
        )
        for device_id in range(6):
            fleet.device(device_id)
        assert generator_calls.make_rng == []
        assert generator_calls.default_rng == 0

    def test_devices_share_the_fleet_geometry(self):
        fleet = DeviceFleet(CONFIG)
        geometries = {id(fleet.device(i).module.chip_geometry) for i in range(4)}
        assert len(geometries) == 1


class TestGoldenStore:
    def test_add_get_roundtrip(self):
        store = GoldenStore()
        first = np.array([3, 17, 99], dtype=np.int64)
        second = np.array([], dtype=np.int64)
        store.add(0, 0, first)
        store.add(0, 1, second)
        assert len(store) == 2
        assert (0, 0) in store and (0, 1) in store
        assert store.get(0, 0).tolist() == [3, 17, 99]
        assert store.get(0, 1).size == 0
        assert store.get(1, 0) is None
        assert store.total_positions == 3

    def test_slices_are_read_only(self):
        store = GoldenStore()
        store.add(0, 0, np.array([1, 2], dtype=np.int64))
        view = store.get(0, 0)
        with pytest.raises(ValueError):
            view[0] = 7

    def test_duplicate_add_raises(self):
        store = GoldenStore()
        store.add(0, 0, np.array([1], dtype=np.int64))
        with pytest.raises(KeyError, match="already enrolled"):
            store.add(0, 0, np.array([2], dtype=np.int64))

class TestGoldenStoreBatch:
    def build_store(self) -> GoldenStore:
        store = GoldenStore()
        store.add(0, 0, np.array([3, 17, 99], dtype=np.int64))
        store.add(0, 1, np.array([], dtype=np.int64))
        store.add(4, 0, np.array([5], dtype=np.int64))
        return store

    def test_get_many_gathers_in_key_order(self):
        store = self.build_store()
        # Repeated and out-of-insertion-order keys gather repeatedly.
        keys = [(4, 0), (0, 0), (0, 1), (0, 0)]
        buffer, offsets = store.get_many(keys)
        assert offsets.tolist() == [0, 1, 4, 4, 7]
        assert buffer.tolist() == [5, 3, 17, 99, 3, 17, 99]
        for index, key in enumerate(keys):
            assert (
                buffer[offsets[index] : offsets[index + 1]].tolist()
                == store.get(*key).tolist()
            )

    def test_get_many_empty_and_missing(self):
        store = self.build_store()
        buffer, offsets = store.get_many([])
        assert buffer.size == 0 and offsets.tolist() == [0]
        with pytest.raises(KeyError, match="not enrolled"):
            store.get_many([(0, 0), (9, 9)])

class TestFleetVerifier:
    def test_lazy_golden_equals_eager_enrollment(self):
        _, lazy = fresh_runtime()
        _, eager = fresh_runtime()
        in_order = [
            eager.enroll(device_id, k).tolist()
            for device_id in range(CONFIG.devices)
            for k in range(CONFIG.challenges_per_device)
        ]
        assert len(eager.store) == CONFIG.devices * CONFIG.challenges_per_device
        # Read lazily in scrambled order; values must match the in-order pass.
        for device_id in (5, 0, 3):
            for k in reversed(range(CONFIG.challenges_per_device)):
                assert (
                    lazy.golden(device_id, k).tolist()
                    == in_order[device_id * CONFIG.challenges_per_device + k]
                )
        assert len(lazy.store) == 3 * CONFIG.challenges_per_device

    def test_verify_genuine_and_impostor(self):
        fleet, verifier = fresh_runtime()
        challenge = fleet.challenge(2, 0)
        genuine = fleet.device(2).evaluate(challenge, 30.0, rng=fleet.traffic_rng(0))
        impostor = fleet.device(4).evaluate(challenge, 30.0, rng=fleet.traffic_rng(1))
        assert verifier.verify(2, 0, genuine, acceptance_threshold=0.8)
        assert not verifier.verify(2, 0, impostor, acceptance_threshold=0.8)
        assert verifier.similarity(2, 0, impostor) < 0.2

    def test_verify_threshold_validation(self):
        fleet, verifier = fresh_runtime()
        challenge = fleet.challenge(0, 0)
        response = fleet.device(0).evaluate(challenge, 30.0, rng=fleet.traffic_rng(0))
        with pytest.raises(ValueError, match="acceptance_threshold"):
            verifier.verify(0, 0, response, acceptance_threshold=1.5)

    def test_golden_many_lazily_enrolls_and_matches_scalar(self):
        _, batch = fresh_runtime()
        _, scalar = fresh_runtime()
        keys = [(5, 1), (0, 0), (5, 1), (3, 0)]  # scrambled, with a repeat
        buffer, offsets = batch.golden_many(keys)
        assert len(batch.store) == 3  # unique slots only
        for index, key in enumerate(keys):
            assert (
                buffer[offsets[index] : offsets[index + 1]].tolist()
                == scalar.golden(*key).tolist()
            )

    def test_similarity_batch_matches_scalar_similarity(self):
        fleet, batch = fresh_runtime()
        _, scalar = fresh_runtime()
        keys, responses = [], []
        for index in range(8):
            rng = fleet.traffic_rng(index)
            device_id = index % CONFIG.devices
            presenter = (device_id + 1) % CONFIG.devices if index % 3 == 0 else device_id
            challenge = fleet.challenge(device_id, 0)
            responses.append(
                fleet.device(presenter).evaluate(challenge, 32.0, rng=rng)
            )
            keys.append((device_id, 0))
        buffer, offsets = concat_position_arrays(
            [response.position_array for response in responses]
        )
        similarities = batch.similarity_batch(keys, buffer, offsets)
        expected = [
            scalar.similarity(key[0], key[1], response)
            for key, response in zip(keys, responses)
        ]
        assert similarities.tolist() == expected  # bit-identical floats

class TestTraffic:
    def test_traffic_config_validation(self):
        with pytest.raises(ValueError, match="requests"):
            TrafficConfig(requests=0)
        with pytest.raises(ValueError, match="impostor_ratio"):
            TrafficConfig(impostor_ratio=1.5)
        with pytest.raises(ValueError, match="temperature_jitter_c"):
            TrafficConfig(temperature_jitter_c=-1.0)
        with pytest.raises(ValueError, match="aging_horizon_hours"):
            TrafficConfig(aging_horizon_hours=-1.0)
        with pytest.raises(ValueError, match="reenroll_hours"):
            TrafficConfig(reenroll_hours=-1.0)
        with pytest.raises(TypeError, match="requests must be an int"):
            TrafficConfig(requests=16.0)
        with pytest.raises(TypeError, match="requests must be an int"):
            TrafficConfig(requests=True)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name",
        [
            "impostor_ratio",
            "temperature_jitter_c",
            "aging_horizon_hours",
            "reenroll_hours",
        ],
    )
    def test_traffic_config_refuses_non_finite_values(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrafficConfig(**{name: value})

    def test_block_matches_per_request_replay(self):
        fleet, verifier = fresh_runtime()
        genuine, impostor = authenticate_block(fleet, verifier, TRAFFIC, 0, 10)
        replay_fleet, replay_verifier = fresh_runtime()
        expected_genuine, expected_impostor = [], []
        for index in range(10):
            is_impostor, similarity = authenticate_request(
                replay_fleet, replay_verifier, TRAFFIC, index
            )
            (expected_impostor if is_impostor else expected_genuine).append(similarity)
        assert genuine.tolist() == expected_genuine
        assert impostor.tolist() == expected_impostor

    def test_partitioned_blocks_merge_bit_identically(self):
        fleet, verifier = fresh_runtime()
        genuine, impostor = authenticate_block(fleet, verifier, TRAFFIC, 0, 24)
        for boundaries in ([0, 24], [0, 7, 24], [0, 1, 2, 13, 24]):
            parts = []
            for start, stop in zip(boundaries, boundaries[1:]):
                shard_fleet, shard_verifier = fresh_runtime()
                parts.append(
                    authenticate_block(shard_fleet, shard_verifier, TRAFFIC, start, stop)
                )
            merged_genuine = np.concatenate([part[0] for part in parts])
            merged_impostor = np.concatenate([part[1] for part in parts])
            assert merged_genuine.tolist() == genuine.tolist()
            assert merged_impostor.tolist() == impostor.tolist()

    def test_genuine_similar_impostor_dissimilar(self):
        fleet, verifier = fresh_runtime()
        genuine, impostor = authenticate_block(fleet, verifier, TRAFFIC, 0, 24)
        assert genuine.size and impostor.size
        assert float(genuine.mean()) > 0.9
        assert float(impostor.mean()) < 0.1

    def test_impostor_traffic_needs_two_devices(self):
        config = FleetConfig(seed=3, devices=1, puf="CODIC-sig PUF")
        fleet = DeviceFleet(config)
        verifier = FleetVerifier(fleet)
        traffic = TrafficConfig(requests=64, impostor_ratio=1.0)
        with pytest.raises(ValueError, match="at least two devices"):
            authenticate_block(fleet, verifier, traffic, 0, 64)

    def test_invalid_range_raises(self):
        fleet, verifier = fresh_runtime()
        with pytest.raises(ValueError, match="request range"):
            authenticate_block(fleet, verifier, TRAFFIC, 5, 3)
        with pytest.raises(ValueError, match="request range"):
            authenticate_block(fleet, verifier, TRAFFIC, 0, TRAFFIC.requests + 1)


class TestBatchedScalarIdentity:
    """The grouped-evaluation kernel is bit-identical to the scalar loop."""

    CASES = {
        "mixed": (CONFIG, TRAFFIC),
        # Two devices at impostor_ratio=1.0: every request exercises the
        # impostor redraw loop (a 50% collision chance per draw).
        "redraw-collisions": (
            FleetConfig(seed=23, devices=2, puf="CODIC-sig PUF"),
            TrafficConfig(requests=24, impostor_ratio=1.0),
        ),
        # Residual aging: the re-enrollment modulo must happen in the plan
        # phase exactly as in the scalar kernel.
        "reenroll-aging": (
            CONFIG,
            TrafficConfig(
                requests=24,
                impostor_ratio=0.3,
                temperature_jitter_c=2.0,
                aging_horizon_hours=100.0,
                reenroll_hours=7.0,
            ),
        ),
        "genuine-only": (CONFIG, TrafficConfig(requests=16, impostor_ratio=0.0)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_block_bit_identical_to_scalar(self, case):
        config, traffic = self.CASES[case]
        fleet, verifier = fresh_runtime(config)
        genuine, impostor = authenticate_block(
            fleet, verifier, traffic, 0, traffic.requests
        )
        ref_fleet, ref_verifier = fresh_runtime(config)
        want_genuine, want_impostor = authenticate_block_scalar(
            ref_fleet, ref_verifier, traffic, 0, traffic.requests
        )
        assert genuine.tolist() == want_genuine.tolist()
        assert impostor.tolist() == want_impostor.tolist()

    def test_uneven_partitions_match_scalar(self):
        ref_fleet, ref_verifier = fresh_runtime()
        want = authenticate_block_scalar(ref_fleet, ref_verifier, TRAFFIC, 0, 24)
        parts = []
        for start, stop in zip([0, 1, 2, 13], [1, 2, 13, 24]):
            fleet, verifier = fresh_runtime()
            parts.append(authenticate_block(fleet, verifier, TRAFFIC, start, stop))
        assert np.concatenate([p[0] for p in parts]).tolist() == want[0].tolist()
        assert np.concatenate([p[1] for p in parts]).tolist() == want[1].tolist()

    def test_empty_block(self):
        fleet, verifier = fresh_runtime()
        genuine, impostor = authenticate_block(fleet, verifier, TRAFFIC, 5, 5)
        assert genuine.size == 0 and impostor.size == 0
        assert genuine.dtype == np.float64 and impostor.dtype == np.float64

    def test_degenerate_fleet_raises_identically_in_both_paths(self):
        config = FleetConfig(seed=3, devices=1, puf="CODIC-sig PUF")
        traffic = TrafficConfig(requests=64, impostor_ratio=0.5)
        for kernel in (authenticate_block, authenticate_block_scalar):
            fleet, verifier = fresh_runtime(config)
            # Eager check: every block fails, even one whose request range
            # happens to contain no impostor draw.
            with pytest.raises(ValueError, match="at least two devices"):
                kernel(fleet, verifier, traffic, 0, 1)

    def test_latency_histogram_counts_sum_to_requests(self):
        telemetry.registry().reset()
        try:
            fleet, verifier = fresh_runtime()
            authenticate_block(fleet, verifier, TRAFFIC, 0, 24)
            latency = telemetry.registry().histogram(telemetry.FLEET_AUTH_SECONDS)
            # Group-amortized timing still attributes one observation per
            # request (the per-group mean), so downstream percentile math
            # sees the same population size as the scalar path.
            assert latency.count == 24
            assert latency.sum > 0.0
            requests = telemetry.registry().counter(telemetry.FLEET_AUTH_REQUESTS)
            assert requests.value == 24
        finally:
            telemetry.registry().reset()


def traffic_job(**overrides) -> FleetTrafficJob:
    parameters = dict(
        fleet_seed=11,
        devices=8,
        puf="CODIC-sig PUF",
        requests=24,
        challenges_per_device=2,
        impostor_ratio=0.4,
        temperature_jitter_c=4.0,
    )
    parameters.update(overrides)
    return FleetTrafficJob(**parameters)


class TestFleetTrafficJob:
    def test_run_matches_direct_block(self):
        value = traffic_job().run()
        fleet, verifier = fresh_runtime()
        genuine, impostor = authenticate_block(fleet, verifier, TRAFFIC, 0, 24)
        assert value["genuine"] == genuine.tolist()
        assert value["impostor"] == impostor.tolist()

    @pytest.mark.parametrize("shard_size", [1, 5, 8, 23])
    def test_sharded_merge_bit_identical(self, shard_size):
        job = traffic_job()
        serial = job.run()
        shards = job.shard_jobs(shard_size)
        assert shards is not None
        assert job.merge([shard.run() for shard in shards]) == serial

    def test_declines_to_shard_when_block_covers_stream(self):
        assert traffic_job().shard_jobs(24) is None

    def test_shard_config_drops_total(self):
        job = traffic_job()
        shard = job.shard_jobs(10)[0]
        assert "requests" not in shard.config
        assert shard.config["start"] == 0 and shard.config["stop"] == 10
        assert shard.shard_range() == (0, 10)

    def test_encode_decode_roundtrip(self):
        job = traffic_job()
        value = job.run()
        assert job.decode(json.loads(json.dumps(job.encode(value)))) == value

    def test_run_sharded_across_workers(self):
        job = traffic_job()
        serial = job.run()
        outcomes = run_sharded([job], shard_size=7, workers=2)
        assert outcomes[0].value == serial

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"requests": 0}, "requests must be positive"),
            ({"impostor_ratio": 5.0}, "impostor_ratio"),
            ({"puf": "nope"}, "unknown PUF"),
            ({"temperature_jitter_c": float("nan")}, "temperature_jitter_c"),
            ({"devices": 1}, "at least two devices"),
        ],
    )
    def test_construction_refuses_bad_configs(self, overrides, message):
        # Refused where the job is made, never inside a pool worker.
        with pytest.raises(ValueError, match=message):
            traffic_job(**overrides)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_construction_names_a_mistyped_fleet_seed(self, seed):
        # The job's own field, not the FleetConfig.seed it is passed on to.
        with pytest.raises(TypeError, match="^fleet_seed must be an int"):
            traffic_job(fleet_seed=seed)

class TestFleetExperiments:
    def test_fleet_roc_table_shape(self):
        from repro.experiments.fleet_experiments import ROC_THRESHOLDS
        from repro.experiments.registry import run_experiment
        from repro.fleet.devices import FLEET_PUF_FACTORIES

        result = run_experiment("fleet-roc")
        assert len(result.rows) == len(FLEET_PUF_FACTORIES) * len(ROC_THRESHOLDS)
        # FRR is monotonically non-decreasing in the threshold for every PUF.
        for puf_name in FLEET_PUF_FACTORIES:
            frrs = [row[2] for row in result.rows if row[0] == puf_name]
            assert frrs == sorted(frrs)

    def test_fleet_aging_policy_sweep(self):
        from repro.experiments.fleet_experiments import (
            AGING_POLICIES,
            AGING_PUFS,
        )
        from repro.experiments.registry import run_experiment

        result = run_experiment("fleet-aging")
        assert len(result.rows) == len(AGING_PUFS) * len(AGING_POLICIES)
        latency = [row for row in result.rows if row[0] == "DRAM Latency PUF"]
        # Loosening the policy (2h -> never) must not improve the Latency
        # PUF's thresholded FRR, and the loosest policy must be strictly
        # worse than the tightest.
        frrs = [row[2] for row in latency]
        assert frrs == sorted(frrs)
        assert frrs[-1] > frrs[0]

    @pytest.mark.parametrize("experiment_id", ["fleet-roc", "fleet-aging"])
    def test_sharded_experiment_byte_identical(self, experiment_id):
        from repro.experiments.registry import run_experiment

        serial = run_experiment(experiment_id).to_dict()
        outcome = run_sharded(
            [ExperimentJob(experiment_id)], shard_size=13, workers=2
        )[0]
        assert outcome.value.to_dict() == serial


class TestFleetCLI:
    def run_cli(self, argv, capsys):
        from repro.experiments.__main__ import main

        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_table_output(self, capsys):
        code, out, err = self.run_cli(
            ["fleet", "--devices", "8", "--requests", "16", "--seed", "11"], capsys
        )
        assert code == 0
        assert "fleet authentication" in out
        assert "FRR (%)" in out
        assert "auths/sec" in err

    #: Wall-clock keys of the fleet JSON document -- everything else must be
    #: byte-for-byte deterministic across jobs/shard-size/daemon routing.
    VOLATILE_KEYS = ("elapsed_seconds", "auths_per_second", "latency")

    def deterministic(self, stdout):
        document = json.loads(stdout)
        for key in self.VOLATILE_KEYS:
            assert key in document, f"fleet JSON lost its {key!r} field"
            del document[key]
        return document

    def test_json_deterministic_across_jobs(self, capsys):
        base = ["fleet", "--devices", "8", "--requests", "16", "--seed", "11",
                "--json", "--no-daemon"]
        code, serial, _ = self.run_cli(base, capsys)
        assert code == 0
        code, sharded, _ = self.run_cli(
            base + ["--jobs", "2", "--shard-size", "5"], capsys
        )
        assert code == 0
        assert self.deterministic(serial) == self.deterministic(sharded)
        # --jobs without --shard-size defaults to an even request split.
        code, auto_sharded, _ = self.run_cli(base + ["--jobs", "2"], capsys)
        assert code == 0
        assert self.deterministic(serial) == self.deterministic(auto_sharded)
        document = json.loads(serial)
        assert document["genuine_trials"] + document["impostor_trials"] == 16
        assert document["requests"] == 16

    def test_json_reports_latency_percentiles(self, capsys):
        code, out, err = self.run_cli(
            ["fleet", "--devices", "8", "--requests", "16", "--seed", "11",
             "--json", "--no-daemon"],
            capsys,
        )
        assert code == 0
        latency = json.loads(out)["latency"]
        assert latency["count"] == 16
        for key in ("p50_ms", "p95_ms", "p99_ms"):
            assert latency[key] > 0.0
        assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
        assert "auth latency p50" in err

    def test_table_reports_latency_percentiles(self, capsys):
        code, out, _ = self.run_cli(
            ["fleet", "--devices", "8", "--requests", "16", "--no-daemon"],
            capsys,
        )
        assert code == 0
        assert "auth latency p50 (ms)" in out
        assert "auth latency p99 (ms)" in out
        assert "auths/sec" in out

    def test_json_scalar_path_matches_batched(self, capsys):
        """The CLI's batched replay reports exactly what a direct replay of
        the same stream through the scalar reference kernel gives."""
        code, out, _ = self.run_cli(
            ["fleet", "--devices", "8", "--requests", "16", "--seed", "11",
             "--impostor-ratio", "0.25", "--json", "--no-daemon"],
            capsys,
        )
        assert code == 0
        document = json.loads(out)
        job = FleetTrafficJob(**document["config"])
        fleet, verifier = fresh_runtime(job.fleet_config())
        genuine, impostor = authenticate_block_scalar(
            fleet, verifier, job.traffic_config(), 0, job.requests
        )
        summary = TrafficSummary(genuine=genuine, impostor=impostor)
        threshold = document["threshold"]
        assert summary.genuine_trials and summary.impostor_trials
        assert document["genuine_trials"] == summary.genuine_trials
        assert document["impostor_trials"] == summary.impostor_trials
        assert document["frr"] == summary.frr(threshold)
        assert document["far"] == summary.far(threshold)
        assert document["genuine_mean_jaccard"] == round(summary.genuine_mean(), 6)
        assert document["impostor_mean_jaccard"] == round(summary.impostor_mean(), 6)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "--threshold", "1.5"],
            ["fleet", "--jobs", "0"],
            ["fleet", "--shard-size", "0"],
            ["fleet", "--devices", "0"],
            ["fleet", "--devices", "1"],  # impostors need >= 2 devices
            ["fleet", "--requests", "8", "--impostor-ratio", "2.0"],
        ],
    )
    def test_invalid_arguments_exit_2(self, argv, capsys):
        code, _, err = self.run_cli(argv, capsys)
        assert code == 2
        assert err

    @pytest.mark.parametrize(
        "flag, name",
        [
            ("--temperature-jitter", "temperature_jitter_c"),
            ("--aging-horizon", "aging_horizon_hours"),
            ("--reenroll", "reenroll_hours"),
        ],
    )
    def test_non_finite_value_exits_2_before_any_replay(self, flag, name, capsys):
        code, out, err = self.run_cli(
            ["fleet", "--devices", "8", "--requests", "16", flag, "nan"], capsys
        )
        assert code == 2
        assert f"{name} must be finite and non-negative, got nan" in err
        assert out == "" and "auths/sec" not in err
