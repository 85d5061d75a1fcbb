"""Tests for the sharded fleet runtime (`repro.fleet.sharding`)."""

from __future__ import annotations

import ctypes
import functools

import numpy as np
import pytest

from repro.fleet import (
    CohortConfig,
    FleetScheduler,
    Gateway,
    GatewayConfig,
    NodeProxyConfig,
    PerPatientLink,
    SchedulerConfig,
    ShardHooks,
    ShardedFleetRunner,
    WireFormatError,
    make_cohort,
    partition_cohort,
)
from repro.fleet.sharding import (
    _BLAS_SET_THREADS,
    ShardPatientRow,
    ShardResult,
    _openblas_libraries,
    _shard_pool,
    decode_shard_result,
    encode_shard_result,
)
from repro.fleet.transport import SharedMemoryTransport
from repro.fleet.triage import PatientTriage
from repro.power import Battery, BatteryModel
from repro.power.governor import (
    EnergyGovernor,
    GovernorConfig,
    ModePowerTable,
)
from repro.scenarios import LinkSpec, derive_seed
from repro.scenarios.channel import ImpairedLink

COHORT = make_cohort(CohortConfig(n_patients=5, seed=7))
RUN_KW = dict(
    config=SchedulerConfig(duration_s=60.0, fs=250.0),
    node_config=NodeProxyConfig(stream_telemetry=False),
    gateway_config=GatewayConfig(n_iter=50),
)

#: Both shard-result fabrics; byte-equivalence must hold on each.
TRANSPORTS = [
    "pickle",
    pytest.param(
        "shared_memory",
        marks=pytest.mark.skipif(
            not SharedMemoryTransport.available(),
            reason="multiprocessing.shared_memory unavailable")),
]


@pytest.fixture(scope="module")
def plain_run():
    """The single-process reference run over the shared cohort."""
    return FleetScheduler(
        COHORT, RUN_KW["config"], node_config=RUN_KW["node_config"],
        gateway=Gateway(RUN_KW["gateway_config"])).run()


@pytest.fixture(scope="module")
def one_shard_run():
    """The 1-shard run (single stripe, no process pool)."""
    return ShardedFleetRunner(COHORT, n_shards=1, **RUN_KW).run()


@pytest.fixture(scope="module", params=TRANSPORTS)
def four_shard_run(request):
    """The 4-process run over the same cohort, per transport backend."""
    return ShardedFleetRunner(COHORT, n_shards=4,
                              transport=request.param, **RUN_KW).run()


class TestPartition:
    def test_round_robin_stripes(self):
        shards = partition_cohort(COHORT, 2)
        assert shards[0] == COHORT[0::2]
        assert shards[1] == COHORT[1::2]

    def test_capped_at_cohort_size(self):
        shards = partition_cohort(COHORT[:2], 8)
        assert len(shards) == 2
        assert [p for shard in shards for p in shard] \
            == sorted(COHORT[:2], key=COHORT.index)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="n_shards"):
            partition_cohort(COHORT, 0)
        with pytest.raises(ValueError, match="cohort"):
            partition_cohort([], 2)


class TestByteEquivalence:
    """The sharding determinism contract, end to end."""

    def test_one_shard_matches_plain_scheduler(self, plain_run,
                                               one_shard_run):
        assert one_shard_run.summary.to_json() \
            == plain_run.summary.to_json()

    def test_four_shards_match_one_shard(self, one_shard_run,
                                         four_shard_run):
        # The acceptance bar: byte-identical merged FleetSummary from
        # the same master seed under any shard layout.
        assert four_shard_run.summary.to_json() \
            == one_shard_run.summary.to_json()

    def test_packet_counts_merge(self, plain_run, one_shard_run,
                                 four_shard_run):
        assert one_shard_run.packets_sent == plain_run.packets_sent
        assert four_shard_run.packets_sent == plain_run.packets_sent

    def test_rows_in_cohort_order(self, four_shard_run):
        assert list(four_shard_run.rows) \
            == [p.patient_id for p in COHORT]

    def test_wire_loopback_matches_object_path(self, plain_run):
        config = SchedulerConfig(duration_s=60.0, fs=250.0,
                                 wire_loopback=True)
        looped = FleetScheduler(
            COHORT, config, node_config=RUN_KW["node_config"],
            gateway=Gateway(RUN_KW["gateway_config"])).run()
        assert looped.summary.to_json() == plain_run.summary.to_json()


def _impaired_governed_hooks(spec: LinkSpec, profiles,
                             master_seed: int) -> ShardHooks:
    """Module-level hook factory (picklable) for the equivalence test."""

    def link_for(patient_id: str):
        return ImpairedLink(spec, seed=derive_seed(master_seed, "link",
                                                   patient_id))

    def factory(profile):
        frac = derive_seed(master_seed, "soc",
                           profile.patient_id) % 1000 / 1000.0
        return EnergyGovernor(
            config=GovernorConfig(min_dwell_s=0.0),
            table=ModePowerTable(),
            battery=BatteryModel(cell=Battery(capacity_mah=0.05),
                                 soc=max(0.05, 0.9 - 0.5 * frac)))

    return ShardHooks(link=PerPatientLink(link_for),
                      governor_factory=factory)


class TestHookedRuns:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_governed_impaired_shards_byte_identical(self, transport):
        spec = LinkSpec(loss_rate=0.15, duplicate_rate=0.1,
                        reorder_rate=0.2, jitter_s=2.0,
                        reorder_delay_s=65.0)
        kw = dict(RUN_KW, master_seed=99,
                  hook_factory=functools.partial(
                      _impaired_governed_hooks, spec),
                  transport=transport)
        one = ShardedFleetRunner(COHORT[:4], n_shards=1, **kw).run()
        three = ShardedFleetRunner(COHORT[:4], n_shards=3, **kw).run()
        assert three.summary.to_json() == one.summary.to_json()
        assert one.summary.governed
        assert any(row.link_stats for row in one.rows.values())


class TestPerPatientLink:
    def test_routes_by_patient_and_reports_stats(self):
        spec = LinkSpec(loss_rate=0.0, duplicate_rate=0.0,
                        reorder_rate=0.0)
        link = PerPatientLink(lambda pid: ImpairedLink(spec, seed=1))
        proxies = {}
        from repro.fleet import NodeProxy, PatientProfile, \
            synthesize_patient
        for pid in ("a", "b"):
            profile = PatientProfile(patient_id=pid, seed=3)
            record = synthesize_patient(profile, duration_s=60.0)
            proxy = NodeProxy(profile,
                              NodeProxyConfig(stream_telemetry=False))
            _, packets = proxy.run(record)
            proxies[pid] = packets
        for pid, packets in proxies.items():
            for packet in packets:
                delivered = link.send(packet, packet.timestamp_s)
                assert all(d.patient_id == pid for d in delivered)
        assert link.stats_for("a")["offered"] == len(proxies["a"])
        assert link.stats_for("missing") == {}
        assert link.stats["offered"] == sum(len(p) for p
                                            in proxies.values())
        assert link.due(1e9) == []
        assert link.drain() == []


class TestShardResultCodec:
    def _result(self) -> ShardResult:
        from repro.fleet import PatientChannel

        triage = PatientTriage(patient_id="p0", state="watch",
                               since_s=60.0, last_event_s=60.0,
                               n_watches=1, soc=0.5, mode="raw")
        channel = PatientChannel(patient_id="p0", n_excerpts=3,
                                 snrs=[18.5, 21.0, 19.25])
        row = ShardPatientRow(
            patient_id="p0", n_sent=4, n_reconstructed=3,
            n_node_alarms=2, average_power_w=1.5e-3, battery_days=12.5,
            channel=channel, triage=triage, governed=True,
            mode_seconds={"raw": 60.0, "multi_lead_cs": 120.0},
            governor_switches=3, final_soc=0.25, projected_hours=7.5,
            link_stats={"offered": 4, "lost": 1})
        return ShardResult(shard_index=2, packets_sent=4, dropped=1,
                           timings_s={"synthesis+node": 0.5,
                                      "uplink+gateway": 0.25,
                                      "total": 0.75},
                           rows=[row])

    def test_round_trip(self):
        result = self._result()
        decoded = decode_shard_result(encode_shard_result(result))
        assert decoded.shard_index == result.shard_index
        assert decoded.packets_sent == result.packets_sent
        assert decoded.dropped == result.dropped
        assert decoded.timings_s == result.timings_s
        (row,) = decoded.rows
        original = result.rows[0]
        assert row.patient_id == original.patient_id
        assert row.mode_seconds == original.mode_seconds
        assert list(row.mode_seconds) == list(original.mode_seconds)
        assert row.link_stats == original.link_stats
        assert row.triage.state == "watch"
        assert row.triage.soc == 0.5
        assert row.final_soc == 0.25
        assert row.projected_hours == 7.5
        assert row.channel is not None
        assert row.channel.snrs == original.channel.snrs

    def test_every_truncation_raises_wire_error(self):
        # Every prefix cut — including mid-SNR-buffer cuts that are not
        # a multiple of the float64 item size — must surface as a
        # WireFormatError, never a raw numpy/struct exception.
        blob = encode_shard_result(self._result())
        for cut in range(len(blob)):
            with pytest.raises(WireFormatError):
                decode_shard_result(blob[:cut])

    def test_bad_magic_raises(self):
        blob = bytearray(encode_shard_result(self._result()))
        blob[0] ^= 0xFF
        with pytest.raises(WireFormatError, match="magic"):
            decode_shard_result(bytes(blob))

    @pytest.mark.parametrize("text", ["p0", "watch", "raw", "offered"])
    def test_non_utf8_string_raises_wire_error(self, text, non_utf8):
        blob = non_utf8(encode_shard_result(self._result()), text)
        with pytest.raises(WireFormatError, match="UTF-8"):
            decode_shard_result(blob)


class TestOwnedMergeRows:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_merge_folds_list_snrs(self, transport, monkeypatch):
        # The rows the merge folds — not just the rows the report
        # keeps — hold owned list[float] SNRs on either fabric.
        import repro.fleet.sharding as sharding

        def snr_types(rows) -> list[set[type]]:
            return [{type(row.channel.snrs),
                     *(type(s) for s in row.channel.snrs)}
                    for row in rows]

        seen = []
        fold = sharding.merge_patient_rows

        def spy(cohort, rows, *args, **kwargs):
            # Snapshot now: later steps must not be what makes it pass.
            seen.extend(snr_types(rows.values()))
            return fold(cohort, rows, *args, **kwargs)

        monkeypatch.setattr(sharding, "merge_patient_rows", spy)
        report = ShardedFleetRunner(COHORT[:2], n_shards=2,
                                    transport=transport, **RUN_KW).run()
        seen.extend(snr_types(report.rows.values()))
        assert seen == [{list, float}] * 4


class TestMergeGuards:
    def test_missing_patient_detected(self):
        runner = ShardedFleetRunner(COHORT[:2], n_shards=1, **RUN_KW)
        empty = ShardResult(shard_index=0, packets_sent=0, dropped=0,
                            timings_s={})
        with pytest.raises(WireFormatError, match="missing patients"):
            runner._merge([empty])


class TestTransportHygiene:
    def test_no_shm_segments_leak_from_runs(self, four_shard_run):
        # Every sharded run above unlinked its segments on merge; no
        # segment of this process's runs may survive in /dev/shm.
        import os
        import sys

        if not sys.platform.startswith("linux"):
            pytest.skip("/dev/shm audit is Linux-only")
        run_prefix = f"rpf{os.getpid():x}x"
        leaked = [name for name in os.listdir("/dev/shm")
                  if name.startswith(run_prefix)]
        assert leaked == []


class TestThroughputAccounting:
    def test_report_shapes(self, four_shard_run):
        report = four_shard_run
        assert report.n_shards == 4
        assert len(report.shard_timings_s) == 4
        assert report.timings_s["total"] > 0
        assert np.isfinite(report.patients_per_second)
        assert report.summary.n_patients == len(COHORT)

    def test_sent_by_patient_splits_totals(self, plain_run):
        scheduler = FleetScheduler(
            COHORT, RUN_KW["config"],
            node_config=RUN_KW["node_config"],
            gateway=Gateway(RUN_KW["gateway_config"]))
        fleet = scheduler.run()
        assert sum(scheduler.sent_by_patient.values()) \
            == fleet.packets_sent


def _blas_thread_counts() -> dict[str, int]:
    """Thread count of each loaded OpenBLAS (module-level: picklable)."""
    counts = {}
    for path, lib in _openblas_libraries().items():
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                counts[path] = int(getter())
                break
    return counts


def _set_blas_threads(counts: dict[str, int]) -> None:
    for path, lib in _openblas_libraries().items():
        for symbol in _BLAS_SET_THREADS:
            setter = getattr(lib, symbol, None)
            if setter is not None and path in counts:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(counts[path])
                break


class TestBlasPinning:
    def test_pool_workers_run_blas_on_one_thread(self):
        original = _blas_thread_counts()
        if not original:
            pytest.skip("no OpenBLAS with thread control in this process")
        # Two threads in the parent, whatever the core count or the
        # environment, so a worker that merely inherited the parent's
        # setting could not pass.
        _set_blas_threads(dict.fromkeys(original, 2))
        try:
            with _shard_pool(1) as pool:
                worker = pool.submit(_blas_thread_counts).result(
                    timeout=120)
            parent = _blas_thread_counts()
        finally:
            _set_blas_threads(original)
        assert worker == dict.fromkeys(original, 1)
        assert parent == dict.fromkeys(original, 2)
