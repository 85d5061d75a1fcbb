"""Tests for gateway ingest, reconstruction and alarm confirmation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.fleet import (
    Gateway,
    GatewayConfig,
    NodeProxy,
    NodeProxyConfig,
    PatientProfile,
    WireFormatError,
    encode_packet,
    synthesize_patient,
)
from repro.fleet.gateway import _decoder_key, recover_packets
from repro.fleet.journal import decode_ahead

PROXY_CONFIG = NodeProxyConfig(stream_telemetry=False)


@pytest.fixture(scope="module")
def clean_af_uplink(trained_af_detector):
    """(report, packets) of a clean persistent-AF patient."""
    profile = PatientProfile(patient_id="afc", rhythm="af", snr_db=None,
                             seed=42)
    record = synthesize_patient(profile, duration_s=120.0)
    proxy = NodeProxy(profile, PROXY_CONFIG,
                      af_detector=trained_af_detector)
    return proxy.run(record)


class TestGatewayConfigValidation:
    """Every field a journal's metadata can set is checked on build."""

    @pytest.mark.parametrize("kwargs, field", [
        (dict(queue_capacity=0), "queue_capacity"),
        (dict(queue_capacity=True), "queue_capacity"),
        (dict(n_iter=2.5), "n_iter"),
        (dict(n_iter="abc"), "n_iter"),
        (dict(reassembly_window=0), "reassembly_window"),
        (dict(reassembly_gap_ticks=-1), "reassembly_gap_ticks"),
        (dict(min_confirm_beats=-1), "min_confirm_beats"),
        (dict(wavelet="bogus"), "wavelet"),
        (dict(wavelet=3), "wavelet"),
        (dict(rr_cv_confirm=float("nan")), "rr_cv_confirm"),
        (dict(rr_cv_confirm=-0.1), "rr_cv_confirm"),
        (dict(confirm_alarms=1), "confirm_alarms"),
    ], ids=["queue-zero", "queue-bool", "n-iter-float", "n-iter-text",
            "window-zero", "gap-ticks-negative", "confirm-beats-negative",
            "wavelet-unknown", "wavelet-int", "rr-cv-nan",
            "rr-cv-negative", "confirm-alarms-int"])
    def test_invalid_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} "):
            GatewayConfig(**kwargs)

    def test_boundary_values_accepted(self):
        config = GatewayConfig(queue_capacity=1, n_iter=1,
                               reassembly_window=1, reassembly_gap_ticks=1,
                               min_confirm_beats=0, wavelet="haar",
                               rr_cv_confirm=0.0, confirm_alarms=False)
        assert config.n_iter == 1


class TestQueue:
    def test_bounded_queue_drops_and_counts(self, clean_af_uplink):
        _, packets = clean_af_uplink
        gateway = Gateway(GatewayConfig(queue_capacity=1))
        assert gateway.ingest(encode_packet(packets[0])) is True
        assert gateway.ingest(encode_packet(packets[1])) is False
        assert gateway.dropped == 1
        assert gateway.pending == 1

    def test_drain_budget(self, clean_af_uplink):
        _, packets = clean_af_uplink
        gateway = Gateway()
        for packet in packets:
            gateway.ingest(encode_packet(packet))
        first = gateway.drain(max_packets=1)
        assert len(first) == 1
        assert gateway.pending == len(packets) - 1
        rest = gateway.drain()
        assert len(rest) == len(packets) - 1
        assert gateway.pending == 0


class TestReconstruction:
    def test_clean_excerpts_reconstruct_well(self, clean_af_uplink):
        _, packets = clean_af_uplink
        gateway = Gateway()
        for packet in packets:
            gateway.ingest(encode_packet(packet))
        excerpts = gateway.drain()
        snrs = [e.snr_db for e in excerpts if np.isfinite(e.snr_db)]
        assert snrs
        # CR 60 % on clean signals: comfortably useful reconstructions.
        assert np.mean(snrs) > 12.0

    def test_signal_shape(self, clean_af_uplink):
        _, packets = clean_af_uplink
        gateway = Gateway()
        gateway.ingest(encode_packet(packets[0]))
        excerpt = gateway.drain()[0]
        assert excerpt.signal.shape == (packets[0].n_leads,
                                        packets[0].span_samples)

    def test_demux_into_channels(self, clean_af_uplink):
        report, packets = clean_af_uplink
        gateway = Gateway()
        for packet in packets:
            gateway.ingest(encode_packet(packet))
        gateway.drain()
        channel = gateway.channels["afc"]
        n_alarm = sum(1 for p in packets if p.kind == "alarm")
        assert channel.n_alarms == n_alarm == len(report.alarms)
        assert channel.n_excerpts == len(packets) - n_alarm
        assert channel.payload_bits == sum(p.payload_bits for p in packets)
        assert np.isfinite(channel.mean_snr_db)

    def test_decoder_cache_reused(self, clean_af_uplink, decoder_memo,
                                  svd_calls):
        _, packets = clean_af_uplink
        first, second = Gateway(), Gateway()
        for packet in packets:
            first.ingest(encode_packet(packet))
            second.ingest(encode_packet(packet))
        first.drain()
        assert decoder_memo.cache_info().misses == 1  # one geometry
        svd_calls.clear()
        second.drain()
        # The second gateway reuses the process's decoder: no build, so
        # no SVD for its step constant.
        assert decoder_memo.cache_info().misses == 1
        assert svd_calls == []


class TestAlarmConfirmation:
    def test_no_false_drops_on_clean_af(self, clean_af_uplink):
        # Acceptance criterion: gateway-confirmed alarms match node-raised
        # AF alarms on clean signals.
        report, packets = clean_af_uplink
        gateway = Gateway()
        for packet in packets:
            gateway.ingest(encode_packet(packet))
        excerpts = gateway.drain()
        alarms = [e for e in excerpts if e.kind == "alarm"]
        assert len(alarms) == len(report.alarms) >= 1
        assert all(e.confirmed for e in alarms)
        assert gateway.channels["afc"].n_confirmed == len(report.alarms)

    def test_regular_rhythm_alarm_refuted(self):
        # A fabricated alarm on clean sinus rhythm must be downgraded.
        profile = PatientProfile(patient_id="nsrf", rhythm="nsr",
                                 snr_db=None, seed=43)
        record = synthesize_patient(profile, duration_s=60.0)
        proxy = NodeProxy(profile, PROXY_CONFIG)
        proxy._fs = record.fs
        packet = proxy.alarm_packet(record, alarm_start=1000)
        gateway = Gateway()
        gateway.ingest(encode_packet(packet))
        excerpt = gateway.drain()[0]
        assert excerpt.confirmed is False

    def test_confirmation_can_be_disabled(self, clean_af_uplink):
        _, packets = clean_af_uplink
        gateway = Gateway(GatewayConfig(confirm_alarms=False))
        for packet in packets:
            gateway.ingest(encode_packet(packet))
        alarms = [e for e in gateway.drain() if e.kind == "alarm"]
        assert all(e.confirmed for e in alarms)

    def test_insufficient_beats_keeps_alarm(self):
        # Too little reconstructed evidence: never overrule the node.
        gateway = Gateway()
        flat = np.zeros((3, 512))
        assert gateway._confirm(flat, fs=250.0) is True


class TestBatchedDrain:
    """drain() batches FISTA by geometry; outputs must match the
    one-packet-at-a-time path."""

    def test_full_drain_equals_budgeted_drain(self, clean_af_uplink):
        _, packets = clean_af_uplink
        batched = Gateway(GatewayConfig(n_iter=60))
        stepwise = Gateway(GatewayConfig(n_iter=60))
        for gateway in (batched, stepwise):
            for packet in packets:
                gateway.ingest(encode_packet(packet))
        all_at_once = batched.drain()
        one_by_one = []
        while stepwise.pending:
            one_by_one.extend(stepwise.drain(1))
        assert len(all_at_once) == len(one_by_one) == len(packets)
        for a, b in zip(all_at_once, one_by_one):
            assert a.patient_id == b.patient_id
            assert a.kind == b.kind
            assert a.confirmed == b.confirmed
            assert np.allclose(a.signal, b.signal, rtol=1e-9, atol=1e-12)


class TestCrossGatewayBatch:
    """Frames recovered ahead, in one batch across several gateways'
    queues, must give each gateway exactly what draining alone gives."""

    CONFIG = GatewayConfig(n_iter=60)

    @pytest.fixture(scope="class")
    def uplinks(self, clean_af_uplink):
        """Packets of three nodes: 3-lead AF (alarms), 1-lead, 3-lead."""
        out = [clean_af_uplink[1]]
        for pid, n_leads, seed in (("one", 1, 44), ("three", 3, 45)):
            profile = PatientProfile(patient_id=pid, rhythm="ectopy",
                                     n_leads=n_leads, seed=seed)
            record = synthesize_patient(profile, duration_s=60.0)
            out.append(NodeProxy(profile, PROXY_CONFIG).run(record)[1])
        return out

    def _loaded(self, uplinks) -> list[Gateway]:
        gateways = [Gateway(self.CONFIG) for _ in uplinks]
        for gateway, packets in zip(gateways, uplinks):
            for packet in packets:
                gateway.ingest(encode_packet(packet))
        return gateways

    @pytest.mark.parametrize("max_packets", [None, 1])
    def test_batched_drain_equals_draining_alone(self, uplinks,
                                                 max_packets,
                                                 decoder_memo):
        alone, batched = self._loaded(uplinks), self._loaded(uplinks)
        queued = [gateway.queued(max_packets) for gateway in batched]
        recovered = iter(recover_packets(
            [packet for packets in queued for packet in packets],
            self.CONFIG))
        assert decoder_memo.cache_info().misses == 2  # 1 and 3 leads
        got = [gateway.drain(max_packets,
                             [next(recovered) for _ in packets])
               for gateway, packets in zip(batched, queued)]
        want = [gateway.drain(max_packets) for gateway in alone]
        assert decoder_memo.cache_info().misses == 2
        assert any(e.kind == "alarm" for e in want[0])
        for got_g, want_g in zip(got, want):
            assert len(got_g) == len(want_g) > 0
            for a, b in zip(got_g, want_g):
                assert (a.patient_id, a.timestamp_s, a.kind) \
                    == (b.patient_id, b.timestamp_s, b.kind)
                assert np.array_equal(a.signal, b.signal)
                assert np.array_equal(a.snr_db, b.snr_db, equal_nan=True)
                assert a.confirmed == b.confirmed
        for a, b, packets in zip(batched, alone, uplinks):
            assert [p.seq for p in a.queued()] == [p.seq for p in b.queued()]
            assert a.pending == (0 if max_packets is None
                                 else len(packets) - 1)

    def test_mismatched_recoveries_leave_the_queue(self, uplinks):
        gateway = self._loaded(uplinks[:1])[0]
        pending = gateway.pending
        with pytest.raises(ValueError, match="recoveries"):
            gateway.drain(2, [[]])
        assert gateway.pending == pending


def _with_value(value: float):
    """Measurement converter writing ``value`` into one entry."""

    def convert(y):
        y = np.array(y, dtype=np.float64)
        y[3] = value
        return y

    return convert


class TestHostileWindow:
    """A CS window whose finite measurements overflow FISTA passes
    ingest; its drain must neither raise nor touch the other windows
    recovered in the same batch.  (A NaN or infinite measurement is
    refused at ingest: see ``MALFORMED_GEOMETRY``.)"""

    @pytest.mark.parametrize("value", [1e300, 1e200],
                             ids=["1e300", "1e200"])
    def test_observed_drain_guards_and_isolates(self, cs_packet, value):
        from repro.obs import Observability

        good = cs_packet("good", seq=0)
        hostile = _with_measurements(cs_packet("bad", seq=0),
                                     _with_value(value))
        assert _decoder_key(good) == _decoder_key(hostile)  # one batch
        solo = Gateway(GatewayConfig(n_iter=60))
        solo.ingest(encode_packet(good))
        want = solo.drain()[0]
        gateway = Gateway(GatewayConfig(n_iter=60), obs=Observability())
        assert gateway.ingest(encode_packet(good))
        assert gateway.ingest(encode_packet(hostile))
        with np.errstate(all="ignore"):
            got, bad = gateway.drain()
        assert got.signal.tobytes() == want.signal.tobytes()
        assert np.array_equal(got.snr_db, want.snr_db, equal_nan=True)
        assert not np.all(np.isfinite(bad.signal))
        nan_guard = gateway.obs.metrics.families()["gateway_nan_guard_total"]
        assert nan_guard.value(patient="bad") == 1
        assert nan_guard.value(patient="good") == 0
        (anomaly,) = gateway.obs.flight.anomalies
        assert (anomaly.kind, anomaly.subject) == ("nan-guard", "bad")
        assert anomaly.detail == {"packet_kind": hostile.kind, "seq": 0}


def _with_measurements(packet, convert):
    """``packet`` with ``convert`` applied to every measurement vector."""
    return replace(packet, frames=tuple(
        tuple(replace(w, measurements=convert(w.measurements))
              for w in frame)
        for frame in packet.frames))


def _five(packet):
    """The reported frame: 256 samples at CR 60 % need 102, it has 5."""
    return _with_measurements(packet, lambda y: y[:5])


#: Packets no decoder can recover, derived from a valid one, with a
#: fragment of the error each must raise.
MALFORMED_GEOMETRY = {
    "measurement-count": (_five, "102"),
    "window-1024": (lambda p: replace(_five(p), window_n=1024), "409"),
    # 65 measurements are all 65,536 samples at CR 99.9 % need; the cap
    # alone keeps the gateway from building a 32 GiB basis for them.
    "window-over-cap": (
        lambda p: replace(_with_measurements(p, lambda y: y[:65]),
                          window_n=65536, cr_percent=99.9),
        "cap"),
    "leads-over-cap": (
        lambda p: replace(p, n_leads=13,
                          frames=tuple(frame * 13 for frame in p.frames)),
        "13 leads"),
    "cr-100": (lambda p: replace(p, cr_percent=100.0), "CR"),
    "cr-negative": (lambda p: replace(p, cr_percent=-1.0), "CR"),
    "cr-nan": (lambda p: replace(p, cr_percent=float("nan")), "CR"),
    # 255 samples at CR 60 % still need 102 measurements, but are odd.
    "no-basis": (lambda p: replace(p, window_n=255), "basis"),
    "quant-bits": (lambda p: replace(p, quant_bits=1), "sensing"),
    "negative-seed": (lambda p: replace(p, cs_seed=-1), "sensing"),
    "bytes-dtype": (
        lambda p: _with_measurements(p, lambda y: y.astype("S8")),
        "numbers"),
    # One such value made its whole window's reconstruction non-finite.
    "measurement-nan": (
        lambda p: _with_measurements(p, _with_value(np.nan)), "non-finite"),
    "measurement-inf": (
        lambda p: _with_measurements(p, _with_value(np.inf)), "non-finite"),
}


class TestGeometryCheck:
    """A CS packet the decoder cannot take is refused at ingest, before
    the journal, reassembly or queue see it; it used to queue and then
    fail every later drain of its gateway.

    Served and replayed sessions decode each frame ahead of applying it
    (:func:`~repro.fleet.journal.decode_ahead`) and hand the gateway the
    packet with the frame, which skips the gateway's own check; so the
    decoded-ahead legs pin that a malformed frame is left as bytes and
    still refused."""

    @pytest.mark.parametrize("ahead", [False, True],
                             ids=["frame", "decoded-ahead"])
    @pytest.mark.parametrize("case", list(MALFORMED_GEOMETRY))
    def test_rejected_at_ingest(self, cs_packet, case, ahead):
        malform, match = MALFORMED_GEOMETRY[case]
        bad = malform(cs_packet("geo", seq=1))
        journaled: list[str] = []

        class _Journal:
            @staticmethod
            def append_packet(_frame, patient_id):
                journaled.append(patient_id)

        config = GatewayConfig(n_iter=30)
        gateway = Gateway(config)
        gateway.attach_journal(_Journal())

        def ingest(packet) -> bool:
            frame = encode_packet(packet)
            if not ahead:
                return gateway.ingest(frame)
            return gateway.ingest(frame,
                                  decode_ahead(frame, config.wavelet))

        assert ingest(cs_packet("geo", seq=0))
        with pytest.raises(WireFormatError, match=match):
            ingest(bad)
        assert gateway.pending == 1
        assert journaled == ["geo"]
        # Reassembly never saw seq 1, so a valid copy is not a duplicate
        # and the gateway still drains.
        assert ingest(cs_packet("geo", seq=1))
        excerpts = gateway.drain()
        assert [e.timestamp_s for e in excerpts] == [0.0, 1.0]
        assert gateway.channels["geo"].n_duplicates == 0

    def test_frameless_packets_carry_no_geometry(self):
        proxy = NodeProxy(PatientProfile(patient_id="tl", seed=1),
                          PROXY_CONFIG)
        telemetry = replace(proxy.telemetry_packet(0.0), cr_percent=100.0,
                            window_n=0)
        assert Gateway().ingest(encode_packet(telemetry))


def _seq_packet(seq: int) -> object:
    """Minimal stand-in: the reassembly buffer reads only ``.seq``."""

    class _P:
        """Sequence-number-only packet stub."""

        def __init__(self, s: int) -> None:
            self.seq = s

    return _P(seq)


def _arrival_stream(rng, n_seqs: int, loss: float, dup: float,
                    shuffle_span: float) -> tuple[list[int], set[int]]:
    """Randomized reorder/dup/loss arrival order plus the arrived set."""
    arrivals = []
    for seq in range(n_seqs):
        if rng.random() < loss:
            continue
        copies = 1 + (rng.random() < dup)
        for _ in range(copies):
            arrivals.append((seq + rng.uniform(0, shuffle_span), seq))
    arrivals.sort()
    ordered = [seq for _, seq in arrivals]
    return ordered, set(ordered)


class TestReassemblyOracle:
    """Randomized reorder/dup/loss regression vs a brute-force oracle.

    The oracle is defined on the arrival multiset alone:

    * every distinct arrived seq is delivered exactly once;
    * ``n_duplicates`` == arrivals - distinct arrivals;
    * after the final flush, ``missing`` holds exactly the never-arrived
      numbers below ``next_seq`` and ``n_gaps`` counts them;
    * ``n_gaps`` never dips below zero along the way.
    """

    def _run_episode(self, seed: int) -> None:
        from collections import Counter

        from repro.fleet.gateway import PatientChannel, _ReassemblyBuffer

        rng = np.random.default_rng(seed)
        window = int(rng.integers(1, 8))
        expire_every = int(rng.integers(0, 5))
        ordered, arrived = _arrival_stream(
            rng, n_seqs=int(rng.integers(5, 60)),
            loss=rng.uniform(0, 0.4), dup=rng.uniform(0, 0.4),
            shuffle_span=rng.uniform(0, 12.0))
        buffer = _ReassemblyBuffer(window)
        channel = PatientChannel("p")
        delivered: list[int] = []
        for i, seq in enumerate(ordered):
            delivered.extend(p.seq for p in
                             buffer.offer(_seq_packet(seq), channel))
            assert channel.n_gaps >= 0
            if expire_every and i % expire_every == 0 and buffer.buffer:
                buffer.note_sweep()
                if buffer.gap_ticks >= 3:
                    delivered.extend(p.seq for p in
                                     buffer.flush(channel))
        delivered.extend(p.seq for p in buffer.flush(channel))
        counts = Counter(delivered)
        assert set(counts) == arrived, "lost or invented sequence numbers"
        assert all(v == 1 for v in counts.values()), "re-delivered seqs"
        assert channel.n_duplicates == len(ordered) - len(arrived)
        holes = set(range(buffer.next_seq)) - arrived
        assert buffer.missing == holes
        assert channel.n_gaps == len(holes)
        assert channel.n_late_recovered >= 0
        assert not buffer.buffer, "flush must empty the window"

    def test_fuzz_against_oracle(self):
        for seed in range(120):
            self._run_episode(seed)

    def test_overflow_flush_counts_each_gap_once(self):
        # Force-release after overflow following a contiguous release:
        # the rewritten single-sweep flush cannot double-count holes.
        from repro.fleet.gateway import PatientChannel, _ReassemblyBuffer

        buffer = _ReassemblyBuffer(window=2)
        channel = PatientChannel("p")
        assert buffer.offer(_seq_packet(0), channel)  # releases 0
        for seq in (4, 7, 9):  # third insert overflows the window
            buffer.offer(_seq_packet(seq), channel)
        assert channel.n_gaps == 6  # {1, 2, 3} + {5, 6} + {8}
        assert buffer.missing == {1, 2, 3, 5, 6, 8}
        assert channel.n_gaps == len(buffer.missing)
        assert buffer.next_seq == 10

    def test_hostile_seq_jump_cannot_balloon_missing(self):
        # One crafted packet with an absurd sequence number must not
        # make the flush materialize billions of written-off numbers
        # (the gateway faces a real socket via `repro.fleet.serve`).
        from repro.fleet.gateway import (
            MAX_TRACKED_GAP,
            PatientChannel,
            _ReassemblyBuffer,
        )

        buffer = _ReassemblyBuffer(window=4)
        channel = PatientChannel("p")
        hostile_seq = 2 ** 40
        buffer.offer(_seq_packet(hostile_seq), channel)
        released = buffer.flush(channel)
        assert [p.seq for p in released] == [hostile_seq]
        assert channel.n_gaps == hostile_seq  # counted in full
        assert len(buffer.missing) == MAX_TRACKED_GAP  # bounded
        # A recent straggler is still recoverable...
        recovered = buffer.offer(_seq_packet(hostile_seq - 1), channel)
        assert [p.seq for p in recovered] == [hostile_seq - 1]
        assert channel.n_late_recovered == 1
        # ...while one beyond the tracked window counts as a duplicate.
        assert buffer.offer(_seq_packet(7), channel) == []
        assert channel.n_duplicates == 1

    def test_second_late_copy_is_a_duplicate(self):
        # First copy of a written-off seq recovers the gap; the second
        # must land on the duplicate path, never be re-delivered.
        from repro.fleet.gateway import PatientChannel, _ReassemblyBuffer

        buffer = _ReassemblyBuffer(window=1)
        channel = PatientChannel("p")
        buffer.offer(_seq_packet(3), channel)
        buffer.offer(_seq_packet(5), channel)  # overflow: gaps 0-2, 4
        assert channel.n_gaps == 4
        first = buffer.offer(_seq_packet(2), channel)
        assert [p.seq for p in first] == [2]
        assert channel.n_gaps == 3
        assert channel.n_late_recovered == 1
        second = buffer.offer(_seq_packet(2), channel)
        assert second == []
        assert channel.n_duplicates == 1
        assert channel.n_gaps == 3  # unchanged: no re-recovery

    def test_late_recovery_does_not_reset_stall_clock(self):
        # A replayed straggler is no progress for packets stalled
        # behind the *current* gap; the stall count must keep
        # running or head-of-line blocking becomes unbounded.
        from repro.fleet.gateway import PatientChannel, _ReassemblyBuffer

        buffer = _ReassemblyBuffer(window=8)
        channel = PatientChannel("p")
        buffer.offer(_seq_packet(2), channel)
        buffer.flush(channel)  # writes off 0, 1; next_seq -> 3
        buffer.offer(_seq_packet(5), channel)  # stalls behind 3, 4
        buffer.note_sweep()  # anchor: head 5 observed waiting
        buffer.note_sweep()
        assert buffer.gap_ticks == 2
        assert buffer.stall_head == 5
        released = buffer.offer(_seq_packet(0), channel)  # late replay
        assert [p.seq for p in released] == [0]
        assert buffer.gap_ticks == 2, \
            "straggler replay must not extend head-of-line blocking"
        released = buffer.offer(_seq_packet(3), channel)  # partial fill
        assert [p.seq for p in released] == [3]
        assert buffer.gap_ticks == 2, \
            "head of line (5) is still stuck: a partial release " \
            "behind it must not reset the stall clock"
        released = buffer.offer(_seq_packet(4), channel)
        assert [p.seq for p in released] == [4, 5]  # stall fully clears
        assert buffer.gap_ticks == 0  # head released: anchor dropped
        assert buffer.stall_head is None

    def test_straggler_behind_two_gaps_keeps_stall_anchor(self):
        # Regression for the head-of-line accounting bug: with two
        # separate gaps ({1} and {3, 4}) in front of buffered packets,
        # the in-order arrival of seq 0 releases [0] — but the oldest
        # pending seq (2) did not move, so the stall clock must keep
        # counting from its original anchor.
        from repro.fleet.gateway import PatientChannel, _ReassemblyBuffer

        buffer = _ReassemblyBuffer(window=8)
        channel = PatientChannel("p")
        buffer.offer(_seq_packet(2), channel)
        buffer.offer(_seq_packet(5), channel)  # buffer {2, 5}; next 0
        buffer.note_sweep()  # head 2 anchored
        buffer.note_sweep()
        assert (buffer.stall_head, buffer.gap_ticks) == (2, 2)
        released = buffer.offer(_seq_packet(0), channel)
        assert [p.seq for p in released] == [0]  # in-order release
        assert buffer.gap_ticks == 2, \
            "release of seq 0 is progress, but head 2 is still stuck"
        buffer.note_sweep()  # same head: one more sweep counted
        assert buffer.gap_ticks == 3
        released = buffer.offer(_seq_packet(1), channel)
        assert [p.seq for p in released] == [1, 2]  # head 2 makes it out
        assert buffer.gap_ticks == 0
        buffer.note_sweep()  # next sweep re-anchors on new head 5
        assert (buffer.stall_head, buffer.gap_ticks) == (5, 1)
