"""Torn-write fuzz suite for the journal recovery state machine.

Property under test (the ISSUE's recovery bar): for a valid journal
truncated or corrupted at *any* byte offset, opening it either recovers
cleanly to the last whole record (yielding an exact prefix of the
original record sequence) or raises :class:`JournalError` — it never
yields a wrong packet.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    JournalConfig,
    JournalError,
    JournalReader,
    JournalWriter,
    NodeProxy,
    NodeProxyConfig,
    PatientProfile,
    ServeMessage,
    encode_packet,
    journal_meta,
)
from repro.fleet.journal import _SegmentScan


def _build_journal(tmp_path) -> tuple[JournalConfig, bytes, int, list]:
    """One small single-segment journal plus its raw bytes."""
    config = JournalConfig(dir=str(tmp_path), name="fuzz")
    proxy = NodeProxy(PatientProfile(patient_id="fz0", seed=3),
                      NodeProxyConfig(stream_telemetry=False))
    with JournalWriter(config, meta=journal_meta(60.0, 250.0)) as writer:
        for i in range(6):
            writer.append_message(ServeMessage("expire", "",
                                               t_s=float(i)))
            writer.append_packet(
                encode_packet(proxy.telemetry_packet(
                    float(i), mean_hr_bpm=70.0, soc=0.4)), "fz0")
            writer.append_message(ServeMessage(
                "drain", "", t_s=float(i), fields={"budget": -1.0}))
    path = config.segment_paths()[0]
    data = path.read_bytes()
    scan = _SegmentScan(path, tolerate_torn=True)
    records = list(scan.records())
    header_len = scan._start
    return config, data, header_len, records


@pytest.fixture(scope="module")
def journal(tmp_path_factory):
    return _build_journal(tmp_path_factory.mktemp("fuzz-journal"))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """Module-scoped scratch dir (hypothesis-safe: ``@given`` examples
    may not touch function-scoped fixtures)."""
    return tmp_path_factory.mktemp("fuzz-scratch")


def _read_all(config: JournalConfig):
    reader = JournalReader(config)
    records = list(reader.records())
    return records, reader.torn_tail_bytes


class TestExhaustiveTruncation:
    def test_every_truncation_point_recovers_prefix_or_raises(
            self, journal, tmp_path):
        """Chop the journal at *every* byte offset; recovery must give
        an exact record prefix (reader and reopened writer agreeing)
        or a clean :class:`JournalError` — never a wrong record."""
        config, data, header_len, records = journal
        target = JournalConfig(dir=str(tmp_path), name="fuzz")
        path = target.segment_path(0)
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            if cut < header_len:
                with pytest.raises(JournalError):
                    _read_all(target)
                with pytest.raises(JournalError):
                    JournalWriter(target)
                continue
            got, torn = _read_all(target)
            assert got == records[:len(got)]
            # A writer over the same bytes truncates the same tail and
            # keeps exactly the records the reader saw.
            writer = JournalWriter(target)
            assert writer.n_truncated_bytes == torn
            writer.close()
            survivors, torn_after = _read_all(target)
            assert survivors == got
            assert torn_after == 0

    def test_truncation_loses_at_most_one_record(self, journal,
                                                 tmp_path):
        """Cutting inside record N keeps records 0..N-1 intact."""
        config, data, header_len, records = journal
        target = JournalConfig(dir=str(tmp_path), name="fuzz")
        path = target.segment_path(0)
        # Record boundaries: reconstruct offsets by replaying lengths.
        offsets = [header_len]
        scan = _SegmentScan(config.segment_path(0), tolerate_torn=True)
        for _ in scan.records():
            offsets.append(scan.valid_end)
        for n in range(len(records)):
            cut = offsets[n] + (offsets[n + 1] - offsets[n]) // 2
            path.write_bytes(data[:cut])
            got, torn = _read_all(target)
            assert got == records[:n]
            assert torn == cut - offsets[n]


class TestBitFlipCorruption:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_flips_never_yield_a_wrong_record(self, journal, scratch,
                                              data):
        """Flip one bit anywhere in the record region: the CRC (or the
        length sanity checks) must catch it — the reader yields a
        prefix of the original records or raises, never a mutant."""
        config, raw, header_len, records = journal
        target = JournalConfig(dir=str(scratch), name="fuzz")
        path = target.segment_path(0)
        pos = data.draw(st.integers(min_value=header_len,
                                    max_value=len(raw) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        mutated = bytearray(raw)
        mutated[pos] ^= 1 << bit
        path.write_bytes(bytes(mutated))
        try:
            got, _ = _read_all(target)
        except JournalError:
            return
        assert got == records[:len(got)]

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_header_flips_raise_or_preserve_records(self, journal,
                                                    scratch, data):
        """Header corruption is detected (bad magic/version/lengths) or
        benign (flags, metadata text) — record payloads never change."""
        config, raw, header_len, records = journal
        target = JournalConfig(dir=str(scratch), name="fuzz")
        path = target.segment_path(0)
        pos = data.draw(st.integers(min_value=0,
                                    max_value=header_len - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        mutated = bytearray(raw)
        mutated[pos] ^= 1 << bit
        path.write_bytes(bytes(mutated))
        try:
            got, _ = _read_all(target)
        except JournalError:
            return
        assert got == records
