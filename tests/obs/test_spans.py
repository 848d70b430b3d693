"""Span stitching: synthetic event streams and full simulated runs."""

from repro.apps import BlastConfig, ExponentialSizes, FixedSizes, run_blast
from repro.config import ScenarioConfig
from repro.core import ProtocolMode
from repro.obs import build_spans
from repro.testbed import Testbed
from repro.trace import TraceEvent


def ev(t, conn, host, kind, **fields):
    return TraceEvent(t, conn, host, kind, tuple(sorted(fields.items())))


def synthetic_events():
    """Two messages client->server: one direct, one indirect (copied)."""
    return [
        ev(0, 1, "client", "conn_open", peer=2),
        ev(0, 2, "server", "conn_open", peer=1),
        # message 1: 100 bytes, direct
        ev(10, 1, "client", "send", send_id=1, nbytes=100),
        ev(20, 1, "client", "direct", nbytes=100, seq=0),
        ev(30, 1, "client", "send_done", send_id=1, nbytes=100),
        ev(40, 2, "server", "deliver", nbytes=100),
        # message 2: 50 bytes, indirect with a receiver copy
        ev(50, 1, "client", "send", send_id=2, nbytes=50),
        ev(55, 1, "client", "indirect", nbytes=50, seq=100),
        ev(60, 2, "server", "copy", nbytes=50, seq=100),
        ev(65, 1, "client", "send_done", send_id=2, nbytes=50),
        ev(70, 2, "server", "deliver", nbytes=50),
    ]


def test_synthetic_stitching():
    spans = build_spans(synthetic_events())
    assert len(spans) == 2
    first, second = spans

    assert (first.seq_start, first.seq_end) == (0, 100)
    assert first.kind == "direct"
    assert first.complete
    assert first.submit_ns == 10
    assert first.first_post_ns == 20
    assert first.acked_ns == 30
    assert first.delivered_ns == 40
    assert first.queue_ns == 10
    assert first.transport_ns == 10
    assert first.delivery_ns == 20
    assert first.e2e_ns == 30
    assert first.copies == 0

    assert (second.seq_start, second.seq_end) == (100, 150)
    assert second.kind == "indirect"
    assert second.complete
    assert second.copies == 1
    assert second.copied_bytes == 50


def test_transfer_split_across_messages_attributes_by_seq():
    events = [
        ev(0, 1, "client", "conn_open", peer=2),
        ev(0, 2, "server", "conn_open", peer=1),
        ev(10, 1, "client", "send", send_id=1, nbytes=100),
        ev(11, 1, "client", "send", send_id=2, nbytes=100),
        # the two plans land inside different messages
        ev(20, 1, "client", "indirect", nbytes=100, seq=0),
        ev(21, 1, "client", "indirect", nbytes=100, seq=100),
        # one copy covers both messages' bytes
        ev(30, 2, "server", "copy", nbytes=200, seq=0),
    ]
    spans = build_spans(events)
    assert [s.indirect_bytes for s in spans] == [100, 100]
    assert [s.copies for s in spans] == [1, 1]
    assert [s.copied_bytes for s in spans] == [100, 100]


def test_zero_byte_message_span_is_complete_once_acked():
    events = [
        ev(0, 1, "client", "conn_open", peer=2),
        ev(10, 1, "client", "send", send_id=1, nbytes=0),
        ev(20, 1, "client", "send_done", send_id=1, nbytes=0),
    ]
    (span,) = build_spans(events)
    assert span.nbytes == 0
    assert span.complete
    assert span.delivered_ns == 20


def test_connections_without_sends_produce_no_spans():
    events = [ev(0, 2, "server", "conn_open", peer=1),
              ev(5, 2, "server", "deliver", nbytes=10)]
    assert build_spans(events) == []


def run_with_telemetry(cfg, seed=2):
    tb = Testbed.from_scenario(ScenarioConfig(seed=seed))
    tel = tb.attach_telemetry()
    run_blast(cfg, testbed=tb, max_events=50_000_000)
    tel.finish()
    return tel


def test_every_sent_message_has_a_complete_span():
    """The acceptance criterion: full span coverage of a real run."""
    cfg = BlastConfig(total_messages=50, sizes=ExponentialSizes(seed=2))
    tel = run_with_telemetry(cfg)
    spans = tel.spans()
    assert len(spans) == 50
    assert all(s.complete for s in spans)
    # stream ranges tile the byte stream with no gaps
    assert spans[0].seq_start == 0
    for prev, cur in zip(spans, spans[1:]):
        assert cur.seq_start == prev.seq_end
    # stage latencies are well-formed
    for s in spans:
        assert s.queue_ns >= 0
        assert s.transport_ns > 0
        assert s.e2e_ns >= s.delivery_ns > 0


def test_span_byte_accounting_matches_protocol_stats():
    cfg = BlastConfig(total_messages=40, sizes=FixedSizes(1 << 20),
                      outstanding_sends=4, outstanding_recvs=4,
                      recv_buffer_bytes=1 << 20)
    tel = run_with_telemetry(cfg)
    spans = tel.spans()
    conn = next(c for c in tel._conns if c.host.name == "client")
    assert sum(s.direct_bytes for s in spans) == conn.tx_stats.direct_bytes
    assert sum(s.indirect_bytes for s in spans) == conn.tx_stats.indirect_bytes
    assert sum(s.copied_bytes for s in spans) == conn.tx_stats.indirect_bytes


def test_direct_only_spans_have_no_copies():
    cfg = BlastConfig(total_messages=20, sizes=FixedSizes(64 * 1024),
                      mode=ProtocolMode.DIRECT_ONLY)
    tel = run_with_telemetry(cfg)
    spans = tel.spans()
    assert len(spans) == 20
    assert all(s.kind == "direct" for s in spans)
    assert sum(s.copies for s in spans) == 0
