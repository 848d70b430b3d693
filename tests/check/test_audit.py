"""Trace auditor: round-trips recorded runs and catches doctored ones."""

from __future__ import annotations

import io

import pytest

from repro.apps.blast import BlastConfig, run_blast
from repro.apps.workloads import FixedSizes
from repro.check import audit_csv, audit_events, audit_spans
from repro.config import ScenarioConfig
from repro.simnet import FaultProfile
from repro.testbed import Testbed
from repro.trace import ProtocolTracer, TraceEvent, events_from_csv


def _traced_run(scenario: ScenarioConfig, messages: int = 12):
    tb = Testbed.from_scenario(scenario)
    tracer = ProtocolTracer.attach(tb)
    cfg = BlastConfig(
        total_messages=messages,
        sizes=FixedSizes(48 * 1024),
        outstanding_sends=3,
        outstanding_recvs=3,
    )
    run_blast(cfg, testbed=tb, scenario=scenario)
    return tracer


@pytest.fixture(scope="module")
def clean_events():
    return _traced_run(ScenarioConfig(seed=1)).events


@pytest.fixture(scope="module")
def chaos_events():
    scenario = ScenarioConfig(seed=3, faults=FaultProfile(drop_prob=0.05))
    return _traced_run(scenario).events


def test_clean_run_audits_ok(clean_events):
    report = audit_events(clean_events)
    assert report.ok, report.describe()
    assert report.connections == 2
    assert not audit_spans(clean_events)


def test_chaos_run_audits_ok(chaos_events):
    # drops force RC retransmission below EXS; the protocol record must
    # still satisfy every invariant
    report = audit_events(chaos_events)
    assert report.ok, report.describe()
    assert not audit_spans(chaos_events)


def test_csv_round_trip_preserves_verdict(clean_events):
    tracer = ProtocolTracer()
    tracer.events = list(clean_events)
    fh = io.StringIO()
    tracer.to_csv(fh)
    fh.seek(0)
    report = audit_csv(fh)
    assert report.ok, report.describe()
    fh.seek(0)
    assert not audit_spans(events_from_csv(fh))


def _mutate(events, kind, **changes):
    """Copy of *events* with *changes* applied to the first *kind* event."""
    out, done = [], False
    for e in events:
        if not done and e.kind == kind:
            fields = dict(e.fields)
            fields.update(changes)
            e = TraceEvent(e.time_ns, e.conn, e.host, e.kind,
                           tuple(sorted(fields.items())))
            done = True
        out.append(e)
    assert done, f"no {kind} event to mutate"
    return out


def test_lost_byte_breaks_conservation(clean_events):
    first_deliver = next(e for e in clean_events if e.kind == "deliver" and e.get("nbytes"))
    doctored = _mutate(clean_events, "deliver", nbytes=first_deliver.get("nbytes") - 1)
    report = audit_events(doctored)
    assert any(v.claim == "conservation" for v in report.violations)


def test_odd_phase_advert_breaks_lemma_1(clean_events):
    doctored = _mutate(clean_events, "advert_tx", phase=3)
    report = audit_events(doctored)
    assert any(v.claim == "Lemma 1" for v in report.violations)


def test_overlapping_transfer_breaks_contiguity(clean_events):
    first = next(e for e in clean_events if e.kind in ("direct", "indirect"))
    doctored = _mutate(clean_events, first.kind, seq=first.get("seq") + 1)
    report = audit_events(doctored)
    assert any(v.claim == "stream contiguity" for v in report.violations)


def _append(events, template, **fields):
    """Copy of *events* plus one synthetic event after everything else."""
    t = max(e.time_ns for e in events) + 1_000
    extra = TraceEvent(t, template.conn, template.host, template.kind,
                       tuple(sorted(fields.items())))
    return list(events) + [extra]


def test_second_fin_breaks_fin_uniqueness(clean_events):
    fin = next(e for e in clean_events if e.kind == "fin")
    doctored = _append(clean_events, fin, seq=fin.get("seq"))
    report = audit_events(doctored)
    assert any(v.claim == "FIN uniqueness" for v in report.violations)


def test_delivery_after_eof_breaks_finality(clean_events):
    eof = next(e for e in clean_events if e.kind == "deliver" and e.get("eof"))
    doctored = _append(clean_events, eof, nbytes=10)
    report = audit_events(doctored)
    assert any(v.claim == "EOF finality" for v in report.violations)


@pytest.mark.parametrize("msg_bytes", (4_096, 48 * 1024))
def test_eager_rendezvous_run_audits_ok(msg_bytes):
    """Both classes of the SEND-RECV plane (eager below the threshold,
    rendezvous above) produce records that satisfy contiguity, FIN
    uniqueness, EOF finality, and conservation."""
    scenario = ScenarioConfig(seed=5, transport="eager_rendezvous")
    tb = Testbed.from_scenario(scenario)
    tracer = ProtocolTracer.attach(tb)
    cfg = BlastConfig(total_messages=8, sizes=FixedSizes(msg_bytes),
                      outstanding_sends=3, outstanding_recvs=3)
    run_blast(cfg, testbed=tb, scenario=scenario)
    report = audit_events(tracer.events)
    assert report.ok, report.describe()
    assert not audit_spans(tracer.events)
