"""The process-global instruments do not leak from one test into the
next: the first test switches all three on and records into them, the
second, which runs right after it, finds them off and empty."""

from repro import obs
from repro.obs import journal


def test_a_test_may_switch_every_instrument_on(tmp_path):
    obs.enable()
    journal.open_journal(tmp_path / "events.jsonl")
    journal.emit("campaign_started", name="leak", faults=1)
    with obs.tracer.span("leak"):
        obs.metrics.inc("campaign.runs")
    assert obs.metrics.enabled() and obs.tracer.enabled()
    assert journal.enabled()


def test_the_next_test_finds_them_off_and_empty():
    assert not obs.metrics.enabled()
    assert not obs.tracer.enabled()
    assert not journal.enabled()
    assert journal.JOURNAL.path is None
    snapshot = obs.metrics.snapshot()
    assert snapshot["counters"] == {}
    assert snapshot["histograms"] == {}
    assert obs.tracer.TRACER.to_dicts() == []
