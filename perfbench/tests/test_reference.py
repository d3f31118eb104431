import gc

import pytest

from perfbench import harness, reference
from perfbench.harness import Recorder
from perfbench.reference import ReferenceUnit, local_reference_ns, to_reference_ms


def test_reference_time_is_cpu_time_over_the_local_mean_unit():
    w = reference.WINDOW
    refs = [2_000_000] * (w + 1) + [1_000_000] * (w + 1)
    # The window of unit 0 holds only units that took 2 ms.
    assert local_reference_ns(refs, 0) == 2_000_000
    assert to_reference_ms(30_000_000, refs, 0) == pytest.approx(15.0 * reference.REFERENCE_MS)
    # The window of the last unit holds only 1 ms units: the same call reads twice as long.
    assert to_reference_ms(30_000_000, refs, len(refs) - 1) == pytest.approx(
        30.0 * reference.REFERENCE_MS)


def test_local_speed_counts_fast_and_slow_units_and_drops_strays():
    refs = [1_000_000, 2_000_000] * 20
    assert local_reference_ns(refs, 20) == pytest.approx(1_500_000, rel=0.05)
    refs = [1_000_000] * 41
    refs[20] = 90_000_000
    assert local_reference_ns(refs, 20) == 1_000_000


def test_recorder_scales_each_call_and_groups_by_kind(monkeypatch):
    cpu = iter(range(0, 10**12, 10_000_000))  # every reading 10 ms after the last
    wall = iter(range(0, 10**12, 12_000_000))
    monkeypatch.setattr(harness.time, "thread_time_ns", lambda: next(cpu))
    monkeypatch.setattr(harness.time, "perf_counter_ns", lambda: next(wall))
    rec = Recorder()
    monkeypatch.setattr(rec.reference, "time", lambda: 2_000_000)
    rec.call("op", lambda: None)
    rec.call(None, lambda: None)
    rec.call("op", lambda: 1 / 0)
    assert (rec.attempted, rec.failed) == (3, 1)
    assert rec.samples(0, rec.mark(), wall=True) == {"op": [12.0]}
    assert rec.samples(0, rec.mark()) == {"op": [pytest.approx(5.0 * reference.REFERENCE_MS)]}
    assert rec.total_ms(0, rec.mark()) == pytest.approx(15.0 * reference.REFERENCE_MS)
    rec.close()


def test_reference_unit_repeats_its_work_every_pass_over_the_store():
    unit = ReferenceUnit()
    laps = reference.STORE_OBJECTS // reference.SLICE
    assert reference.STORE_OBJECTS % reference.SLICE == 0
    first = [unit.run() for _ in range(laps)]
    assert first == [unit.run() for _ in range(laps)]
    assert ReferenceUnit().run() == first[0]
    assert unit.time() > 0


def test_collector_pauses_leave_latencies_but_stay_in_totals():
    garbage = []
    for _ in range(20000):
        cycle = []
        cycle.append(cycle)
        garbage.append(cycle)
    rec = Recorder()
    rec.call("op", garbage.clear)
    rec.call("op", gc.collect)
    call = rec.calls[-1]
    assert 0 < call.gc_ns <= call.cpu_ns
    latency = rec.samples(0, rec.mark())["op"][-1]
    assert latency < rec.ref_ms(call)
    assert rec.busy_ms(0, rec.mark())["op"] == pytest.approx(rec.total_ms(0, rec.mark()))
    rec.close()
    assert rec.collector._callback not in gc.callbacks
