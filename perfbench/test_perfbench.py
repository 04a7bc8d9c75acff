"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

HEADER = "run_id,seed,T,d,regret_kind,regret,m,n,U_sum,L_sum,bound,verdict,wall_ms"
ROW = "0000,7,1000,10,shifting,49.484954304107418,3,4,1000,183,132.83104560940154,pass,0"
SUMMARY = "summary,7,1000,10,shifting,49.484954304107418,3,4,1000,183,132.83104560940154,pass,0"
REFERENCE = {"0000": [49.484954304107418, 3.0, 4.0, 1000.0, 183.0]}
CAPS = (4.0, 1000.0)


def _write(tmp_path, lines):
    path = tmp_path / "report.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _span(id, start, end, parent=None, thread=1):
    return spans.Span(id, f"s{id}", start, end, thread, parent)


def test_self_time_nested_spans():
    tree = [_span(1, 0.0, 10.0), _span(2, 1.0, 4.0, parent=1),
            _span(3, 2.0, 3.0, parent=2), _span(4, 6.0, 7.0, parent=1)]
    selfs = spans.self_times(tree)
    assert selfs == {1: pytest.approx(6.0), 2: pytest.approx(2.0),
                     3: pytest.approx(1.0), 4: pytest.approx(1.0)}


def test_self_time_counts_overlapping_cross_thread_children_once():
    # two pool workers run children of the same parent at the same time;
    # a child that outlives its parent only covers the parent's interval
    tree = [_span(1, 0.0, 10.0), _span(2, 1.0, 6.0, parent=1, thread=2),
            _span(3, 3.0, 8.0, parent=1, thread=3),
            _span(4, 9.0, 12.0, parent=1, thread=2)]
    assert spans.self_times(tree)[1] == pytest.approx(10.0 - 7.0 - 1.0)


def test_worker_thread_spans_adopt_the_open_run_experiment_span():
    tracer = spans.Tracer()

    def worker():
        with tracer.span("run_forecaster"):
            pass

    with tracer.span("run_experiment", adopt=True) as outer:
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    child = next(s for s in tracer.spans if s.name == "run_forecaster")
    assert child.parent == outer.id
    assert child.thread != outer.thread


def test_check_accepts_the_reference_row(tmp_path):
    path = _write(tmp_path, [HEADER, ROW, SUMMARY])
    assert check.failed_reps(path, 1, REFERENCE, CAPS) == []


def test_check_flags_a_perturbed_regret(tmp_path):
    perturbed = ROW.replace("49.484954304107418", "49.484954404107418")
    path = _write(tmp_path, [HEADER, perturbed, SUMMARY])
    problems = check.failed_reps(path, 1, REFERENCE, CAPS)
    assert len(problems) == 1 and "regret" in problems[0]


def test_check_flags_missing_rows_failed_verdicts_and_caps(tmp_path):
    failing = ROW.replace(",pass,", ",fail,")
    assert check.failed_reps(_write(tmp_path, [HEADER, failing]), 1,
                             REFERENCE, CAPS) == ["0000: verdict fail"]
    assert check.failed_reps(_write(tmp_path, [HEADER]), 1, REFERENCE,
                             CAPS) == ["0000: row missing"]
    problems = check.failed_reps(_write(tmp_path, [HEADER, ROW]), 1,
                                 REFERENCE, (2.0, 1000.0))
    assert len(problems) == 1 and "tune caps" in problems[0]


def test_reader_accepts_an_extra_column(tmp_path):
    header = HEADER.replace("bound,", "bound,margin,")
    row = ROW.replace("132.83104560940154,", "132.83104560940154,83.3,")
    path = _write(tmp_path, [header, row])
    assert check.read_rows(path)["0000"]["margin"] == "83.3"
    assert check.failed_reps(path, 1, REFERENCE, CAPS) == []


def test_generation_is_deterministic_and_refuses_configs_beyond_caps():
    for workload in wl.WORKLOADS:
        assert wl.generate(workload, 3) == wl.generate(workload, 3 + wl.POOL)
    config = wl.generate("grid_d10", 0)[0]
    assert config.caps == (4.0, 1000.0)
    tight = dict(config.body, forecaster={"rule": "fixed_share",
                                          "tune": {"m0": 2, "U0": 1000}})
    with pytest.raises(wl.CapsError):
        wl.check_caps(wl.Config("tight", tight))
