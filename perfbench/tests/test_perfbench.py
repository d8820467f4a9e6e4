"""Tests for the benchmark's own logic: span self time, the output gate, the
series cross-check and the seed permutation."""

import hashlib
import json
import os

import pytest

import run
import tracer
from workloads import WORKLOADS, CrossCheck, Workload, load_expected, pass_order


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_of_hand_written_spans():
    # a [0, 10] holds b [2, 5], which holds c [3, 4]
    spans = [
        ["a", "x", 0.0, 10.0, -1, 10.0],
        ["b", "y", 2.0, 5.0, 0, 3.0],
        ["c", "z", 3.0, 4.0, 1, 1.0],
    ]
    assert tracer.self_times(spans) == [7.0, 2.0, 1.0]


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        t.call("leaf", "c", leaf)
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        t.call("middle", "b", middle)
        t.call("leaf", "c", leaf)

    t.call("outer", "a", outer)
    assert [s[tracer.BUSY] for s in t.spans] == [7.5, 3.5, 1.0, 1.0]
    assert tracer.self_times(t.spans) == [3.0, 2.5, 1.0, 1.0]
    layers = tracer.pass_layers([{"spans": t.spans, "counts": t.counts}])
    assert layers["busy"] == {"a": 3.0, "b": 2.5, "c": 2.0}
    assert layers["calls"] == {"a": 1, "b": 1, "c": 2}


def test_generator_span_is_busy_only_inside_resumptions():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def items():
        for x in range(3):
            clock.now += 1.0
            yield x
        clock.now += 0.5

    def consume():
        for _ in t.iterate("gen", "g", items(), "g.members"):
            clock.now += 10.0

    t.call("consume", "c", consume)
    layers = tracer.pass_layers([{"spans": t.spans, "counts": t.counts}])
    assert layers["busy"] == {"c": 30.0, "g": 3.5}
    assert t.counts["g.members"] == 3


def test_generator_count_survives_an_early_stop():
    t = tracer.Tracer(FakeClock())
    gen = t.iterate("gen", "g", iter(range(10)), "g.members")
    assert [next(gen), next(gen)] == [0, 1]
    gen.close()
    assert t.counts["g.members"] == 2


def _outcome(**fields):
    base = dict(
        argv="count --family B --n 10", status=0, sha256="ab" * 32, bytes_out=2, stdout=None,
        wall_s=0.1, cpu_s=0.1, first_byte_s=0.1, setup_s=0.05, maxrss_kb=1000,
        stats={"import_s": 0.01, "setup_at": 1.0}, stderr=b"", timed_out=False,
    )
    base.update(fields)
    return run.Outcome(**base)


def test_gate_accepts_the_recorded_exit_and_digest():
    assert run.check(_outcome(), {"exit": 0, "sha256": "ab" * 32}) is None
    # an exit status of 1 is success when the record says 1
    assert run.check(_outcome(status=1), {"exit": 1, "sha256": "ab" * 32}) is None


@pytest.mark.parametrize(
    "outcome, record, reason",
    [
        (_outcome(), {"exit": 0, "sha256": "cd" * 32}, "digest"),
        (_outcome(status=1), {"exit": 0, "sha256": "ab" * 32}, "exit 1"),
        (_outcome(stats=None, status=1, stderr=b"Traceback\nBoom\n"), {"exit": 1, "sha256": "ab" * 32}, "crashed"),
        (_outcome(timed_out=True), {"exit": 0, "sha256": "ab" * 32}, "timed out"),
        (_outcome(), None, "no recorded"),
    ],
)
def test_gate_rejects(outcome, record, reason):
    assert reason in run.check(outcome, record)


def test_a_tampered_digest_fails_a_real_invocation():
    argv = "count --family B --n 10"
    outcome = run.run_invocation(argv, trace=False, keep_stdout=True)
    assert outcome.status == 0 and outcome.stdout == b"6\n"
    assert outcome.sha256 == hashlib.sha256(b"6\n").hexdigest()
    good = {argv: {"exit": 0, "sha256": outcome.sha256}}
    tampered = {argv: {"exit": 0, "sha256": hashlib.sha256(b"7\n").hexdigest()}}
    workload = Workload(invocations=(argv,))
    deadline = outcome.wall_s + 1e9
    assert run.run_pass(workload, [argv], good, False, deadline).errors == {}
    errors = run.run_pass(workload, [argv], tampered, False, deadline).errors
    assert "digest" in errors[argv]


def test_recorded_gate_covers_every_invocation():
    expected = load_expected()
    for workload in WORKLOADS.values():
        for argv in workload.invocations:
            assert set(expected[argv]) >= {"exit", "sha256"}
    assert expected["verify --family A --refined --max-n 60"]["exit"] == 1


def _series(pairs):
    return "".join("%d: %d\n" % p for p in pairs).encode()


def test_series_crosscheck():
    a = _outcome(stdout=_series([(0, 1), (1, 1), (2, 1), (3, 2)]))
    same = _outcome(stdout=_series([(0, 1), (1, 1), (2, 1)]))
    other = _outcome(stdout=_series([(0, 1), (1, 1), (2, 2)]))
    assert run.crosscheck_error(a, same, 3) is None
    assert "degree 2" in run.crosscheck_error(a, other, 3)
    assert "fewer than 4" in run.crosscheck_error(a, same, 4)
    assert "unreadable" in run.crosscheck_error(a, _outcome(stdout=b"violations: 0\n"), 1)


def test_crosscheck_names_two_invocations_of_its_workload():
    for workload in WORKLOADS.values():
        if workload.crosscheck:
            assert isinstance(workload.crosscheck, CrossCheck)
            assert set(workload.crosscheck[:2]) <= set(workload.invocations)


def test_seed_permutes_the_order_only():
    invocations = WORKLOADS["stream-output"].invocations
    orders = {seed: pass_order(invocations, seed) for seed in range(10)}
    for order in orders.values():
        assert sorted(order) == sorted(invocations)
    assert pass_order(invocations, 3) == orders[3]
    assert len({tuple(o) for o in orders.values()}) > 1


def test_traced_child_reports_layers_and_counts():
    outcome = run.run_invocation("bijection P-drop-one --n 12", trace=True)
    assert outcome.status == 0 and outcome.bytes_out > 0
    stats = outcome.stats
    assert stats["missing"] == []
    layers = tracer.pass_layers([stats])
    metrics = tracer.layer_metrics(layers, outcome.bytes_out)
    assert metrics["bijections.rows"] > 0
    assert metrics["bijections.roundtrip_ok_frac"] == 1.0
    assert metrics["partitions.P.members"] > metrics["bijections.rows"]
    assert set(layers["busy"]) == {"cli", "bijections", "partitions.P"}


def test_traced_child_counts_table_lookups():
    outcome = run.run_invocation("count --family B --n 100", trace=True)
    counts = outcome.stats["counts"]
    # above the oracle limit: one lookup per length 0..100, no enumeration
    assert counts["recurrences.table.lookups"] == 101
    assert counts.get("partitions.B.members", 0) == 0


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    one = run.Pass(1.0, [_outcome()], {}, [run.REFERENCE_NOMINAL_S])
    assert [m["name"] for m in bench["end_to_end"]] == list(run.end_to_end([one]))
    traced = run.Pass(1.0, [_outcome(stats={"import_s": 0.01, "spans": [], "counts": {}})], {}, [])
    reported = run.per_layer([one], [traced])
    assert [m["name"] for m in bench["per_layer"]] == list(reported)


def test_times_are_scaled_to_the_nominal_host_speed():
    # the host ran the reference work at half the nominal speed
    slow = [run.Pass(4.0, [_outcome(cpu_s=3.0, setup_s=0.2)], {}, [2 * run.REFERENCE_NOMINAL_S] * 2),
            run.Pass(6.0, [_outcome(cpu_s=5.0, setup_s=0.2)], {}, [2 * run.REFERENCE_NOMINAL_S])]
    factor = run.host_factor(slow)
    assert factor == pytest.approx(0.5)
    metrics = run.end_to_end(slow, factor)
    assert metrics["wall_s"] == pytest.approx(2.5)
    assert metrics["cpu_s"] == pytest.approx(2.0)
    assert metrics["setup_s"] == pytest.approx(0.1)
    assert metrics["peak_rss_mb"] == pytest.approx(1000 / 1024)
    assert run.reference_sample() > 0
