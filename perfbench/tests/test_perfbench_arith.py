"""Tests for the benchmark's own arithmetic and failure accounting.

Run from the repository root: ``python -m pytest -q perfbench/tests``.
"""

import json
import threading
from pathlib import Path

import pytest

from perfbench import run, spans, workloads
from perfbench.spans import Span, Tracer, covered_length, self_times


def _span(i, parent, name, start, end, extra=None):
    return Span(i, parent, name, start, end, 0, extra)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered_length([(-5, 1), (9, 20)], 0, 10) == 2
    assert covered_length([(2, 3), (2, 3)], 0, 10) == 1
    assert covered_length([(11, 12)], 0, 10) == 0
    assert covered_length([], 0, 10) == 0


def test_self_time_nested_children():
    tree = [
        _span(1, None, "harness.run", 0.0, 10.0),
        _span(2, 1, "disorder.norm", 1.0, 4.0),
        _span(3, 2, "streams.raw", 2.0, 3.0),
        _span(4, 1, "dynamics.simulate", 5.0, 9.0),
    ]
    got = self_times(tree)
    assert got[1] == pytest.approx(10.0 - 3.0 - 4.0)
    assert got[2] == pytest.approx(2.0)  # the grandchild is the child's, not the root's
    assert got[3] == pytest.approx(1.0)
    assert got[4] == pytest.approx(4.0)


def test_self_time_overlapping_children_counts_union():
    # two pool workers run siblings at the same time under one run span
    tree = [
        _span(1, None, "harness.run", 0.0, 10.0),
        _span(2, 1, "dynamics.simulate", 1.0, 6.0),
        _span(3, 1, "dynamics.simulate", 2.0, 7.0),
        _span(4, 1, "disorder.norm", 9.0, 11.0),  # outlives its parent
    ]
    got = self_times(tree)
    assert got[1] == pytest.approx(10.0 - 6.0 - 1.0)
    assert got[2] == pytest.approx(5.0)
    assert got[3] == pytest.approx(5.0)


def test_tracer_parents_nested_calls_and_worker_threads():
    tracer = Tracer()

    def leaf():
        return tracer.call("streams.raw", lambda: [0, 0, 0], (), {},
                           lambda a, k, r: {"words": len(r)})

    def on_worker():
        worker = threading.Thread(target=lambda: tracer.call("disorder.norm", leaf, (), {}))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.call("harness.run", on_worker, (), {})
    by_name = {s.name: s for s in tracer.spans}
    run_span = by_name["harness.run"]
    assert run_span.parent is None
    assert by_name["disorder.norm"].parent == run_span.id
    assert by_name["disorder.norm"].thread != run_span.thread
    assert by_name["streams.raw"].parent == by_name["disorder.norm"].id
    assert by_name["streams.raw"].extra == {"words": 3}


def test_tracer_records_a_span_that_raises_without_counts():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.call("harness.run", boom, (), {}, lambda a, k, r: {"n": 1})
    (span,) = tracer.spans
    assert span.name == "harness.run" and span.extra is None


def test_layer_metrics_ratios_and_counts():
    tree = [
        _span(1, None, "harness.run", 0.0, 1.0),
        _span(2, 1, "disorder.norm", 0.0, 0.1, {"iterations": 10, "restarted": 1}),
        _span(3, 1, "disorder.norm", 0.1, 0.2, {"iterations": 30, "restarted": 0}),
        _span(4, 1, "disorder.norm", 0.2, 0.3, {"iterations": 20, "restarted": 0}),
        _span(5, 1, "disorder.norm", 0.3, 0.4, {"iterations": 40, "restarted": 1}),
        _span(6, 1, "dynamics.simulate", 0.5, 0.9,
              {"particle_steps": 4000, "activations": 2}),
        _span(7, 6, "streams.raw", 0.5, 0.7, {"words": 64}),
    ]
    m = spans.layer_metrics(tree)
    assert m["disorder.norm.calls"] == 4
    assert m["disorder.norm.iterations"] == 100
    assert m["disorder.norm.restart_frac"] == pytest.approx(0.5)
    assert m["disorder.norm.p50_ms"] == pytest.approx(100.0)
    assert m["streams.words"] == 64
    assert m["streams.self_s"] == pytest.approx(0.2)
    assert m["dynamics.simulate.self_s"] == pytest.approx(0.2)
    assert m["dynamics.ns_per_particle_step"] == pytest.approx(0.2 / 4000 * 1e9)
    assert m["dynamics.safeguard_activations"] == 2
    assert m["harness.self_s"] == pytest.approx(1.0 - 0.4 - 0.4)


def test_ratios_with_an_empty_base_are_zero():
    m = spans.layer_metrics([_span(1, None, "lindeberg.mc", 0.0, 1.0, {"samples": 5})])
    assert m["disorder.norm.restart_frac"] == 0.0
    assert m["disorder.norm.p90_ms"] == 0.0
    assert m["dynamics.ns_per_particle_step"] == 0.0
    assert m["lindeberg.mc.samples"] == 5


def test_cpu_per_wall_and_trace_overhead():
    plain = [{"wall_s": 2.0, "cpu_s": 2.2}, {"wall_s": 4.0, "cpu_s": 4.0},
             {"wall_s": 1.0, "cpu_s": 1.5}]
    assert run.cpu_per_wall(plain) == pytest.approx(1.1)
    traced = [{"wall_s": 2.5}, {"wall_s": 2.3}]
    assert run.trace_overhead(plain, traced) == pytest.approx(2.4 / 2.0 - 1.0)


def test_median_of_inputs_weighs_each_input_once():
    reps = [{"input": 0, "wall_s": 9.0}, {"input": 1, "wall_s": 2.0},
            {"input": 2, "wall_s": 3.0}, {"input": 0, "wall_s": 1.0},
            {"input": 0, "wall_s": 1.0}]
    # input 0's median is 1.0; the median of {1, 2, 3} is 2
    assert run.median_of_inputs(reps, "wall_s") == 2.0


def test_input_seeds_start_at_the_seed_and_differ():
    seeds = [run.input_seed(7, i) for i in range(run.INPUTS)]
    assert seeds[0] == 7
    assert len(set(seeds)) == run.INPUTS
    assert all(0 <= s < 1 << 64 for s in seeds)
    assert seeds == [run.input_seed(7, i) for i in range(run.INPUTS)]


def _cli(code=0, exc=None):
    def main(argv):
        if exc is not None:
            raise exc
        return code
    return main


def test_failure_accounting(tmp_path):
    cmd = workloads.Command("freeze-sweep", threads=2)
    ok = workloads.run_op(cmd, _cli(0), None, tmp_path / "c.json", tmp_path)
    exit2 = workloads.run_op(cmd, _cli(2), None, tmp_path / "c.json", tmp_path)
    raised = workloads.run_op(cmd, _cli(exc=AttributeError("detail")), None,
                              tmp_path / "c.json", tmp_path)
    usage = workloads.run_op(cmd, _cli(exc=SystemExit(1)), None,
                             tmp_path / "c.json", tmp_path)
    assert not ok.failed
    assert exit2.failed and "exit code 2" in exit2.error
    assert raised.failed and "AttributeError" in raised.error
    assert usage.failed

    def bad_replay(run_dir, law, replica, n):
        raise RuntimeError("mismatch")

    rp = workloads.Replay("universality", "gaussian", 0, 200)
    replayed = workloads.run_op(rp, None, bad_replay, tmp_path / "c.json", tmp_path)
    assert replayed.failed

    check_failed = workloads.OpResult("lindeberg", checks={"a": True, "b": False})
    assert check_failed.failed
    results = [ok, exit2, raised, usage, replayed, check_failed]
    assert workloads.fail_frac(results) == pytest.approx(5 / 6)
    with pytest.raises(ValueError):
        workloads.fail_frac([])


def test_run_op_passes_threads_and_store_paths(tmp_path):
    seen = []
    cmd = workloads.Command("universality", store_paths=True)
    workloads.run_op(cmd, lambda argv: seen.append(argv) or 0, None,
                     tmp_path / "c.json", tmp_path, threads=3)
    (argv,) = seen
    assert argv[0] == "universality"
    assert argv[argv.index("--threads") + 1] == "3"
    assert "--store-paths" in argv


def test_check_rep_flags_changed_bytes(tmp_path):
    out = tmp_path / "freeze-sweep"
    out.mkdir()
    (out / "freeze.csv").write_text("kappa,N\n5,100\n10,100\n")

    class Cfg:
        kappa_sweep = (5, 10)

    wl = workloads.Workload("w", "why", {}, (workloads.Command("freeze-sweep"),))
    first = [workloads.OpResult("freeze-sweep")]
    workloads.check_rep(wl, Cfg, tmp_path, first, None, None)
    assert not first[0].failed
    reference = {"freeze-sweep": first[0].digests}

    (out / "freeze.csv").write_text("kappa,N\n5,100\n10,101\n")
    second = [workloads.OpResult("freeze-sweep")]
    workloads.check_rep(wl, Cfg, tmp_path, second, reference, None)
    assert second[0].checks == {"freeze.csv has one row per kappa": True,
                                "csv bytes equal the reference run": False}
    assert second[0].failed


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_traced_wraps_entry_points_and_restores_them():
    import sys

    sys.path.insert(0, str(run.SRC))
    import spinlab.cli
    import spinlab.harness
    from perfbench import instrument

    before_harness = spinlab.harness.sample_matrix
    before_method = spinlab.streams.CounterStream.raw
    before_commands = dict(spinlab.cli._COMMANDS)
    tracer = Tracer()
    with instrument.traced(tracer):
        assert spinlab.cli._COMMANDS["universality"] is not before_commands["universality"]
        spinlab.harness.sample_matrix(spinlab.GAUSSIAN, 4, 1)
    assert spinlab.harness.sample_matrix is before_harness
    assert spinlab.streams.CounterStream.raw is before_method
    assert spinlab.cli._COMMANDS == before_commands

    m = spans.layer_metrics(tracer.spans)
    assert m["disorder.sample_matrix.calls"] == 1
    assert m["streams.raw.calls"] == 4  # one read per row
    assert m["streams.words"] == 4 * 2 * 4  # Box-Muller takes two words per normal
