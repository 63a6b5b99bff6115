"""Tests of the benchmark's own code: tracing, seeded inputs, output
checks and the time limit. Run with ``python3 -m pytest perfbench/tests``.
Heavy jobs (enumerate 4, degree-128 powers, order-6 exhaustive eq31) are
left out so the suite stays fast."""

import filecmp
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layertrace
import run
import workloads
from layertrace import Tracer
from workloads import Job

HERE = Path(__file__).resolve().parents[1]
SLOW = ("enumerate 4", "swap_n7", "brace6_0.txt --n 3", "brace6_1.txt --n 3", "o8c4")


def quick_jobs(workload, seed, workdir):
    jobs = workloads.prepare(workload, seed, workdir)
    return [j for j in jobs if not any(s in " ".join(j.argv) for s in SLOW)]


def test_self_time_on_synthetic_nested_call():
    ticks = iter([0.0, 1.0, 3.0, 3.5, 4.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("files.parse", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("cli.main", body)()
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["files.parse"] == 2
    assert tracer.self_s["files.parse"] == pytest.approx(2.5)  # (3-1) + (4-3.5)
    assert tracer.self_s["cli.main"] == pytest.approx(7.5)  # 10 - 2.5
    assert tracer.root_s == pytest.approx(10.0)
    m = tracer.metrics(wall_s=12.0, untraced_wall_s=8.0)
    assert m["cli.self_s"] == pytest.approx(7.5)
    assert m["trace.overhead_ratio"] == pytest.approx(1.5)


def test_span_closes_when_the_call_raises():
    ticks = iter([0.0, 2.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def fail():
        raise ValueError

    with pytest.raises(ValueError):
        tracer.wrap("brace.brace_from_tables", fail)()
    assert tracer.calls["brace.brace_from_tables"] == 1
    assert tracer.self_s["brace.brace_from_tables"] == pytest.approx(2.0)
    assert "brace.brace_from_tables.accepted" not in tracer.counts


def _attributes(ybe):
    out = []
    for module, attr, _ in layertrace.WRAPPED:
        owner = getattr(ybe, module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        out.append(owner)
    return out


def test_install_wraps_and_restores_every_attribute():
    ybe = workloads.ybe
    before = _attributes(ybe)
    with Tracer().installed(ybe):
        during = _attributes(ybe)
    assert all(d.__wrapped__ is b for d, b in zip(during, before))
    assert _attributes(ybe) == before


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layertrace.METRICS.items())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_writes_identical_files(workload, tmp_path):
    a = workloads.prepare(workload, 7, tmp_path / "a")
    b = workloads.prepare(workload, 7, tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert not mismatch and not errors

    def argvs(jobs, workdir):
        return [tuple(s.replace(str(workdir), "") for s in j.argv) for j in jobs]

    assert argvs(a, tmp_path / "a") == argvs(b, tmp_path / "b")


@pytest.mark.parametrize("workload", ["power", "groups", "brace"])
def test_another_seed_relabels_the_inputs(workload, tmp_path):
    workloads.prepare(workload, 7, tmp_path / "a")
    workloads.prepare(workload, 8, tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    _, mismatch, _ = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert mismatch


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_relabelled_jobs_pass_and_tracing_keeps_stdout(workload, tmp_path):
    """Two seeds give the same invariant lines (the checks pass on both),
    and running under the tracer changes no stdout or written file."""
    for seed in (1, 2):
        for job in quick_jobs(workload, seed, tmp_path / str(seed)):
            plain = run.run_job(job, 30)
            outs = [a for a in job.argv if a.endswith(".out.txt")]
            written = [Path(p).read_bytes() for p in outs]
            assert job.check(*plain) is None, job.argv
            tracer = Tracer()
            with tracer.installed(workloads.ybe):
                traced = run.run_job(job, 30)
            assert traced == plain, job.argv
            assert [Path(p).read_bytes() for p in outs] == written
            assert tracer.calls["cli.main"] == 1


def _corrupt_line(text, index):
    lines = text.split("\n")
    lines[index] = lines[index] + " 0"
    return "\n".join(lines)


def test_corrupted_output_fails(tmp_path):
    jobs = [j for w in ("power", "groups", "brace") for j in quick_jobs(w, 3, tmp_path)]
    kinds = {" ".join(j.argv[:2]) if j.argv[0] == "brace" else j.argv[0]: j for j in jobs}
    for kind in ("power", "permgroup", "brace find", "brace solution", "brace lambda-check",
                 "brace eq31-check"):
        job = kinds[kind]
        code, stdout = run.run_job(job, 30)
        assert job.check(code, stdout) is None
        assert job.check(code, _corrupt_line(stdout, 1)) is not None, kind
        assert job.check(code + 1, stdout) is not None, kind

    job = next(j for j in jobs if "-o" in j.argv)
    code, stdout = run.run_job(job, 30)
    out = Path(job.argv[job.argv.index("-o") + 1])
    text = out.read_text()
    assert job.check(code, stdout) is None
    out.write_text(_corrupt_line(text, 5))
    assert job.check(code, stdout) is not None
    rows = text.split("\n")
    rows[2], rows[3] = rows[3], rows[2]
    out.write_text("\n".join(rows))
    assert job.check(code, stdout) is not None
    out.unlink()
    assert job.check(code, stdout) is not None


def test_a_round_that_skips_the_write_fails(tmp_path, monkeypatch):
    """A file left by an earlier round must not pass a later round's check."""
    job = next(j for j in quick_jobs("power", 3, tmp_path) if j.outputs)
    assert run.run_round([job], deadline=time.monotonic() + 60)[2] == []
    assert job.outputs[0].exists()
    monkeypatch.setattr(workloads.ybe.cli.Path, "write_text", lambda self, *a, **k: None)
    failures = run.run_round([job], deadline=time.monotonic() + 60)[2]
    assert len(failures) == 1 and "cannot read" in failures[0]


def test_the_probe_scales_a_round_to_reference_speed():
    with run.SpeedProbe() as probe:
        t0 = time.process_time()
        while time.process_time() - t0 < 0.3:
            pass
    assert probe.count >= 3
    # two probes that took twice their nominal time: the host ran at half
    # speed, so the 0.2 s spent outside the probes count as 0.1 s
    probe.count, probe.wall = 2, 4 * run.REF_S
    assert probe.scale(0.2 + 4 * run.REF_S, 0.18 + 4 * run.REF_S) == (
        pytest.approx(0.1), pytest.approx(0.09))


def test_time_limit_counts_as_failed_without_stalling():
    job = Job(("enumerate", "4"), workloads.expect(0, "count: 168\n"), 0.2)
    t0 = time.perf_counter()
    wall, _, failures = run.run_round([job], deadline=time.monotonic() + 60)
    assert time.perf_counter() - t0 < 5
    assert wall < 5
    assert len(failures) == 1 and "time limit" in failures[0]


def test_past_the_deadline_a_job_is_not_started():
    job = Job(("enumerate", "3"), workloads.expect(0, "count: 12\n"), 10)
    _, _, failures = run.run_round([job], deadline=time.monotonic() - 1)
    assert len(failures) == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "brace", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
