"""Traced resynthesis end to end: span taxonomy, determinism, the CLI."""

import pytest

from repro.benchcircuits import random_circuit
from repro.cli import main
from repro.comparison import identification_cache
from repro.fabric import ProcessFabric
from repro.io import save_bench
from repro.obs import Registry, Tracer, read_trace, summarize_trace
from repro.resynth import REPORT_NUMBER_FIELDS, procedure2


def small_circuit():
    return random_circuit("obs40", 6, 4, 40, seed=3)


def traced_run(jobs=1):
    """A traced run, inline or (jobs > 1) on a traced process fabric."""
    identification_cache().clear()
    tracer = Tracer(meta={"jobs": jobs})
    fabric = ProcessFabric(jobs, tracer=tracer) if jobs > 1 else None
    try:
        report = procedure2(small_circuit(), k=4, seed=1, fabric=fabric,
                            tracer=tracer, registry=Registry())
    finally:
        if fabric is not None:
            fabric.close()
    return tracer, report


def structure(tracer):
    """Everything about a trace except the recorded durations."""
    return [
        (s.span_id, s.parent_id, s.name, tuple(sorted(s.attrs.items())))
        for s in tracer.spans()
    ]


class TestTracedResynthesis:
    def test_span_taxonomy_of_a_serial_run(self):
        tracer, report = traced_run()
        names = {s.name for s in tracer.spans()}
        assert {"run", "setup", "pass", "candidate",
                "extract", "identify"} <= names
        (run,) = tracer.find("run")
        assert run.attrs["passes"] == report.passes
        assert run.attrs["replacements"] == report.replacements
        assert len(tracer.find("pass")) == report.passes

    def test_pass_spans_carry_cache_hit_columns(self):
        tracer, _ = traced_run()
        for span in tracer.find("pass"):
            assert span.attrs["tt_hits"] >= 0
            assert span.attrs["tt_misses"] >= 0
            assert "replacements" in span.attrs

    def test_pass_span_walls_match_report_pass_seconds(self):
        tracer, report = traced_run()
        walls = [s.wall_s for s in tracer.find("pass")]
        assert len(walls) == len(report.pass_seconds)
        for wall, recorded in zip(walls, report.pass_seconds):
            assert wall == pytest.approx(recorded, rel=0.25, abs=0.02)

    def test_tracing_does_not_change_the_report(self):
        _, traced = traced_run()
        identification_cache().clear()
        plain = procedure2(small_circuit(), k=4, seed=1,
                           registry=Registry())
        for field in REPORT_NUMBER_FIELDS:
            assert getattr(traced, field) == getattr(plain, field), field


class TestJobs2Determinism:
    def test_span_structure_is_identical_across_runs(self):
        tr1, rep1 = traced_run(jobs=2)
        tr2, rep2 = traced_run(jobs=2)
        for field in REPORT_NUMBER_FIELDS:
            assert getattr(rep1, field) == getattr(rep2, field), field
        assert structure(tr1) == structure(tr2)

    def test_prime_spans_nest_under_their_pass(self):
        tracer, _ = traced_run(jobs=2)
        primes = tracer.find("prime")
        assert primes
        pass_ids = {s.span_id for s in tracer.find("pass")}
        for span in primes:
            assert span.parent_id in pass_ids
        child_names = {s.name for s in tracer.spans()
                       if s.parent_id in {p.span_id for p in primes}}
        assert "prime.enumerate" in child_names


class TestTraceCli:
    @pytest.fixture()
    def traced_file(self, tmp_path):
        bench = str(tmp_path / "c.bench")
        save_bench(small_circuit(), bench)
        trace = str(tmp_path / "run.trace.jsonl")
        assert main(["resynth", bench, "--k", "4", "--verify", "0",
                     "--trace", trace]) == 0
        return trace

    def test_resynth_trace_writes_valid_jsonl(self, traced_file):
        header, spans = read_trace(traced_file)
        assert header["meta"]["k"] == 4
        assert any(s["name"] == "run" for s in spans)

    def test_trace_subcommand_renders_summary(self, traced_file, capsys):
        capsys.readouterr()
        assert main(["trace", traced_file]) == 0
        out = capsys.readouterr().out
        assert "per-stage totals:" in out
        assert "per-pass breakdown:" in out
        assert "tt_hits" in out
        assert "candidate" in out

    def test_trace_subcommand_top_zero_hides_span_list(self, traced_file,
                                                       capsys):
        capsys.readouterr()
        assert main(["trace", traced_file, "--top", "0"]) == 0
        assert "spans by wall time" not in capsys.readouterr().out

    def test_trace_subcommand_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format": "nope"}\n')
        assert main(["trace", str(bad)]) == 1

    def test_summarize_trace_structured_view(self, traced_file):
        summary = summarize_trace(traced_file)
        assert summary["stages"]["run"]["count"] == 1
        assert summary["passes"]
        row = summary["passes"][0]
        assert row["pass_no"] == 1
        assert row["tt_hit_rate"] is None or 0.0 <= row["tt_hit_rate"] <= 1.0
