"""CLI driver tests."""

import filecmp
import json
import os
import shutil

import pytest

from repro.cli import main

SOURCE = """
double a[100]; double b[100];
int main(void) {
    int i; double s;
    for (i = 0; i < 100; i++) { a[i] = 0.5; b[i] = 2.0; }
    s = 0.0;
    for (i = 0; i < 100; i++) s = s + a[i] * b[i];
    return (int)s;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    return str(path)


class TestCompile:
    def test_wm_listing(self, source_file, capsys):
        assert main(["compile", source_file]) == 0
        out = capsys.readouterr().out
        assert "SinD" in out

    def test_m68020_listing(self, source_file, capsys):
        assert main(["compile", source_file, "--target", "m68020"]) == 0
        out = capsys.readouterr().out
        assert "fmoved" in out

    def test_opt_none(self, source_file, capsys):
        assert main(["compile", source_file, "--opt", "none"]) == 0
        out = capsys.readouterr().out
        assert "SinD" not in out

    def test_function_selection(self, source_file, capsys):
        assert main(["compile", source_file, "--function", "main"]) == 0
        assert "main:" in capsys.readouterr().out

    def test_unknown_target_exits(self, source_file):
        with pytest.raises(SystemExit):
            main(["compile", source_file, "--target", "pdp11"])


class TestRun:
    def test_run_wm(self, source_file, capsys):
        assert main(["run", source_file]) == 0
        out = capsys.readouterr().out
        assert "result: 100" in out
        assert "cycles:" in out
        assert "OK" in out

    def test_run_scalar(self, source_file, capsys):
        assert main(["run", source_file, "--target", "m88100"]) == 0
        out = capsys.readouterr().out
        assert "result: 100" in out
        assert "weighted cycles" in out

    def test_run_all_levels(self, source_file, capsys):
        for level in ("none", "baseline", "recurrence", "full"):
            assert main(["run", source_file, "--opt", level]) == 0
            assert "result: 100" in capsys.readouterr().out


class TestRunJson:
    def test_run_json_counters(self, source_file, capsys):
        assert main(["run", source_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["result"] == 100
        assert data["status"] == "OK"
        assert data["cycles"] > 0
        assert set(data["unit_instructions"]) == {"IEU", "FEU"}
        assert data["telemetry"]["cycles"] == data["cycles"]

    def test_run_json_scalar(self, source_file, capsys):
        assert main(["run", source_file, "--target", "m88100",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["result"] == 100
        assert data["memory_refs"] is not None
        assert "unit_instructions" not in data

    def test_run_trace_out(self, source_file, tmp_path, capsys):
        trace = tmp_path / "run.trace.json"
        assert main(["run", source_file, "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e["name"].startswith("opt.") for e in events)
        assert any(e["name"].startswith("IEU") for e in events)


class TestTrace:
    def test_trace_file(self, source_file, tmp_path, capsys):
        out = tmp_path / "prog.trace.json"
        assert main(["trace", source_file, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert str(out) in text
        assert "span timings" in text
        data = json.loads(out.read_text())
        assert data["traceEvents"]

    def test_trace_benchmark_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "lloop5", "--scale", "0.1"]) == 0
        capsys.readouterr()
        assert (tmp_path / "lloop5.trace.json").exists()

    def test_trace_directory_no_run(self, tmp_path, capsys):
        src_dir = tmp_path / "src"
        src_dir.mkdir()
        (src_dir / "one.c").write_text(SOURCE)
        (src_dir / "two.c").write_text(SOURCE)
        out_dir = tmp_path / "traces"
        assert main(["trace", str(src_dir),
                     "--no-run", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        written = sorted(p.name for p in out_dir.glob("*.trace.json"))
        assert written == ["one.trace.json", "two.trace.json"]

    def test_trace_json_mode(self, source_file, tmp_path, capsys,
                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", source_file, "--no-run", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "spans" in next(iter(data.values()))

    def test_trace_empty_directory_exits(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit):
            main(["trace", str(empty)])


class TestFigures:
    def test_figures_command(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "Figure 7" in out
        assert "SinD" in out and "@+" in out


class TestTables:
    """``repro tables``: its plumbing runs on the session's artifacts
    (test_figures_tables checks those against the goldens)."""

    @pytest.fixture
    def built(self, monkeypatch, artifacts):
        from repro.reporting import golden
        monkeypatch.setattr(golden, "build", lambda workers=None: artifacts)
        return artifacts

    def test_check_goldens_exits_0(self, built, golden_dir, capsys):
        assert main(["tables", "--check", golden_dir]) == 0
        assert capsys.readouterr().out == \
            f"6 artifacts match {golden_dir}\n"

    def test_check_names_the_altered_field(self, built, golden_dir,
                                           tmp_path, capsys):
        altered = tmp_path / "golden"
        shutil.copytree(golden_dir, altered)
        path = altered / "table2.json"
        data = json.loads(path.read_text())
        data["dot-product"]["stream"]["cycles"] += 1
        path.write_text(json.dumps(data, indent=2) + "\n")
        assert main(["tables", "--check", str(altered)]) == 1
        got = built["table2"]["dot-product"]["stream"]["cycles"]
        assert capsys.readouterr().out.splitlines() == [
            f"table2.dot-product.stream.cycles: golden {got + 1}, "
            f"got {got}"]

    def test_golden_writes_the_committed_bytes(self, built, golden_dir,
                                               tmp_path, capsys):
        out = tmp_path / "fresh"
        assert main(["tables", "--golden", str(out)]) == 0
        names = sorted(os.listdir(golden_dir))
        assert sorted(os.listdir(out)) == names
        assert filecmp.cmpfiles(golden_dir, out, names,
                                shallow=False)[0] == names

    def test_text_and_json_output(self, built, capsys):
        from repro.reporting import golden
        assert main(["tables"]) == 0
        assert capsys.readouterr().out == \
            "\n\n".join(golden.render(built).values()) + "\n"
        assert main(["tables", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert {name: data[name] for name in built} == built

    def test_failed_job_exits_4(self, monkeypatch, capsys):
        """A quarantined job fails the table, naming the job and its
        error, instead of reading as a row of zero counts."""
        from repro.perf import parallel
        from repro.reporting import golden, stream_detection
        real = parallel._run_job

        def run_job(job):
            if job.name == "array-init":
                raise RuntimeError("injected")
            return real(job)

        monkeypatch.setattr(parallel, "_run_job", run_job)
        monkeypatch.setattr(golden, "build", lambda workers=None: {
            "detection": stream_detection(workers=workers)})
        assert main(["tables"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: job failed: array-init: RuntimeError: injected"]


class TestExitCodes:
    """Error class -> distinct exit code, one-line stderr, no traceback."""

    def _file(self, tmp_path, text):
        path = tmp_path / "prog.c"
        path.write_text(text)
        return str(path)

    def test_lex_error_exits_2(self, tmp_path, capsys):
        path = self._file(tmp_path, "int main(void) { return 0; } @\n")
        assert main(["compile", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = self._file(tmp_path, "int main(void) { int x = ; }\n")
        assert main(["compile", path]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err
        assert "line 1:" in err  # position, with column
        assert "Traceback" not in err

    def test_semantic_error_exits_3(self, tmp_path, capsys):
        path = self._file(
            tmp_path,
            "int main(void) { double d; int *p; p = p + d; return 0; }\n")
        assert main(["compile", path]) == 3
        err = capsys.readouterr().err
        assert "semantic error" in err
        assert "line 1" in err

    def test_simulation_error_exits_4(self, tmp_path, capsys):
        path = self._file(tmp_path, SOURCE)
        assert main(["run", path, "--max-cycles", "10"]) == 4
        err = capsys.readouterr().err
        assert "simulation error" in err
        # the structured report follows on its own line as JSON
        report = json.loads(err.splitlines()[1])
        assert report["kind"] == "cycle-limit"
        assert report["max_cycles"] == 10

    def test_pass_crash_exits_5_under_strict(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_QA_BREAK_PASS", "dce")
        path = self._file(tmp_path, SOURCE)
        assert main(["compile", path, "--strict"]) == 5
        err = capsys.readouterr().err
        assert "pass crash" in err
        assert "dce" in err

    def test_broken_pass_degrades_without_strict(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_QA_BREAK_PASS", "dce")
        path = self._file(tmp_path, SOURCE)
        assert main(["run", path]) == 0
        assert "result: 100" in capsys.readouterr().out
