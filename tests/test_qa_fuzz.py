"""repro.qa: program generator, differential oracle, bundles, fuzz CLI."""

import json
import os

from repro.cli import main
from repro.qa import (
    CONFIGS, Failure, FuzzReport, check_program, gen_program, run_fuzz,
)
from repro.qa.bundle import load_bundle, write_bundle


class TestGenerator:
    def test_deterministic(self):
        assert gen_program(7) == gen_program(7)
        assert gen_program(8) == gen_program(8)

    def test_seeds_vary(self):
        sources = {gen_program(seed) for seed in range(40)}
        assert len(sources) == 40

    def test_well_formed(self):
        for seed in range(20):
            source = gen_program(seed)
            assert "int main(void)" in source
            assert source.count("{") == source.count("}")

    def test_feature_coverage(self):
        # Across a modest seed range the generator must exercise the
        # interesting language surface, not just affine int loops.
        corpus = "\n".join(gen_program(seed) for seed in range(60))
        assert "double" in corpus          # FP kernels
        assert "while (" in corpus         # non-for control flow
        assert "if (" in corpus            # conditional kernels
        assert "<<" in corpus or ">>" in corpus   # shift mixes
        assert "/" in corpus               # division kernels
        assert "%" in corpus               # remainder in init loops

    def test_edge_case_bounds(self):
        # Zero-trip loops (constant lo >= constant hi) must appear
        # somewhere in the corpus.
        import re
        corpus = "\n".join(gen_program(seed) for seed in range(60))
        bounds = re.findall(r"for \(i = (\d+); i < (\d+);", corpus)
        assert any(int(lo) >= int(hi) for lo, hi in bounds)


class TestDifferential:
    def test_configs_cover_all_levels(self):
        assert list(CONFIGS) == ["O0", "O1", "O2", "O3"]

    def test_generated_programs_agree(self):
        report = run_fuzz(25, seed=0)
        assert isinstance(report, FuzzReport)
        assert report.count == 25
        details = [f.detail for f in report.failures]
        assert report.ok, details

    def test_crash_recorded_as_failure(self, monkeypatch):
        # Break a non-degradable pass: every compile raises, and the
        # oracle must report it as a crash finding, not propagate.
        monkeypatch.setenv("REPRO_QA_BREAK_PASS", "regalloc")
        failure = check_program(gen_program(0), seed=0)
        assert failure is not None
        assert failure.kind == "crash"
        assert failure.seed == 0
        assert "PassCrashError" in failure.detail

    def test_degradable_pass_crash_is_a_finding(self, monkeypatch):
        # Streaming may roll back without failing a compile; the fuzzer
        # compiles strictly, so the crash still surfaces as a finding.
        monkeypatch.setenv("REPRO_QA_BREAK_PASS", "streaming")
        report = run_fuzz(1, seed=0)
        assert [f.kind for f in report.failures] == ["crash"]
        assert "'streaming'" in report.failures[0].detail

    def test_configs_compile_strictly(self):
        assert all(make().strict for make in CONFIGS.values())

    def test_on_failure_callback(self, monkeypatch):
        monkeypatch.setenv("REPRO_QA_BREAK_PASS", "regalloc")
        seen = []
        report = run_fuzz(2, seed=5, on_failure=seen.append)
        assert len(seen) == len(report.failures) == 2
        assert [f.seed for f in seen] == [5, 6]

    def test_progress_callback(self):
        ticks = []
        run_fuzz(3, seed=0, progress=lambda done, total: ticks.append(
            (done, total)))
        assert ticks == [(1, 3), (2, 3), (3, 3)]


class TestBundle:
    def test_roundtrip(self, tmp_path):
        failure = Failure(seed=11, kind="value-mismatch", config="O3/sim",
                          detail="O3: returned 1, oracle 2",
                          source="int main(void) { return 1; }\n",
                          expected=2, actual=1)
        directory = write_bundle(str(tmp_path / "b"), failure,
                                 fault_plan={"mem_drop": [200]},
                                 sim_report={"error": "SimError"})
        source, manifest = load_bundle(directory)
        assert source == failure.source
        assert manifest["seed"] == 11
        assert manifest["kind"] == "value-mismatch"
        assert manifest["fault_plan"] == {"mem_drop": [200]}
        assert "repro fuzz --replay" in manifest["repro_command"]
        report = json.loads((tmp_path / "b" / "report.json").read_text())
        assert report == {"error": "SimError"}

    def test_original_kept_when_reduced(self, tmp_path):
        failure = Failure(seed=None, kind="crash", config="pipeline",
                          detail="x", source="int main(void){return 0;}\n")
        write_bundle(str(tmp_path), failure,
                     original="int unused;\nint main(void){return 0;}\n")
        assert (tmp_path / "original.c").exists()


class TestFuzzCLI:
    def test_smoke(self, capsys):
        assert main(["fuzz", "--count", "3", "--seed", "0"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_json_report(self, capsys):
        assert main(["fuzz", "--count", "2", "--seed", "0", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 2
        assert data["seed"] == 0
        assert data["failures"] == []
        assert "manifest" in data

    def test_replay_ok(self, tmp_path, capsys):
        path = tmp_path / "ok.c"
        path.write_text("int main(void) { return 3; }\n")
        assert main(["fuzz", "--replay", str(path)]) == 0

    def test_failures_write_bundles_and_exit_1(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_QA_BREAK_PASS", "regalloc")
        out = tmp_path / "bundles"
        assert main(["fuzz", "--count", "2", "--seed", "0",
                     "--out", str(out)]) == 1
        bundles = sorted(os.listdir(out))
        assert bundles == ["seed-0", "seed-1"]
        source, manifest = load_bundle(str(out / "seed-0"))
        assert source == gen_program(0)
        assert manifest["kind"] == "crash"
