"""Tests for the repro-9c command-line interface."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.cli import main
from repro.testdata import TestSet


class TestCodingTable:
    def test_prints_table1(self, capsys):
        assert main(["coding-table", "--k", "8"]) == 0
        out = capsys.readouterr().out
        assert "C1" in out and "C9" in out
        assert "K=8" in out


class TestCompress:
    def test_benchmark_compress(self, capsys):
        assert main(["compress", "--benchmark", "s5378", "--k", "8"]) == 0
        out = capsys.readouterr().out
        assert "CR%" in out
        assert "23754" in out  # |T_D| of s5378

    def test_file_compress_and_output(self, tmp_path, capsys):
        ts = TestSet.from_strings(["00000000", "0000X01X"], name="demo")
        src = tmp_path / "demo.test"
        ts.save(src)
        dst = tmp_path / "stream.test"
        assert main(["compress", str(src), "--k", "8", "-o", str(dst)]) == 0
        assert dst.exists()

    def test_missing_input_errors(self):
        with pytest.raises(SystemExit):
            main(["compress"])


class TestDecompress:
    def test_roundtrip_via_files(self, tmp_path, capsys):
        ts = TestSet.from_strings(["00000000", "11111111"], name="demo")
        src = tmp_path / "demo.test"
        ts.save(src)
        stream = tmp_path / "stream.test"
        main(["compress", str(src), "--k", "8", "-o", str(stream)])
        out = tmp_path / "out.test"
        assert main([
            "decompress", str(stream), "--k", "8", "--cells", "8",
            "--length", "16", "-o", str(out),
        ]) == 0
        assert TestSet.load(out).covers(ts)

    def test_fast_and_reference_paths_agree(self, tmp_path, capsys):
        ts = TestSet.from_strings(["0110X01X", "1111000X"], name="demo")
        src = tmp_path / "demo.test"
        ts.save(src)
        stream = tmp_path / "stream.test"
        main(["compress", str(src), "--k", "8", "-o", str(stream)])
        fast_out = tmp_path / "fast.test"
        reference_out = tmp_path / "reference.test"
        assert main([
            "decompress", str(stream), "--k", "8", "--cells", "8",
            "--length", "16", "--fast", "-o", str(fast_out),
        ]) == 0
        assert "fast path" in capsys.readouterr().out
        assert main([
            "decompress", str(stream), "--k", "8", "--cells", "8",
            "--length", "16", "--reference", "-o", str(reference_out),
        ]) == 0
        assert "reference path" in capsys.readouterr().out
        assert TestSet.load(fast_out) == TestSet.load(reference_out)

    def test_fast_and_reference_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "decompress", "whatever.test", "--k", "8", "--cells", "8",
                "--fast", "--reference", "-o", str(tmp_path / "x.test"),
            ])


class TestAnalysisCommands:
    def test_sweep(self, capsys):
        assert main(["sweep", "--benchmark", "s5378"]) == 0
        out = capsys.readouterr().out
        assert "CR%" in out and "LX%" in out

    def test_compare(self, capsys):
        assert main(["compare", "--benchmark", "s5378"]) == 0
        out = capsys.readouterr().out
        assert "9c" in out and "fdr" in out

    def test_tat(self, capsys):
        assert main(["tat", "--benchmark", "s5378", "--k", "8",
                     "--p", "2", "8"]) == 0
        out = capsys.readouterr().out
        assert "TAT%" in out

    def test_sweep_json(self, capsys):
        import json

        assert main(["sweep", "--benchmark", "s5378", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["td_bits"] == 23754
        assert "8" in data["sweep"]

    def test_compare_json(self, capsys):
        import json

        assert main(["compare", "--benchmark", "s5378", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "9c" in data["codes"]

    def test_tat_json(self, capsys):
        import json

        assert main(["tat", "--benchmark", "s5378", "--json",
                     "--p", "8"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["tat"]["8"]["tat_percent"] <= \
            data["tat"]["8"]["cr_percent"]

    def test_benchmarks_listing(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        for name in ("s5378", "s38584", "ckt1"):
            assert name in out


class TestExtendedCommands:
    def test_freq(self, capsys):
        assert main(["freq", "--benchmark", "s5378"]) == 0
        out = capsys.readouterr().out
        assert "reassigned" in out

    def test_efficiency(self, capsys):
        assert main(["efficiency", "--benchmark", "s5378", "--k", "8"]) == 0
        out = capsys.readouterr().out
        assert "efficiency (huffman)" in out

    def test_rtl_stdout(self, capsys):
        assert main(["rtl", "--k", "8"]) == 0
        assert "module ninec_decoder" in capsys.readouterr().out

    def test_rtl_multiscan_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "dec.v"
        assert main(["rtl", "--k", "8", "--chains", "16",
                     "-o", str(out_file)]) == 0
        assert "ninec_multiscan" in out_file.read_text()


class TestAdaptiveCommand:
    def test_adaptive(self, capsys):
        assert main(["adaptive", "--benchmark", "s5378"]) == 0
        out = capsys.readouterr().out
        assert "adaptive" in out and "window choices" in out


class TestSystemCommand:
    def test_system_s27(self, capsys):
        assert main(["system", "--circuit", "s27", "--k", "4",
                     "--screen", "3"]) == 0
        out = capsys.readouterr().out
        assert "golden signature" in out
        assert "3/3" in out

    def test_unknown_circuit(self):
        with pytest.raises(SystemExit):
            main(["system", "--circuit", "nope"])


class TestResilienceCommand:
    def test_framed_campaign(self, capsys):
        assert main(["resilience", "--circuit", "s27", "--k", "4",
                     "--error-rate", "1e-2", "--trials", "6"]) == 0
        out = capsys.readouterr().out
        assert "detection rate" in out
        assert "silent escape rate" in out
        assert "framed" in out

    def test_raw_stream_campaign(self, capsys):
        assert main(["resilience", "--circuit", "s27", "--k", "4",
                     "--error-rate", "1e-2", "--trials", "6",
                     "--no-framing", "--channel", "burst"]) == 0
        out = capsys.readouterr().out
        assert "raw" in out

    def test_json_output(self, capsys):
        import json

        assert main(["resilience", "--circuit", "s27", "--k", "4",
                     "--error-rate", "1e-2", "--trials", "5",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["circuit"] == "s27"
        assert 0.0 <= data["overall"]["silent_escape_rate"] <= 1.0
        assert data["rates"][0]["trials"] == 5

    def test_unknown_circuit(self):
        with pytest.raises(SystemExit):
            main(["resilience", "--circuit", "nope"])


class TestAtpgCommand:
    def test_atpg_s27(self, tmp_path, capsys):
        out_file = tmp_path / "s27.test"
        assert main(["atpg", "--circuit", "s27", "--k", "4",
                     "-o", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "fault coverage" in out
        assert out_file.exists()

    def test_unknown_circuit(self):
        with pytest.raises(SystemExit):
            main(["atpg", "--circuit", "nope"])


class TestCompressJson:
    def test_benchmark_json(self, capsys):
        import json

        assert main(["compress", "--benchmark", "s5378", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "s5378"
        assert data["td_bits"] == 23754
        assert 0 < data["te_bits"] < data["td_bits"]
        assert data["cr_percent"] == pytest.approx(
            100.0 * (1 - data["te_bits"] / data["td_bits"]), abs=0.01
        )

    def test_json_with_output_file(self, tmp_path, capsys):
        import json

        from repro.testdata import TestSet as TS

        src = tmp_path / "demo.test"
        TS.from_strings(["00000000", "0000X01X"], name="demo").save(src)
        dst = tmp_path / "stream.test"
        assert main(["compress", str(src), "--json", "-o", str(dst)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["output"] == str(dst)
        assert dst.exists()


class TestJsonErrorPaths:
    """Under --json, failures are structured objects, never tracebacks."""

    def test_nonexistent_input_emits_structured_error(self, tmp_path,
                                                      capsys):
        import json

        missing = tmp_path / "does_not_exist.test"
        exit_code = main(["compress", str(missing), "--json"])
        assert exit_code != 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["command"] == "compress"
        assert payload["error"]["type"] == "FileNotFoundError"
        assert "does_not_exist.test" in payload["error"]["message"]

    def test_missing_input_emits_structured_error(self, capsys):
        import json

        exit_code = main(["compress", "--json"])
        assert exit_code != 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["command"] == "compress"
        assert "benchmark" in payload["error"]["message"]

    def test_non_json_path_still_raises(self, tmp_path):
        missing = tmp_path / "does_not_exist.test"
        with pytest.raises(FileNotFoundError):
            main(["compress", str(missing)])


class TestWorkersValidation:
    """--workers below 1 is a typed usage error, never a silent run."""

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_compress_rejects(self, workers):
        with pytest.raises(SystemExit) as excinfo:
            main(["compress", "--benchmark", "s5378",
                  "--workers", workers])
        assert excinfo.value.code == (
            f"compress: --workers must be >= 1, got {workers}"
        )

    def test_compress_json_emits_structured_error(self, capsys):
        import json

        exit_code = main(["compress", "--benchmark", "s5378", "--json",
                          "--workers", "0"])
        assert exit_code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == {
            "command": "compress",
            "message": "compress: --workers must be >= 1, got 0",
        }

    def test_decompress_rejects(self, tmp_path):
        stream = tmp_path / "stream.test"
        TestSet.from_strings(["0"], name="s").save(stream)
        with pytest.raises(SystemExit) as excinfo:
            main(["decompress", str(stream), "--k", "8", "--cells", "8",
                  "-o", str(tmp_path / "out.test"), "--workers", "-2"])
        assert excinfo.value.code == (
            "decompress: --workers must be >= 1, got -2"
        )
        assert not (tmp_path / "out.test").exists()


class TestWorkersStartNoProcess:
    """``--workers N`` runs the codec in the calling process."""

    def test_round_trip_leaves_no_child_process(self, tmp_path):
        if not os.path.isdir("/proc/self"):
            pytest.skip("needs /proc")
        # children are found by parent pid in /proc/<pid>/stat, which
        # works where /proc/<pid>/task/<tid>/children is not compiled in
        script = textwrap.dedent(f"""
            import os
            from pathlib import Path

            from repro.cli import main
            from repro.testdata.mintest import load_benchmark

            tmp = Path({str(tmp_path)!r})
            bench = load_benchmark("s9234")
            assert main(["compress", "--benchmark", "s9234", "--k", "8",
                         "--workers", "2", "-o", str(tmp / "w2.test")]) == 0
            assert main(["decompress", str(tmp / "w2.test"), "--k", "8",
                         "--cells", str(bench.num_cells),
                         "--length", str(bench.total_bits),
                         "--workers", "2", "-o", str(tmp / "d2.test")]) == 0
            children = []
            for stat in Path("/proc").glob("[0-9]*/stat"):
                try:
                    ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
                except OSError:  # exited while we looked
                    continue
                if ppid == os.getpid():
                    children.append(stat.parent.name)
            print("children:", *children)
        """)
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True,
        )
        assert result.stdout.splitlines()[-1] == "children:"


class TestProfileCommand:
    def test_profile_json_writes_baseline(self, tmp_path, capsys):
        import json

        from repro.obs.profile import SCENARIOS, validate_baseline

        out = tmp_path / "BENCH_obs.json"
        assert main([
            "profile", "--circuit", "s27", "--scenarios", "compress",
            "decompress", "--no-fastpath", "--json", "-o", str(out),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_baseline(
            payload, required_scenarios=("compress", "decompress")
        ) == []
        assert json.loads(out.read_text()) == payload

    def test_profile_table(self, tmp_path, capsys):
        out = tmp_path / "BENCH_obs.json"
        assert main([
            "profile", "--circuit", "s27", "--scenarios", "compress",
            "--no-fastpath", "-o", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "compress" in text and str(out) in text
        assert out.exists()

    def test_decode_scenario_prints_fastpath_line(self, tmp_path, capsys):
        out = tmp_path / "BENCH_obs.json"
        assert main([
            "profile", "--circuit", "s27", "--scenarios", "decode",
            "--no-fastpath", "-o", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "decode fast path" in text
        assert "identical output: True" in text

    def test_reference_decode_flag(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_obs.json"
        assert main([
            "profile", "--circuit", "s27", "--scenarios", "decompress",
            "--reference", "--no-fastpath", "--json", "-o", str(out),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        extra = payload["scenarios"]["decompress"]["extra"]
        assert extra["fast"] is False
        counters = payload["scenarios"]["decompress"]["metrics"]["counters"]
        assert counters["decode.reference_calls"] == 1

    def test_unknown_circuit(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["profile", "--circuit", "nope",
                  "-o", str(tmp_path / "b.json")])


class TestStatsCommand:
    @pytest.fixture()
    def baseline(self, tmp_path):
        path = tmp_path / "BENCH_obs.json"
        assert main([
            "profile", "--circuit", "s27", "--scenarios", "compress",
            "session", "--no-fastpath", "-o", str(path), "--json",
        ]) == 0
        return path

    def test_stats_table(self, baseline, capsys):
        capsys.readouterr()  # drop the profile output
        assert main(["stats", "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "encode.calls" in out
        assert "session.runs" in out

    def test_stats_json_scenario_filter(self, baseline, capsys):
        import json

        capsys.readouterr()
        assert main(["stats", "--baseline", str(baseline),
                     "--scenario", "compress", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert list(data) == ["compress"]
        assert data["compress"]["counters"]["encode.calls"] == 1

    def test_missing_baseline(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["stats", "--baseline", str(tmp_path / "absent.json")])


class TestCompact:
    def test_compact_table(self, capsys):
        assert main(["compact", "--circuit", "s27", "--faults", "8",
                     "--x-density", "0.0", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "xcompact" in out and "misr" in out
        assert "holds" in out  # X-code verifier status lines

    def test_compact_json_schema_and_checks(self, capsys):
        import json

        from repro.obs.profile import validate_baseline

        assert main(["compact", "--circuit", "s27", "--faults", "8",
                     "--x-density", "0.0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_baseline(payload) == []
        extra = payload["scenarios"]["compaction"]["extra"]
        checks = extra["xcode_checks"]
        assert {c["matrix"] for c in checks} == {"parity", "xcompact", "cw3"}
        assert all(c["holds"] for c in checks)
        assert all(p["detection_rate"] == 1.0
                   for p in extra["points"] if p["density"] == 0.0)

    def test_compact_writes_output_file(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "compaction.json"
        assert main(["compact", "--circuit", "s27", "--faults", "4",
                     "--x-density", "0.0", "--json",
                     "-o", str(out_file)]) == 0
        emitted = json.loads(capsys.readouterr().out)
        assert json.loads(out_file.read_text()) == emitted

    def test_compact_compactor_selection(self, capsys):
        import json

        assert main(["compact", "--circuit", "s27", "--faults", "4",
                     "--x-density", "0.0", "--compactor", "misr",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        points = payload["scenarios"]["compaction"]["extra"]["points"]
        assert {p["compactor"] for p in points} == {"misr"}

    def test_unknown_circuit_structured_error(self, capsys):
        import json

        exit_code = main(["compact", "--circuit", "nosuch", "--json"])
        assert exit_code != 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["command"] == "compact"
        assert "nosuch" in payload["error"]["message"]

    def test_unknown_circuit_non_json_raises(self):
        with pytest.raises(SystemExit):
            main(["compact", "--circuit", "nosuch"])
