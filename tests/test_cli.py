"""Tests for the command-line interface: exit codes, outputs, determinism."""

import hashlib
import json
import os
import re
import shlex
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import heritcc
from heritcc import cli, experiments, grm
from heritcc import simulate as simulate_module
from heritcc.cli import main
from heritcc.experiments import ExperimentConfig


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_FAST = ["--replications", "2", "--threads", "1"]
# (command line without its output flag, what stderr must say)
_USAGE_ERRORS = [
    (["experiment", "--K", "0", *_FAST], "prevalences must lie in (0, 1)"),
    (["experiment", "--eta", "1.5", *_FAST], "heritability must lie in [0, 1]"),
    (["experiment", "--target-cases", "0", *_FAST], "target_cases must be >= 1"),
    (["experiment", "--n-loci", "0", *_FAST], "n_loci must be >= 1"),
    (["consistency", "--eta", "1.5", *_FAST], "heritability must lie in [0, 1]"),
    (["simulate", "--n-loci", "0"], "n_loci must be >= 1"),
    (["simulate", "--target-cases", "0"], "target_cases must be >= 1"),
    (["consistency", "--replications", "0", "--threads", "1"], "replications must be >= 1"),
    (["consistency", "--N-values", "400", "0", *_FAST], "n_loci must be >= 1"),
    (["consistency", "--ratio-a", "0", *_FAST], "ratio_a must be > 0, got 0.0"),
    (["consistency", "--ratio-a", "-1", *_FAST], "ratio_a must be > 0, got -1.0"),
    (["experiment", "--replications", "2", "--threads", "0"], "worker count must be >= 1, got 0"),
    (["experiment", "--replications", "2", "--threads", "-1"], "worker count must be >= 1, got -1"),
    (["consistency", "--replications", "2", "--threads", "0"], "worker count must be >= 1, got 0"),
    (["moments", "--eta", "2"], "heritability must lie in [0, 1], got 2.0"),
    (["moments", "--eta", "0.5", "-0.5"], "heritability must lie in [0, 1], got -0.5"),
    (["bench", "--n-values", "20", "--N-values", "0"], "locus counts must be >= 1, got 0"),
    (["bench", "--n-values", "0", "--N-values", "40"], "study sizes must be >= 2, got 0"),
    (["moments", "--b-ij", "1000", "--N", "1"], "covariance matrix is not positive definite"),
    (["moments", "--a-i", "-200", "--N", "1"], "variances must be positive"),
    (["moments", "--N", "0"], "n_loci must be >= 1, got 0"),
    (["moments", "--N", "100", "-3"], "n_loci must be >= 1, got -3"),
    (["consistency", "--ratio-a", "inf", *_FAST], "ratio_a must be > 0, got inf"),
    (["consistency", "--ratio-a", "1e305", "--N-values", "2000", *_FAST],
     "with ratio_a * n_loci finite"),
    (["simulate", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
    (["experiment", "--seed", "-1", *_FAST], "seed must be a non-negative integer, got -1"),
    (["bench", "--seed", "-1", "--n-values", "20", "--N-values", "40"],
     "seed must be a non-negative integer, got -1"),
    # the flag's own value is named, not the first locus count's derived
    # seed, seed + n_loci = -1000
    (["consistency", "--seed", "-3000", "--N-values", "2000", "4000", *_FAST],
     "seed must be a non-negative integer, got -3000"),
    # every derived seed, seed + n_loci, is >= 0
    (["consistency", "--seed", "-5", "--N-values", "2000", *_FAST],
     "seed must be a non-negative integer, got -5"),
    # a repeated grid value, as a repeated method, would run the same work twice
    (["bench", "--n-values", "100", "100", "--N-values", "40"],
     "study sizes [100, 100] repeat one"),
    (["consistency", "--N-values", "400", "400", *_FAST], "locus counts [400, 400] repeat one"),
]


class TestExitCodes:
    def test_missing_input_exits_1_naming_path(self, capsys, tmp_path):
        missing = tmp_path / "missing.bin"
        code, _, err = _run(capsys, "estimate", "--in", str(missing))
        assert code == 1
        assert "missing.bin" in err

    def test_inverted_prevalences_usage_error(self, capsys, tmp_path):
        code, _, err = _run(
            capsys, "simulate", "--K", "0.6", "--P", "0.5",
            "--out", str(tmp_path / "x.bin"),
        )
        assert code == 2

    @pytest.mark.parametrize("argv, message", _USAGE_ERRORS,
                             ids=[f"argv{i}" for i in range(len(_USAGE_ERRORS))])
    def test_bad_study_parameter_is_usage_error(self, capsys, tmp_path, argv, message):
        # exit 2 with the subcommand's usage and the library's message, before
        # anything is printed or written
        out_flag = "--out-dir" if argv[0] == "experiment" else "--out"
        code, out, err = _run(capsys, *argv, out_flag, str(tmp_path / "out"))
        assert code == 2
        assert err.startswith(f"usage: heritcc {argv[0]} ")
        assert message in err and "Traceback" not in err
        assert out == ""
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["bench", "--n-values", "50", "--N-values", "200", "--methods", "first,sceond"],
        ["bench", "--n-values", "50", "--N-values", "200", "--methods", ""],
        ["experiment", "--replications", "2", "--threads", "1", "--methods", ","],
        ["experiment", "--replications", "2", "--threads", "1", "--methods", "first,first"],
    ])
    def test_unknown_empty_or_repeated_methods_are_usage_errors(self, capsys, tmp_path, argv):
        out_flag = "--out-dir" if argv[0] == "experiment" else "--out"
        code, _, err = _run(capsys, *argv, out_flag, str(tmp_path / "out"))
        assert code == 2
        assert "valid: ('first', 'second')" in err
        assert not any(tmp_path.iterdir())

    def test_unknown_flag_exits_2(self, capsys, tmp_path):
        code, _, _ = _run(
            capsys, "simulate", "--no-such-flag", "--out", str(tmp_path / "x.bin")
        )
        assert code == 2

    def test_missing_subcommand_exits_2(self, capsys):
        code, _, _ = _run(capsys)
        assert code == 2

    def test_success_exits_0(self, capsys, tmp_path):
        code, out, _ = _run(
            capsys, "simulate", "--K", "0.2", "--P", "0.5", "--eta", "0.5",
            "--n-loci", "100", "--target-cases", "20", "--seed", "3",
            "--out", str(tmp_path / "study.bin"),
        )
        assert code == 0
        assert (tmp_path / "study.bin").exists()


class TestDefaults:
    _FIELDS = {"eta": "eta_star", "K": "population_prevalence", "P": "study_prevalence",
               "n_loci": "n_loci", "target_cases": "target_cases",
               "genotype_kind": "genotype_kind", "seed": "seed"}

    def _defaults(self, *argv):
        return vars(cli._build_parser().parse_args(list(argv)))

    def test_study_flags_default_to_the_experiment_config(self):
        config = ExperimentConfig()
        experiment = self._defaults("experiment", "--out-dir", "out")
        simulate = self._defaults("simulate", "--out", "out.bin")
        for flag, name in (self._FIELDS | {"replications": "replications",
                                           "methods": "methods"}).items():
            assert experiment[flag] == getattr(config, name), flag
        for flag, name in self._FIELDS.items():
            assert simulate[flag] == (0 if flag == "seed" else getattr(config, name)), flag

    def test_consistency_genotype_kind_is_the_named_default(self):
        defaults = self._defaults("consistency", "--out", "out.csv")
        assert defaults["genotype_kind"] == experiments.CONSISTENCY_GENOTYPE_KIND

    def test_gamma_is_the_named_default(self):
        defaults = self._defaults("grm", "--in", "study.bin", "--out", "g.bin")
        assert defaults["gamma"] == grm.EN_GAMMA


class TestResolvedConfigEcho:
    def test_simulate_prints_all_settings(self, capsys, tmp_path):
        _, out, _ = _run(
            capsys, "simulate", "--K", "0.2", "--P", "0.5", "--n-loci", "50",
            "--target-cases", "10", "--seed", "1", "--out", str(tmp_path / "s.bin"),
        )
        assert "resolved configuration" in out
        for needle in ("K = 0.2", "P = 0.5", "n_loci = 50", "seed = 1"):
            assert needle in out


class TestPipelineRoundTrip:
    @pytest.fixture()
    def dataset(self, tmp_path, capsys):
        path = tmp_path / "study.bin"
        code, _, _ = _run(
            capsys, "simulate", "--K", "0.2", "--P", "0.5", "--eta", "0.4",
            "--n-loci", "300", "--target-cases", "40", "--seed", "11",
            "--out", str(path),
        )
        assert code == 0
        return path

    def test_estimate_both_methods(self, capsys, tmp_path, dataset):
        report_paths = [tmp_path / "report1.json", tmp_path / "report2.json"]
        for report_path in report_paths:
            code, out, _ = _run(
                capsys, "estimate", "--in", str(dataset), "--method", "both",
                "--out", str(report_path),
            )
            assert code == 0
        payload = json.loads(report_paths[0].read_text())
        # each report carries the METHODS name it was asked for
        assert [r["method"] for r in payload["reports"]] == ["first", "second"]
        assert [line.split(":")[0] for line in out.splitlines()[-2:]] == ["first", "second"]
        for r in payload["reports"]:
            assert 0.0 <= r["eta_hat"] <= 1.0
        # nothing in the report depends on timing
        assert report_paths[0].read_bytes() == report_paths[1].read_bytes()

    def test_estimate_without_out_prints_the_report(self, capsys, tmp_path, dataset):
        report_path = tmp_path / "report.json"
        code, _, _ = _run(capsys, "estimate", "--in", str(dataset), "--out", str(report_path))
        assert code == 0
        code, out, _ = _run(capsys, "estimate", "--in", str(dataset))
        assert code == 0
        # the report file's text, then one eta_hat line per method
        report = report_path.read_text()
        etas = "".join(f"{r['method']}: eta_hat={r['eta_hat']:.6f}\n"
                       for r in json.loads(report)["reports"])
        assert out.endswith(report + etas)

    def test_grm_subcommand_with_check(self, capsys, tmp_path, dataset):
        out_path = tmp_path / "grm.bin"
        code, out, _ = _run(
            capsys, "grm", "--in", str(dataset), "--out", str(out_path),
            "--check-en", "--gamma", "0.05",
        )
        assert code == 0
        assert out_path.exists()
        assert "uniform-smallness check" in out

    def test_bad_gamma_is_usage_error_before_any_output(self, capsys, tmp_path, dataset):
        out_path = tmp_path / "grm.bin"
        code, _, err = _run(
            capsys, "grm", "--in", str(dataset), "--out", str(out_path),
            "--check-en", "--gamma", "-1",
        )
        assert code == 2
        assert "gamma must lie in (0, 1/10)" in err
        assert not out_path.exists()

    def test_grm_csv_export(self, capsys, tmp_path, dataset):
        out_path = tmp_path / "grm.csv"
        code, _, _ = _run(
            capsys, "grm", "--in", str(dataset), "--out", str(out_path), "--csv"
        )
        assert code == 0
        first_line = out_path.read_text().splitlines()[0]
        assert len(first_line.split(",")) > 10


class TestMomentsGrid:
    def test_grid_csv(self, capsys, tmp_path):
        out = tmp_path / "grid.csv"
        code, _, _ = _run(
            capsys, "moments", "--a-i", "0", "1", "--b-ij", "0.5", "1.0",
            "--eta", "0.5", "--K", "0.1", "--P", "0.5", "--N", "10000",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("a_i,a_j,b_ij")
        assert len(lines) == 1 + 2 * 2  # header + grid

    def test_bad_prevalence_grid_is_usage_error(self, capsys, tmp_path):
        code, _, _ = _run(
            capsys, "moments", "--K", "0.6", "--P", "0.5",
            "--out", str(tmp_path / "g.csv"),
        )
        assert code == 2


class TestExperimentCommand:
    def test_experiment_writes_deterministic_csvs(self, capsys, tmp_path):
        args = [
            "experiment", "--eta", "0.5", "--K", "0.2", "--P", "0.5",
            "--n-loci", "300", "--target-cases", "25", "--replications", "3",
            "--seed", "7", "--methods", "first", "--threads", "1",
        ]
        code, _, _ = _run(capsys, *args, "--out-dir", str(tmp_path / "run1"))
        assert code == 0
        code, _, _ = _run(capsys, *args, "--out-dir", str(tmp_path / "run2"))
        assert code == 0
        for name in ("records.csv", "summary.csv"):
            b1 = (tmp_path / "run1" / name).read_bytes()
            b2 = (tmp_path / "run2" / name).read_bytes()
            assert b1 == b2

    def test_same_bytes_at_any_worker_count_and_block_budget(self, capsys, tmp_path,
                                                             monkeypatch):
        # one worker with a budget of three 300-locus rows, so the draw, the
        # liability pass and the relationship-matrix panels all take odd
        # heights; two spawned workers, which keep the default budget
        args = [
            "experiment", "--eta", "0.5", "--K", "0.2", "--P", "0.5",
            "--n-loci", "300", "--target-cases", "25", "--replications", "4",
            "--seed", "13", "--methods", "first,second",
            "--genotype-kind", "standard-normal",
        ]
        with monkeypatch.context() as patch:
            patch.setattr(simulate_module, "_BUFFER_BYTES", 3 * 8 * 300)
            code, _, _ = _run(capsys, *args, "--threads", "1", "--out-dir", str(tmp_path / "one"))
        assert code == 0
        code, _, _ = _run(capsys, *args, "--threads", "2", "--out-dir", str(tmp_path / "two"))
        assert code == 0
        for name in ("records.csv", "summary.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_config_file_flags_win(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(
            "# comment line\n"
            "eta=0.4\nK=0.2\nP=0.5\nn-loci=200\ntarget-cases=20\n"
            "replications=2\nseed=9\nmethods=first\nthreads=1\n"
        )
        code, out, _ = _run(
            capsys, "experiment", "--config", str(config),
            "--replications", "3",  # flag overrides the file
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 0
        assert "replications = 3" in out
        assert "eta_star = 0.4" in out
        records = (tmp_path / "out" / "records.csv").read_text()
        assert records.count("\n") >= 4  # config echo + header + 3 records

    def test_config_file_unknown_key(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("bogus=1\n")
        code, _, _ = _run(
            capsys, "experiment", "--config", str(config),
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 2

    def test_config_file_missing_exits_1_naming_path(self, capsys, tmp_path):
        code, _, err = _run(
            capsys, "experiment", "--config", str(tmp_path / "missing.cfg"),
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 1
        assert "missing.cfg" in err and "Traceback" not in err

    def test_config_file_malformed_line_exits_2(self, capsys, tmp_path):
        # a usage error, like an unknown key
        config = tmp_path / "bad.cfg"
        config.write_text("eta=0.4\nno equals sign here\n")
        code, _, err = _run(
            capsys, "experiment", "--config", str(config),
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 2
        assert err.startswith("usage: heritcc experiment ")
        assert "no equals sign here" in err
        assert not (tmp_path / "out").exists()

    def test_config_file_zero_threads_is_usage_error(self, capsys, tmp_path,
                                                     tmp_path_factory):
        # the file lives apart from tmp_path, which must stay empty
        config = tmp_path_factory.mktemp("config") / "exp.cfg"
        config.write_text("replications=2\nthreads=0\n")
        code, out, err = _run(
            capsys, "experiment", "--config", str(config),
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 2
        assert err.startswith("usage: heritcc experiment ")
        assert "worker count must be >= 1, got 0" in err
        assert out == ""
        assert not any(tmp_path.iterdir())

    def test_config_file_unparsable_value_exits_2(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("K=abc\n")
        code, _, err = _run(
            capsys, "experiment", "--config", str(config),
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 2
        assert "abc" in err


class TestBench:
    def test_tiny_grid(self, capsys, tmp_path):
        out = tmp_path / "timing.csv"
        code, _, _ = _run(
            capsys, "bench", "--n-values", "20", "--N-values", "40",
            "--methods", "first,second", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[-1].split(",")[:4] == ["20", "40", "40", "second"]

    def test_loci_constant_in_a_timing_study_are_dropped(self, capsys, tmp_path):
        # 20 rows of count genotypes at 10,000 loci meet constant loci: each
        # row names the grid's count and the count the matrix averaged over
        out = tmp_path / "timing.csv"
        code, printed, err = _run(capsys, "bench", "--n-values", "20", "--N-values", "10000",
                                  "--out", str(out))
        assert (code, err) == (0, "")
        n, n_loci, kept, _, _ = out.read_text().strip().splitlines()[-1].split(",")
        assert (n, n_loci) == ("20", "10000") and int(kept) < 10_000
        assert f"n=20 n_loci={kept} of 10000 second: " in printed


class TestConsistencyCommand:
    def test_writes_table(self, capsys, tmp_path):
        out = tmp_path / "consistency.csv"
        code, _, _ = _run(
            capsys, "consistency", "--K", "0.2", "--P", "0.5", "--ratio-a", "0.05",
            "--N-values", "200", "400", "--replications", "4", "--seed", "2",
            "--threads", "1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0].startswith("n_loci,")
        assert len(data) == 3

    def test_config_lines_name_the_genotype_kind(self, capsys, tmp_path):
        # two runs that differ only in the kind differ in its config line
        lines = {}
        for kind in ("standard-normal", "rademacher"):
            out = tmp_path / f"{kind}.csv"
            code, _, _ = _run(
                capsys, "consistency", "--K", "0.2", "--ratio-a", "0.05", "--N-values", "200",
                "--replications", "2", "--genotype-kind", kind, "--threads", "1",
                "--out", str(out),
            )
            assert code == 0
            lines[kind] = [l for l in out.read_text().splitlines() if l.startswith("#")]
        assert "# genotype_kind=standard-normal" in lines["standard-normal"]
        assert "# genotype_kind=rademacher" in lines["rademacher"]
        assert {l for l in lines["standard-normal"] if "genotype_kind" not in l} == \
            {l for l in lines["rademacher"] if "genotype_kind" not in l}

    def test_row_without_usable_replication_is_warned_about(self, capsys, tmp_path,
                                                            monkeypatch):
        # one worker runs the replications in this process, where every
        # simulation raises
        def failing(**kwargs):
            raise RuntimeError("stage failed")

        monkeypatch.setattr(experiments, "simulate_case_control_study", failing)
        out = tmp_path / "consistency.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = _run(
                capsys, "consistency", "--K", "0.2", "--ratio-a", "0.05",
                "--N-values", "400", "--replications", "4",
                "--threads", "1", "--out", str(out),
            )
        assert code == 0
        warning_lines = [l for l in err.splitlines() if l.startswith("warning:")]
        assert len(warning_lines) == 1
        assert "n_loci=400" in warning_lines[0]
        assert warning_lines[0].endswith("first error: RuntimeError: stage failed")
        row = out.read_text().strip().splitlines()[-1]
        assert row == "400,20,0,nan,nan,nan,nan,nan"


class TestOutputFiles:
    def test_outputs_get_the_umask_mode(self, capsys, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        moments_out, bench_out = tmp_path / "grid.csv", tmp_path / "timing.csv"
        assert _run(capsys, "moments", "--out", str(moments_out))[0] == 0
        assert _run(capsys, "bench", "--n-values", "20", "--N-values", "40",
                    "--methods", "first", "--out", str(bench_out))[0] == 0
        for path in (moments_out, bench_out):
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_failed_producer_leaves_neither_temp_file_nor_output(self, tmp_path):
        out_dir = tmp_path / "out"

        def producer(tmp):
            tmp.write_text("partial")
            raise RuntimeError("producer failed after writing")

        with pytest.raises(RuntimeError, match="producer failed after writing"):
            cli._atomic_produce(out_dir / "table.csv", producer)
        assert list(out_dir.iterdir()) == []


class TestModuleEntryPoint:
    def test_python_m_heritcc_version(self):
        # the package runs as ``python -m heritcc`` without an installed script
        env = dict(os.environ, PYTHONPATH=str(Path(heritcc.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "heritcc", "--version"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.strip() == heritcc.__version__


def _numpy_blas_is_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas["name"].lower()


class TestSimulationBytes:
    @pytest.mark.skipif(not _numpy_blas_is_openblas(), reason="numpy's BLAS is not OpenBLAS")
    def test_sim_bin_does_not_depend_on_the_blas_kernel(self, tmp_path):
        # the simulation calls no BLAS, so a seed fixes its bytes on any
        # host; Prescott is a kernel every x86-64 CPU runs
        digests = []
        for coretype in (None, "Prescott"):
            env = dict(os.environ, PYTHONPATH=str(Path(heritcc.__file__).parents[1]))
            env.pop("OPENBLAS_CORETYPE", None)
            if coretype:
                env["OPENBLAS_CORETYPE"] = coretype
            out = tmp_path / f"{coretype}.bin"
            proc = subprocess.run(
                [sys.executable, "-m", "heritcc", "simulate", "--n-loci", "500",
                 "--target-cases", "30", "--seed", "4", "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]


class TestDefaultThreads:
    def test_affinity_mask_not_host_cpu_count(self, monkeypatch):
        # a process pinned to 2 of 64 CPUs gets 2 workers
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert cli._default_threads() == 2

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert cli._default_threads() == 6


class TestReadme:
    def test_walkthrough_and_config_keys_match_the_parser(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## CLI walkthrough", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("heritcc ")]
        assert len(commands) >= 8
        parser = cli._build_parser()
        for command in commands:
            assert callable(parser.parse_args(command[1:]).run), command
        keys = re.search(r"valid keys\s+are\s+`([^`]*)`", readme).group(1)
        assert tuple(re.split(r",\s*", keys)) == cli._EXPERIMENT_CONFIG_KEYS
