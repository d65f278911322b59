"""Tests for the top-level demo CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.dataset == "nba"
        assert args.strategy == "hhs"
        assert args.budget == 50

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--dataset", "magic"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--probability-backend", "forest"],
            ["--compile-node-budget", "8"],
            ["--circuit-cache-size", "0"],
        ],
    )
    def test_rejects_removed_backend_flags(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "unrecognized arguments: %s" % " ".join(argv) in capsys.readouterr().err

    def test_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--strategy", "magic"])


class TestMain:
    def test_movies_run(self, capsys):
        assert main(["--dataset", "movies", "--budget", "6", "--latency", "3"]) == 0
        out = capsys.readouterr().out
        assert "movies" in out
        assert "F1" in out

    def test_nba_run(self, capsys):
        assert main(["--n", "80", "--budget", "8", "--latency", "2"]) == 0
        out = capsys.readouterr().out
        assert "nba-80" in out
        assert "posted" in out

    @pytest.mark.parametrize("selection", ["batched", "scalar"])
    def test_selection_flag_with_perf_report(self, selection, capsys):
        code = main(
            ["--dataset", "movies", "--budget", "6", "--latency", "3",
             "--selection", selection, "--perf"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "selection (%s):" % selection in out
        assert "fresh evaluations" in out

    def test_utility_cache_size_flag(self, capsys):
        code = main(
            ["--dataset", "movies", "--budget", "6", "--latency", "3",
             "--utility-cache-size", "0"]
        )
        assert code == 0

    def test_resume_requires_checkpoint(self, capsys):
        assert main(["--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_invalid_fault_rate_is_clean_error(self, capsys):
        assert main(["--drop-rate", "1.5"]) == 2
        assert "drop_rate" in capsys.readouterr().err

    def test_invalid_config_is_clean_error(self, capsys):
        assert main(["--n", "40", "--alpha", "-1"]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--n-jobs", "2"), ("--ctable-prune", "off")]
    )
    def test_removed_flags_are_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--n", "40", flag, value])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    def test_corrupt_checkpoint_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = main(
            ["--n", "80", "--budget", "8", "--latency", "2",
             "--checkpoint", str(bad), "--resume"]
        )
        assert code == 2
        assert "cannot resume" in capsys.readouterr().err

    def test_fault_injection_reports_degraded(self, capsys):
        code = main(
            [
                "--n", "80", "--budget", "10", "--latency", "3",
                "--drop-rate", "0.5", "--transient-every", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DEGRADED run" in out
        assert "answered" in out

    def test_checkpoint_write_and_resume(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "run.ckpt.json")
        base = ["--n", "80", "--budget", "8", "--latency", "2",
                "--checkpoint", checkpoint]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--resume"]) == 0
        assert "resumed from checkpoint" in capsys.readouterr().out

    def test_synthetic_run(self, capsys):
        assert (
            main(
                [
                    "--dataset",
                    "synthetic",
                    "--n",
                    "80",
                    "--budget",
                    "8",
                    "--latency",
                    "2",
                    "--strategy",
                    "fbs",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "synthetic-80" in out


class TestIntegrityAndGuardFlags:
    def test_flag_defaults(self):
        args = build_parser().parse_args([])
        assert args.strict_integrity is False
        assert args.reask_budget_frac is None
        assert args.adpll_node_budget is None
        assert args.adpll_deadline_s is None
        assert args.reliability_prior is None

    def test_flags_parse(self):
        args = build_parser().parse_args(
            [
                "--strict-integrity",
                "--reask-budget-frac", "0.5",
                "--adpll-node-budget", "5000",
                "--adpll-deadline-s", "0.25",
                "--reliability-prior", "2", "3",
            ]
        )
        assert args.strict_integrity is True
        assert args.reask_budget_frac == 0.5
        assert args.adpll_node_budget == 5000
        assert args.adpll_deadline_s == 0.25
        assert args.reliability_prior == [2.0, 3.0]

    def test_strict_run_with_spam(self, capsys):
        code = main(
            [
                "--dataset", "movies",
                "--budget", "6",
                "--latency", "3",
                "--strict-integrity",
                "--spam-fraction", "0.5",
                "--worker-accuracy", "0.95",
            ]
        )
        assert code == 0
        assert "F1" in capsys.readouterr().out

    def test_deadline_flag_reports_approximations(self, capsys):
        code = main(
            [
                "--dataset", "nba",
                "--n", "30",
                "--missing-rate", "0.4",
                "--alpha", "0.1",
                "--budget", "12",
                "--latency", "3",
                "--seed", "3",
                "--adpll-deadline-s", "1e-9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resource guard:" in out

    def test_invalid_guard_config_is_clean_error(self, capsys):
        code = main(["--dataset", "movies", "--reask-budget-frac", "1.5"])
        assert code == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_invalid_prior_is_clean_error(self, capsys):
        code = main(["--dataset", "movies", "--reliability-prior", "0", "1"])
        assert code == 2
        assert "invalid configuration" in capsys.readouterr().err
