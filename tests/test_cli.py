"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParsing:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "bogus"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "resnet_cifar10"
        assert args.method == "selsync"
        assert args.delta == 0.3

    def test_compare_rejects_supervisor_flags(self, capsys):
        # ``compare`` runs unsupervised: accepting the flag and ignoring it
        # would be a silent no-op, so argparse must refuse it.
        for flag in ("--max-recoveries", "--divergence-threshold"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["compare", flag, "3"])
            assert "unrecognized arguments" in capsys.readouterr().err
        assert build_parser().parse_args(["run", "--max-recoveries", "3"])

    def test_divergence_threshold_needs_max_recoveries(self, capsys, monkeypatch):
        # Refused before the workload is built, not after.
        monkeypatch.setattr(
            "repro.cli._build", lambda *a: pytest.fail("workload was built")
        )
        assert main(["run", "--divergence-threshold", "5.0"]) == 2
        assert "requires --max-recoveries" in capsys.readouterr().out


class TestClusterFlags:
    """Cluster defaults and choices are stated once, on ``ClusterConfig`` and
    the registries; the CLI derives them."""

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_defaults_and_choices_come_from_config_and_registries(
        self, command, monkeypatch
    ):
        from repro.cli import CLUSTER_FLAGS
        from repro.cluster.elastic import SCALE_POLICIES
        from repro.cluster.executor import EXECUTOR_KINDS
        from repro.comm.topology import TOPOLOGIES
        from repro.core import ClusterConfig
        from repro.core.robust import AGGREGATORS
        from repro.experiments.runner import _TRAINERS

        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        monkeypatch.setenv("REPRO_PS_SHARDS", "3")
        parser = build_parser()
        args = parser.parse_args([command])
        config = ClusterConfig()
        assert (config.executor, config.ps_shards) == ("process", 3)
        assert len(CLUSTER_FLAGS) == 19
        for dest, field in CLUSTER_FLAGS.items():
            assert getattr(args, dest) == getattr(config, field), dest
        sub = parser._subparsers._group_actions[0].choices[command]
        choices = {a.dest: a.choices for a in sub._actions if a.choices}
        assert sorted(choices["aggregator"]) == sorted(AGGREGATORS.names())
        assert sorted(choices["scale_policy"]) == sorted(SCALE_POLICIES)
        assert sorted(choices["topology"]) == sorted(TOPOLOGIES.names())
        assert sorted(choices["method"]) == sorted(_TRAINERS)
        assert sorted(choices["executor"]) == sorted(EXECUTOR_KINDS)

    def test_parsed_flags_reach_the_cluster_config(self, monkeypatch):
        import repro.cli as cli

        seen = {}

        class Workload:
            def build(self, **kw):
                seen.update(kw["cluster_kwargs"])

        monkeypatch.setattr(cli, "get_workload", lambda name: Workload())
        args = build_parser().parse_args(
            ["run", "--net-faults", "", "--elastic", "", "--fault-spec", "",
             "--procs", "2", "--retry-max", "7", "--health", "--aggregator", "krum"]
        )
        cli._build(args, cli._method_spec(args))
        # '' behaves exactly like unset for the two specs that promise it.
        assert seen["net_fault_spec"] is None and seen["elastic_spec"] is None
        assert seen["fault_spec"] == ""
        assert (seen["executor_procs"], seen["retry_max"]) == (2, 7)
        assert seen["health"] is True and seen["aggregator"] == "krum"
        assert set(seen) == set(cli.CLUSTER_FLAGS.values())
        assert build_parser().parse_args(["run", "--elastic", "off"]).elastic == "off"


class TestListing:
    def test_workloads_listed(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("resnet_cifar10", "vgg_cifar100", "alexnet_imagenet",
                     "transformer_wikitext"):
            assert name in out

    def test_methods_listed(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        for name in ("bsp", "selsync", "fedavg", "ssp", "localsgd", "easgd"):
            assert name in out


class TestRun:
    ARGS = [
        "--workload", "resnet_cifar10",
        "--n-workers", "2",
        "--steps", "12",
        "--eval-every", "6",
        "--data-scale", "0.1",
        "--batch-size", "8",
    ]

    def test_run_selsync(self, capsys):
        assert main(["run", *self.ARGS, "--method", "selsync", "--delta", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "lssr" in out and "sim_time_s" in out

    def test_run_saves_log(self, tmp_path, capsys):
        log_path = tmp_path / "run.jsonl"
        assert main(
            ["run", *self.ARGS, "--method", "bsp", "--save-log", str(log_path)]
        ) == 0
        from repro.utils.serialization import load_runlog

        back = load_runlog(log_path)
        assert back.n_steps == 12

    def test_compare(self, capsys):
        assert main(
            ["compare", *self.ARGS, "--methods", "bsp,localsgd"]
        ) == 0
        out = capsys.readouterr().out
        assert "bsp" in out and "localsgd" in out

    def test_fig_quick_runner(self, capsys):
        assert main(["fig", "fig1a"]) == 0
        out = capsys.readouterr().out
        assert "resnet101" in out

    def test_fig_unknown_name(self, capsys):
        assert main(["fig", "fig99"]) == 2

    def test_results_collation(self, tmp_path, capsys):
        rdir = tmp_path / "results"
        rdir.mkdir()
        (rdir / "fig1.txt").write_text("table one")
        (rdir / "fig2.txt").write_text("table two")
        out_file = tmp_path / "RESULTS.md"
        assert main(
            ["results", "--results-dir", str(rdir), "--output", str(out_file)]
        ) == 0
        text = out_file.read_text()
        assert "## fig1" in text and "table two" in text

    def test_results_missing_dir(self, tmp_path):
        assert main(
            ["results", "--results-dir", str(tmp_path / "nope"),
             "--output", str(tmp_path / "r.md")]
        ) == 1

    def test_table1_single_workload(self, capsys):
        assert main(
            [
                "table1",
                "--workloads", "resnet_cifar10",
                "--n-workers", "2",
                "--steps", "12",
                "--eval-every", "6",
                "--data-scale", "0.1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "BSP" in out and "SelSync" in out
