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
    """Every setting is declared once: a cluster flag by its ``ClusterConfig``
    field (``flag`` metadata, annotation, default) and the registry it is
    checked against, a method flag by its trainer's signature. The CLI
    generates both."""

    @staticmethod
    def _actions(parser, command):
        sub = parser._subparsers._group_actions[0].choices[command]
        return {a.dest: a for a in sub._actions}

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_defaults_and_choices_come_from_config_and_registries(
        self, command, monkeypatch
    ):
        for env in ("unset", "overridden"):
            if env == "unset":
                monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
                monkeypatch.delenv("REPRO_PS_SHARDS", raising=False)
            else:
                monkeypatch.setenv("REPRO_EXECUTOR", "process")
                monkeypatch.setenv("REPRO_PS_SHARDS", "3")
            self._check_cluster_flags(command, env)

    def _check_cluster_flags(self, command, env):
        import argparse
        import dataclasses
        import typing

        from repro.cli import CLUSTER_FLAGS
        from repro.cluster.elastic import SCALE_POLICIES
        from repro.cluster.executor import EXECUTOR_KINDS
        from repro.comm.topology import TOPOLOGIES
        from repro.core import ClusterConfig
        from repro.core.robust import AGGREGATORS

        actions = self._actions(build_parser(), command)
        config = ClusterConfig()
        expected = ("process", 3) if env == "overridden" else ("serial", 1)
        assert (config.executor, config.ps_shards) == expected
        fields = dataclasses.fields(ClusterConfig)
        flagged = [f for f in fields if "flag" in f.metadata]
        assert CLUSTER_FLAGS == flagged and len(flagged) == 14
        # The cluster flags are exactly the flagged fields (``--n-workers`` and
        # ``--seed`` go to the workload builder, which sizes and seeds more
        # than the cluster).
        named = {f.name for f in fields} & set(actions) - {"n_workers", "seed"}
        assert named == {f.name for f in flagged}
        registries = {
            "executor": EXECUTOR_KINDS,
            "topology": TOPOLOGIES.names(),
            "aggregator": AGGREGATORS.names(),
            "scale_policy": SCALE_POLICIES,
        }
        hints = typing.get_type_hints(ClusterConfig)
        for f in flagged:
            a = actions[f.name]
            spelled = f.metadata["flag"]["name"] or "--" + f.name.replace("_", "-")
            assert a.option_strings == [spelled]
            assert a.help == f.metadata["flag"]["help"]
            assert a.default == getattr(config, f.name), f.name
            kinds = [k for k in typing.get_args(hints[f.name]) if k is not type(None)]
            kind = kinds[0] if kinds else hints[f.name]
            if kind is bool:
                assert isinstance(a, argparse._StoreTrueAction), f.name
            elif f.name in registries:
                assert a.type is None and a.choices is not None, f.name
                assert sorted(a.choices) == sorted(registries[f.name]), f.name
            else:
                assert a.choices is None, f.name
                assert a.type is (None if kind is str else kind), f.name
        assert {f.name for f in flagged if f.metadata["flag"]["name"]} == {
            "executor_procs", "net_fault_spec", "elastic_spec",
        }

    #: Settings whose one value lives in their subsystem's constructor; the
    #: five with a flag are listed with it.
    REMOVED = {
        "overlap_fraction": None, "device_flops": None,
        "health_threshold": "--health-threshold", "clip_factor": "--clip-factor",
        "retry_base_ms": "--retry-base-ms", "min_workers": "--min-workers",
        "max_workers": "--max-workers",
    }

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_removed_settings_are_refused(self, command):
        from repro.core import ClusterConfig

        base = [command, "--workload", "resnet_cifar10"]
        build_parser().parse_args(base + ["--retry-max", "2"])  # a kept flag parses
        for name, spelled in self.REMOVED.items():
            with pytest.raises(TypeError, match=name):
                ClusterConfig(**{name: 1})
            if spelled is not None:
                with pytest.raises(SystemExit):
                    build_parser().parse_args(base + [spelled, "2"])

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_method_flags_take_the_trainer_signature_defaults(self, command):
        import inspect

        from repro.cli import METHOD_FLAGS
        from repro.core.selsync import AGGREGATIONS
        from repro.experiments.runner import _TRAINERS

        actions = self._actions(build_parser(), command)
        assert sorted(actions["method"].choices) == sorted(_TRAINERS)
        assert {m: list(kws) for m, kws in METHOD_FLAGS.items()} == {
            "selsync": ["delta", "aggregation"],
            "fedavg": ["c_fraction", "e_factor"],
            "ssp": ["staleness"],
            "easgd": ["rho", "tau"],
        }
        for method, keywords in METHOD_FLAGS.items():
            params = inspect.signature(_TRAINERS[method]).parameters
            for kw in keywords:
                a = actions[kw]
                default = params[kw].default
                assert a.default == default and type(a.default) is type(default), kw
                assert a.type is (None if kw == "aggregation" else type(default)), kw
        assert actions["aggregation"].choices == list(AGGREGATIONS)

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
        assert set(seen) == {f.name for f in cli.CLUSTER_FLAGS}
        args = build_parser().parse_args(["run", "--elastic", "off"])
        assert args.elastic_spec == "off"


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

    def test_run_writes_flat_metrics_summary(self, tmp_path, monkeypatch, capsys):
        """``--metrics-summary`` is the flat, name-ordered view of the trace;
        its byte total is the trace's and the trainer's ledger."""
        import json

        from repro.experiments import runner
        from repro.obs.sink import read_trace

        trainers, build = [], runner.build_trainer

        def spy(*args):
            trainers.append(build(*args))
            return trainers[-1]

        monkeypatch.setattr(runner, "build_trainer", spy)
        trace, summary = tmp_path / "t.jsonl", tmp_path / "m.json"
        assert main(
            ["run", *self.ARGS, "--method", "bsp", "--trace-path", str(trace),
             "--metrics-summary", str(summary)]
        ) == 0
        m = json.loads(summary.read_text())
        assert list(m) == sorted(m) and m["step.sim_time"]["count"] == 12
        collective = sum(
            e.data["bytes"] for e in read_trace(trace)[1] if e.etype == "collective"
        )
        assert m["comm.bytes"] == collective == trainers[0].group.bytes_synced > 0

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
