"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.obs.events import CATEGORIES


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.trace == "W1"
        assert args.ap == "zhuge"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_invalid_trace_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--trace", "W9"])

    @pytest.mark.parametrize("argv", [
        ["run", "--duration", "-5"],
        ["run", "--duration", "0"],
        ["run", "--duration", "nan"],
        ["compare", "--duration", "-1"],
        ["campaign", "--duration", "0"],
        ["resilience", "--duration", "-2"],
        ["control", "--duration", "-3"],
        ["run", "--faults", "bogus@x"],
        ["run", "--faults", "blackout@5"],  # a blackout needs a duration
        ["control", "--storm", "reset@-1"],
    ])
    def test_bad_values_exit_2_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        [command, flag, value]
        for command in ("run", "compare")
        for flag, values in (("--max-mbps", ("0", "-3", "nan", "inf", "x")),
                             ("--competitors", ("-2", "1.5", "x")),
                             ("--interferers", ("-1", "two")))
        for value in values
    ] + [["topology", "interference", "--interferers", "-1"]])
    def test_bad_numeric_flags_exit_2_in_one_line(self, argv, capsys,
                                                  monkeypatch):
        self._refuse_commands(monkeypatch)
        monkeypatch.setattr("repro.cli.cmd_topology", self._refuse)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "Traceback" not in err
        assert f"error: argument {argv[-2]}: " in errors[0]

    @pytest.mark.parametrize("argv", [
        [command, flag, value]
        for command in ("campaign", "resilience", "control")
        for flag, values in (("--timeout", ("-1", "0", "nan", "inf")),
                             ("--retries", ("-2", "1.5")),
                             ("--cache-prune", ("-5", "nan", "inf", "x")))
        for value in values
    ] + [
        ["campaign", flag, value]
        for flag, values in (("--chaos", ("bogus@1", "hang@x", "hang@0")),
                             ("--duration", ("-1", "0", "nan")),
                             ("--sample-budget", ("-1", "2.5")),
                             ("--chaos", ("hang@-3", "kill-worker",
                                          "exit-run@1.5")),
                             ("--aps", ("0", "-3")))
        for value in values
    ] + [["topology", "generate", "--aps", "0"]])
    def test_bad_campaign_flags_exit_2_in_one_line(self, argv, capsys,
                                                   monkeypatch):
        self._refuse_commands(monkeypatch)
        for name in ("cmd_control", "cmd_topology", "cmd_city_campaign"):
            monkeypatch.setattr(f"repro.cli.{name}", self._refuse)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "Traceback" not in err
        assert f"error: argument {argv[-2]}: " in errors[0]

    @pytest.mark.parametrize("argv", [
        ["campaign", "--journal", "city.journal"],
        ["campaign", "--resume"],
        ["campaign", "--checkpoint-every", "8"],
        ["campaign", "--hang-timeout", "1"],
        ["campaign", "--mem-limit-mb", "64"],
    ])
    def test_removed_resume_flags_exit_2(self, argv, capsys, monkeypatch):
        # A killed campaign resumes by re-running on its --cache-dir;
        # --timeout is the one cell deadline and --sample-budget the
        # one switch to sketch percentiles.
        self._refuse_commands(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    def test_chaos_without_chaos_dir_exits_2_in_one_line(self, capsys,
                                                         monkeypatch):
        # The fire-once markers must outlive the planned crash.
        self._refuse_commands(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--chaos", "hang@1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "requires --chaos-dir" in err

    @pytest.mark.parametrize("argv, flag", [
        (["campaign", "--seeds", "x"], "--seeds"),
        (["campaign", "--seeds", ","], "--seeds"),
        (["campaign", "--seeds", "1,,x"], "--seeds"),
        (["campaign", "--traces", "W9"], "--traces"),
        (["campaign", "--traces", "W1,W9"], "--traces"),
        (["campaign", "--schemes", "Nope+FIFO"], "--schemes"),
        (["resilience", "--lengths", "x"], "--lengths"),
        (["resilience", "--lengths", "0"], "--lengths"),
        (["resilience", "--seeds", ","], "--seeds"),
        (["control", "--seeds", ","], "--seeds"),
        (["compare", "--ap-modes", "bogus"], "--ap-modes"),
        (["compare", "--ap-modes", ","], "--ap-modes"),
        (["run", "--duration", "1", "--trace-out", "x.json",
          "--trace-events", "bogus"], "--trace-events"),
        (["compare", "--trace-events", "queue,,sim"], "--trace-events"),
    ])
    def test_bad_list_flags_exit_2_in_one_line(self, argv, flag, capsys,
                                               monkeypatch):
        self._refuse_commands(monkeypatch)
        monkeypatch.setattr("repro.cli.cmd_control", self._refuse)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "Traceback" not in err
        assert f"error: argument {flag}: " in errors[0]

    def test_list_flags_parse_to_tuples(self):
        parse = build_parser().parse_args
        campaign = parse(["campaign", "--seeds", " 3, 1 ,",
                          "--traces", "W2,C1"])
        assert (campaign.seeds, campaign.traces) == ((3, 1), ("W2", "C1"))
        assert parse(["campaign"]).schemes == ("Gcc+FIFO", "Gcc+CoDel",
                                               "Gcc+Zhuge")
        assert parse(["resilience"]).lengths == (0.5, 1.0, 2.0)
        assert parse(["control"]).seeds == (1, 2)
        assert parse(["compare"]).ap_modes == ("none", "zhuge")
        assert parse(["run", "--trace-events", " queue, ap,"]
                     ).trace_events == ("queue", "ap")
        assert parse(["compare"]).trace_events == CATEGORIES

    def test_trace_generates_bandwidth_traces_only(self, capsys):
        # `run --trace-out` is the one way to trace a scenario.
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert flags == {"--help", "--family", "--duration", "--seed",
                         "--out"}

    def test_campaign_flag_bounds_are_inclusive(self):
        from repro.city import CityGenSpec
        args = build_parser().parse_args(
            ["campaign", "--timeout", "2.5", "--retries", "0",
             "--cache-prune", "0", "--sample-budget", "0", "--aps", "1"])
        assert (args.timeout, args.retries, args.cache_prune,
                args.sample_budget, args.aps) == (2.5, 0, 0.0, 0, 1)
        assert type(args.retries) is int and type(args.cache_prune) is float
        assert CityGenSpec.for_preset(
            "grid", aps=build_parser().parse_args(
                ["campaign", "--aps", "6"]).aps, seed=1).content_hash() \
            == CityGenSpec.for_preset("grid", aps=6, seed=1).content_hash()
        assert build_parser().parse_args(
            ["topology", "generate", "--aps", "1"]).aps == 1

    @pytest.mark.parametrize("duration", ("3", "5"))
    def test_grid_no_longer_than_the_warmup_runs_no_cell(
            self, duration, capsys, monkeypatch):
        monkeypatch.setattr("repro.cli.run_specs", self._refuse)
        monkeypatch.setattr("repro.cli.run_campaign", self._refuse)
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--traces", "W1", "--schemes", "Gcc+Zhuge",
                  "--seeds", "1", "--duration", duration])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "error: argument --duration: must be > the 5 s warm-up" in err

    def test_grid_longer_than_the_warmup_reaches_the_runner(
            self, monkeypatch):
        monkeypatch.setattr("repro.cli.run_campaign", self._refuse)
        with pytest.raises(AssertionError, match="the command ran"):
            main(["campaign", "--traces", "W1", "--schemes", "Gcc+Zhuge",
                  "--seeds", "1", "--duration", "5.5"])

    def test_valid_numeric_flags_keep_the_spec_hash(self):
        from repro.campaign import ScenarioSpec, TraceSpec
        from repro.cli import _spec_from_args
        args = build_parser().parse_args(
            ["run", "--duration", "5", "--max-mbps", "2.5",
             "--competitors", "2", "--interferers", "0"])
        spec = _spec_from_args(args, "zhuge")
        expected = ScenarioSpec(
            trace=TraceSpec.for_family("W1", duration=10.0, seed=1),
            ap_mode="zhuge", duration=5.0, max_bps=2.5e6, competitors=2,
            interferers=0, trace_config=spec.trace_config)
        assert spec.content_hash() == expected.content_hash()
        assert build_parser().parse_args(
            ["topology", "interference", "--interferers", "0"]
        ).interferers == 0

    def test_negative_duration_runs_no_cell(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a cell was dispatched")
        monkeypatch.setattr("repro.cli.run_specs", refuse)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--duration", "-5"])
        assert exc.value.code == 2
        assert "must be > 0" in capsys.readouterr().err

    @staticmethod
    def _refuse(*args, **kwargs):
        raise AssertionError("the command ran")

    @classmethod
    def _refuse_commands(cls, monkeypatch):
        for name in ("cmd_run", "cmd_compare", "cmd_resilience",
                     "cmd_trace", "cmd_campaign"):
            monkeypatch.setattr(f"repro.cli.{name}", cls._refuse)

    @pytest.mark.parametrize("argv", [
        ["run", "--cca", "nosuch"],
        ["run", "--protocol", "tcp"],            # default gcc is rtp-only
        ["compare", "--protocol", "tcp", "--cca", "nada"],
        ["resilience", "--cca", "gcc"],          # default protocol tcp
        ["resilience", "--protocol", "rtp", "--cca", "bbr"],
        ["run", "--protocol", "quic", "--cca", "scream",
         "--trace-out", "x.json"],
    ])
    def test_cca_checked_against_protocol_before_dispatch(
            self, argv, capsys, monkeypatch):
        self._refuse_commands(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "error: argument --cca:" in err and "--protocol" in err

    @pytest.mark.parametrize("argv", [
        ["run"],
        ["run", "--cca", "scream"],
        ["run", "--cca", "copa"],                # run as gcc by the builder
        ["compare", "--protocol", "tcp", "--cca", "bbr"],
        ["resilience"],
        ["run", "--protocol", "quic", "--trace-out", "x.json"],
        ["run", "--protocol", "quic", "--cca", "copa", "--ap", "zhuge"],
    ])
    def test_valid_cca_reaches_the_command(self, argv, monkeypatch):
        self._refuse_commands(monkeypatch)
        with pytest.raises(AssertionError, match="the command ran"):
            main(argv)

    @pytest.mark.parametrize("command, flag, content", [
        (command, "--topology", content)
        for command in ("run", "compare", "campaign")
        for content in ('{"nodes": 3}', '{"nodes": [], "edges": [{"x": 1}]}',
                        "[1, 2]", "not json")
    ] + [
        (command, "--trace-file", content)
        for command in ("run", "compare")
        for content in ("not json", '{"interval": 0.2}',
                        '{"rates_bps": [], "interval": 0.2}')
    ])
    def test_bad_input_file_exits_2_naming_it(self, command, flag, content,
                                              tmp_path, capsys,
                                              monkeypatch):
        self._refuse_commands(monkeypatch)
        path = tmp_path / "input.json"
        path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main([command, flag, str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: cannot load {path}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--topology", "--specs"])
    def test_competitor_cca_refused_at_parse_time(self, flag, tmp_path,
                                                  capsys, monkeypatch):
        """A competitor runs a window CCA; a rate CCA used to fail only
        inside its cell, where the campaign retried it."""
        from repro.topology.presets import interference_topology
        self._refuse_commands(monkeypatch)
        topology = interference_topology().as_dict()
        topology["flows"].append({"src": "server", "dst": "client",
                                  "role": "competitor", "cca": "gcc"})
        payload = topology if flag == "--topology" else [
            {"trace": {"kind": "constant", "rate_bps": 1e6},
             "topology": topology}]
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as exc:
            main(["campaign", flag, str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: cannot load {path}" in err
        assert "competitor cca 'gcc'" in err and "Traceback" not in err

    def test_misspelt_topology_key_exits_2_naming_it(self, tmp_path, capsys,
                                                     monkeypatch):
        """``flowz`` used to be dropped: the run then died inside the
        builder with "topology declares no rtc flow"."""
        from repro.topology.presets import interference_topology
        self._refuse_commands(monkeypatch)
        payload = interference_topology().as_dict()
        payload["flowz"] = payload.pop("flows")
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--topology", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --topology: cannot load {path}" in err
        assert "field(s): flowz" in err and "Traceback" not in err

    #: field -> (kind of the edge it is set on, what the refusal says)
    EDGE_REFUSALS = {
        "delay": ("wired", "must be finite"),
        "rate_bps": ("wired", "must be finite"),
        "trace_scale": ("wifi", "must be finite"),
        "mcs_period": ("wifi", "must be finite"),
        "max_ampdu_packets": ("wifi", "must be >= 1"),
        "interferers": ("wifi", "must be non-negative"),
        "queue_capacity": ("wifi", "must be positive"),
    }

    @pytest.mark.parametrize("field, value", [
        ("delay", "NaN"), ("delay", "Infinity"), ("rate_bps", "NaN"),
        ("rate_bps", "Infinity"), ("rate_bps", "0"),
        ("trace_scale", "NaN"), ("trace_scale", "Infinity"),
        ("trace_scale", "0"), ("mcs_period", "NaN"), ("mcs_period", "-1"),
        ("max_ampdu_packets", "0"), ("interferers", "-1"),
        ("queue_capacity", "0")])
    def test_non_finite_link_topology_exits_2_naming_it(
            self, field, value, tmp_path, capsys, monkeypatch):
        """JSON's ``NaN`` / ``Infinity`` literals parse; the edge spec
        refuses them, and counts and sizes out of range, at parse time
        instead of inside the run or the build."""
        from repro.topology.presets import interference_topology
        self._refuse_commands(monkeypatch)
        payload = interference_topology().as_dict()
        kind, message = self.EDGE_REFUSALS[field]
        edge = next(edge for edge in payload["edges"]
                    if edge.get("kind", "wired") == kind)
        edge[field] = "@@"
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(payload).replace('"@@"', value))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--topology", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --topology: cannot load {path}" in err
        assert f"edge {edge['name']!r} {field} {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("content", [
        "not json",
        '[{"trace": {"kind": "constant", "rate_bps": 1e6}, "nosuch": 1}]',
        '[{"trace": {"kind": "constant", "rate_bps": 1e6}, '
        '"protocol": "sctp"}]',
        # json.loads accepts NaN; a NaN duration used to hang its cell.
        '[{"trace": {"kind": "constant", "rate_bps": 1e6}, '
        '"duration": NaN}]',
        # A cca its protocol cannot run used to fail only in its cell.
        '[{"trace": {"kind": "constant", "rate_bps": 1e6}, '
        '"protocol": "tcp", "cca": "nada"}]',
        # Each of these used to fail only inside its cell, or not at all.
        '[{"trace": {"kind": "constant", "rate_bps": 1e6}, "fps": 0}]',
        '[{"trace": {"kind": "constant", "rate_bps": 1e6}, "seed": "x"}]',
        '[{"trace": {"kind": "constant", "rate_bps": 1e6}, '
        '"wan_delay": NaN}]',
        '[{"trace": {"kind": "constant", "rate_bps": 1e6}, '
        '"competitors": 1, "competitor_period": 0}]',
        # Unknown nested keys are refused, not dropped.
        '[{"trace": {"kind": "constant", "rate_bps": 1e6}, '
        '"faults": {"faults": [{"kind": "blackout", "start": 1.0, '
        '"duration": 0.5}], "watchdog_enable": false}}]',
        # The watchdog's thresholds are module constants, not settings.
        '[{"trace": {"kind": "constant", "rate_bps": 1e6}, '
        '"faults": {"faults": [{"kind": "blackout", "start": 1.0, '
        '"duration": 0.5}], "watchdog": {"stale_after": 0.5}}}]',
        '[{"trace": {"kind": "constant", "rate_bps": 1e6}, '
        '"control": {"controller": {"quorum": 1}}}]',
    ])
    def test_bad_specs_manifest_exits_2_naming_it(self, content, tmp_path,
                                                  capsys, monkeypatch):
        self._refuse_commands(monkeypatch)
        path = tmp_path / "specs.json"
        path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--specs", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --specs: cannot load {path}" in err
        assert err.count("error: ") == 1
        assert "Traceback" not in err

    def test_specs_manifest_loads_at_parse_time(self, tmp_path):
        from repro.campaign import ScenarioSpec, TraceSpec
        specs = [ScenarioSpec(trace=TraceSpec.drop(30e6, k=10, drop_at=2.0,
                                                   duration=4.0),
                              duration=4.0, warmup=1.0),
                 ScenarioSpec(trace=TraceSpec.for_family("W2", duration=4.0,
                                                         seed=1),
                              duration=4.0, warmup=1.0, ap_mode="zhuge")]
        path = tmp_path / "specs.json"
        path.write_text(json.dumps([spec.as_dict() for spec in specs]))
        args = build_parser().parse_args(["campaign", "--specs", str(path)])
        assert args.specs == specs

    def test_ci_smoke_manifest_has_a_steps_and_a_family_cell(self):
        path = "tests/data/campaign_smoke_specs.json"
        specs = build_parser().parse_args(
            ["campaign", "--specs", path]).specs
        assert sorted(spec.trace.kind for spec in specs) \
            == ["family", "steps"]

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["run", "--topology", str(tmp_path / "nope.json")])
        assert exc.value.code == 2
        assert "FileNotFoundError" in capsys.readouterr().err

    def test_input_files_keep_the_spec_hash(self, tmp_path):
        """Loading at parse time hands the spec the same trace
        reference and the same graph, so content hashes stay put."""
        from repro.campaign import TraceSpec
        from repro.cli import _spec_from_args
        from repro.topology.presets import interference_topology
        from repro.topology.spec import TopologySpec
        from repro.traces.synthetic import make_trace

        trace_path = tmp_path / "w1.json"
        make_trace("W1", duration=10.0, seed=1).save(trace_path)
        topo_path = tmp_path / "topo.json"
        topo_path.write_text(json.dumps(interference_topology().as_dict()))
        args = build_parser().parse_args(
            ["run", "--trace-file", str(trace_path),
             "--topology", str(topo_path), "--duration", "5"])
        spec = _spec_from_args(args, "zhuge")
        # What the spec held when both files were read in the command.
        assert spec.trace == TraceSpec.from_file(str(trace_path))
        assert spec.topology == TopologySpec.from_dict(
            json.loads(topo_path.read_text()))

    def test_valid_faults_parse_to_the_same_plan(self):
        from repro.cli import _fault_plan_from_args
        from repro.faults.spec import FaultPlan
        text = "blackout@10+2,reset@12,loss@5+3*0.3/up"
        args = build_parser().parse_args(
            ["run", "--faults", text, "--fault-seed", "7"])
        assert _fault_plan_from_args(args) == FaultPlan.parse(text, seed=7)


class TestCommands:
    def test_run_command(self, capsys):
        exit_code = main(["run", "--trace", "W2", "--duration", "12",
                          "--ap", "zhuge"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "RTT > 200 ms" in out
        assert "frames decoded" in out

    def test_compare_command(self, capsys):
        exit_code = main(["compare", "--trace", "W2", "--duration", "12"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert out.count("AP mode") == 2

    def test_trace_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "w2.json"
        assert main(["trace", "--family", "W2", "--duration", "20",
                     "--out", str(out_file)]) == 0
        assert out_file.exists()
        assert main(["trace-stats", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "ABW drop" in out

    def test_trace_events_writes_an_audited_artifact(self, tmp_path,
                                                     capsys):
        out_file = tmp_path / "q.json"
        assert main(["run", "--trace", "W2", "--duration", "3",
                     "--trace-events", "queue",
                     "--trace-out", str(out_file)]) == 0
        assert out_file.exists()
        out = capsys.readouterr().out
        assert re.search(r"\d+ events \(queue=\d+\)$", out, re.M)
        assert "packets audited" in out

    def test_run_with_trace_file(self, tmp_path, capsys):
        out_file = tmp_path / "w1.json"
        main(["trace", "--family", "W1", "--duration", "20",
              "--out", str(out_file)])
        exit_code = main(["run", "--trace-file", str(out_file),
                          "--duration", "10"])
        assert exit_code == 0

    def test_tcp_run(self, capsys):
        exit_code = main(["run", "--protocol", "tcp", "--cca", "copa",
                          "--trace", "W2", "--duration", "10",
                          "--ap", "none"])
        assert exit_code == 0

    def test_compare_with_jobs_and_modes(self, capsys):
        exit_code = main(["compare", "--trace", "W2", "--duration", "10",
                          "--ap-modes", "none,fastack,zhuge",
                          "--jobs", "2"])
        assert exit_code == 0
        assert capsys.readouterr().out.count("AP mode") == 3


class TestCampaign:
    ARGS = ["campaign", "--traces", "W2",
            "--schemes", "Gcc+FIFO,Gcc+Zhuge",
            "--seeds", "1", "--duration", "6", "--quiet"]

    def _argv(self, tmp_path, *extra):
        return self.ARGS + ["--cache-dir", str(tmp_path / "cache"),
                            *extra]

    def test_cold_then_warm_cache(self, tmp_path, capsys):
        assert main(self._argv(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "campaign — 2 cells" in out
        assert "2 computed, 0 cached" in out
        # Second invocation must be served entirely from the cache.
        assert main(self._argv(tmp_path, "--assert-cached")) == 0
        assert "0 computed, 2 cached" in capsys.readouterr().out

    def test_assert_cached_fails_on_cold_cache(self, tmp_path, capsys):
        assert main(self._argv(tmp_path, "--assert-cached")) == 1
        assert "--assert-cached" in capsys.readouterr().out

    def test_out_json(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(self._argv(tmp_path, "--out", str(report))) == 0
        payload = json.loads(report.read_text())
        assert payload["progress"]["done"] == 2
        assert len(payload["cells"]) == 2
        assert {row["scheme"] for row in payload["rows"]} \
            == {"Gcc+FIFO", "Gcc+Zhuge"}

    def test_rejects_unknown_scheme(self, tmp_path):
        with pytest.raises(SystemExit):
            main(self._argv(tmp_path)[:4] + ["--schemes", "Nope+FIFO"])


#: subcommand -> (argv, option strings other than -h/--help, parsed
#: defaults with ``func`` by name): the CLI's whole flag surface, so a
#: change to the parser cannot drop, add or re-default a flag unseen.
FLAG_INVENTORY = {
    "run": (["run"], {
        "--ap", "--cca", "--competitors", "--control", "--duration",
        "--fault-seed", "--faults", "--interferers", "--max-mbps",
        "--protocol", "--queue", "--seed", "--topology", "--trace",
        "--trace-events", "--trace-file", "--trace-format", "--trace-out"},
        {"trace": "W1", "trace_file": None, "protocol": "rtp", "cca": "gcc",
         "queue": "fifo", "duration": 30.0, "seed": 1, "max_mbps": 4.0,
         "competitors": 0, "interferers": 0, "topology": None,
         "trace_out": None, "trace_events": CATEGORIES,
         "trace_format": "chrome", "faults": None, "fault_seed": 1,
         "control": False, "ap": "zhuge", "func": "cmd_run"}),
    "compare": (["compare"], {
        "--ap-modes", "--cca", "--competitors", "--control", "--duration",
        "--fault-seed", "--faults", "--interferers", "--jobs", "--max-mbps",
        "--protocol", "--queue", "--seed", "--topology", "--trace",
        "--trace-events", "--trace-file", "--trace-format", "--trace-out"},
        {"trace": "W1", "trace_file": None, "protocol": "rtp", "cca": "gcc",
         "queue": "fifo", "duration": 30.0, "seed": 1, "max_mbps": 4.0,
         "competitors": 0, "interferers": 0, "topology": None,
         "trace_out": None, "trace_events": CATEGORIES,
         "trace_format": "chrome", "faults": None, "fault_seed": 1,
         "control": False, "ap_modes": ("none", "zhuge"), "jobs": 0,
         "func": "cmd_compare"}),
    "campaign": (["campaign"], {
        "--aps", "--assert-cached", "--cache-dir", "--cache-prune",
        "--chaos", "--chaos-dir", "--city", "--city-seed", "--control",
        "--duration", "--jobs", "--no-cache", "--out", "--quiet",
        "--retries", "--sample-budget", "--schemes", "--seeds",
        "--shard-aps", "--specs", "--timeout", "--topology", "--trace-dir",
        "--traces"},
        {"traces": ("W1",), "schemes": ("Gcc+FIFO", "Gcc+CoDel",
                                        "Gcc+Zhuge"),
         "seeds": (1, 2), "duration": None, "city": None, "aps": 100,
         "city_seed": 1, "shard_aps": 32, "sample_budget": 2_000_000,
         "specs": None, "out": None, "quiet": False, "assert_cached": False,
         "trace_dir": None, "topology": None, "control": False, "jobs": 0,
         "cache_dir": None, "no_cache": False, "timeout": None,
         "retries": 1, "cache_prune": None, "chaos": None,
         "chaos_dir": None, "func": "cmd_campaign"}),
    "cache": (["cache", "verify"], {"--cache-dir"},
              {"action": "verify", "cache_dir": None, "func": "cmd_cache"}),
    "resilience": (["resilience"], {
        "--cache-dir", "--cache-prune", "--cca", "--duration", "--jobs",
        "--lengths", "--no-cache", "--out", "--protocol", "--retries",
        "--seeds", "--timeout"},
        {"lengths": (0.5, 1.0, 2.0), "duration": 25.0, "seeds": (1,),
         "protocol": "tcp", "cca": "copa", "out": None, "jobs": 0,
         "cache_dir": None, "no_cache": False, "timeout": None,
         "retries": 1, "cache_prune": None, "func": "cmd_resilience"}),
    "control": (["control"], {
        "--cache-dir", "--cache-prune", "--duration", "--jobs",
        "--no-cache", "--out", "--retries", "--seeds", "--storm",
        "--timeout"},
        {"seeds": (1, 2), "duration": None, "storm": None, "out": None,
         "jobs": 0, "cache_dir": None, "no_cache": False, "timeout": None,
         "retries": 1, "cache_prune": None, "func": "cmd_control"}),
    "trace": (["trace", "--out", "t.json"], {
        "--duration", "--family", "--out", "--seed"},
        {"family": "W1", "duration": 60.0, "seed": 1, "out": "t.json",
         "func": "cmd_trace"}),
    "topology": (["topology", "roaming"], {
        "--ap", "--aps", "--city", "--city-seed", "--duration",
        "--interferers", "--out", "--queue"},
        {"preset": "roaming", "city": "grid", "aps": 100, "city_seed": 1,
         "ap": "zhuge", "queue": "fq_codel", "interferers": 5,
         "duration": 60.0, "out": None, "func": "cmd_topology"}),
    "trace-stats": (["trace-stats", "t.json"], set(),
                    {"file": "t.json", "func": "cmd_trace_stats"}),
}


def test_every_subcommand_keeps_its_flags():
    parser = build_parser()
    subcommands = next(action for action in parser._actions
                       if action.dest == "command").choices
    assert set(subcommands) == set(FLAG_INVENTORY)
    assert sum(len(flags) for _, flags, _ in FLAG_INVENTORY.values()) == 96
    for name, (argv, flags, defaults) in FLAG_INVENTORY.items():
        options = {option for action in subcommands[name]._actions
                   for option in action.option_strings} - {"-h", "--help"}
        assert options == flags, name
        parsed = vars(parser.parse_args(argv))
        parsed["func"] = parsed["func"].__name__
        assert parsed == {"command": name, **defaults}, name
