"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


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
        for flag, values in (("--hang-timeout", ("-1", "0", "nan")),
                             ("--checkpoint-every", ("0", "-2", "x")),
                             ("--sample-budget", ("-1", "2.5")),
                             ("--mem-limit-mb", ("-1", "nan", "inf")),
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
        (["trace", "W9", "--out", "x.json"], "SCENARIO"),
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
        assert parse(["trace", "--out", "x.json"]).scenario is None

    def test_campaign_flag_bounds_are_inclusive(self):
        from repro.city import CityGenSpec
        args = build_parser().parse_args(
            ["campaign", "--timeout", "2.5", "--hang-timeout", "1",
             "--retries", "0", "--cache-prune", "0", "--mem-limit-mb", "0",
             "--checkpoint-every", "1", "--sample-budget", "0",
             "--aps", "1"])
        assert (args.timeout, args.hang_timeout, args.retries,
                args.cache_prune, args.mem_limit_mb, args.checkpoint_every,
                args.sample_budget, args.aps) == (2.5, 1.0, 0, 0.0, 0.0,
                                                  1, 0, 1)
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
        ["trace", "W1", "--out", "x.json", "--protocol", "quic",
         "--cca", "scream"],
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
        ["trace", "W1", "--out", "x.json", "--protocol", "quic"],
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

    @pytest.mark.parametrize("field, value", [
        ("delay", "NaN"), ("delay", "Infinity"), ("rate_bps", "NaN"),
        ("rate_bps", "Infinity"), ("rate_bps", "0")])
    def test_non_finite_link_topology_exits_2_naming_it(
            self, field, value, tmp_path, capsys, monkeypatch):
        """JSON's ``NaN`` / ``Infinity`` literals parse; the edge spec
        refuses them at parse time instead of inside the run."""
        from repro.topology.presets import interference_topology
        self._refuse_commands(monkeypatch)
        payload = interference_topology().as_dict()
        wired = next(edge for edge in payload["edges"]
                     if edge.get("kind", "wired") == "wired")
        wired[field] = "@@"
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(payload).replace('"@@"', value))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--topology", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --topology: cannot load {path}" in err
        assert f"{field} must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("content", [
        "not json",
        '[{"trace": {"kind": "constant", "rate_bps": 1e6}, "nosuch": 1}]',
        '[{"trace": {"kind": "constant", "rate_bps": 1e6}, '
        '"protocol": "sctp"}]',
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
        assert main(["trace", "W2", "--duration", "3", "--events", "queue",
                     "--out", str(out_file)]) == 0
        assert out_file.exists()
        assert "packets audited" in capsys.readouterr().out

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
