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

    def test_negative_duration_runs_no_cell(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a cell was dispatched")
        monkeypatch.setattr("repro.cli.run_specs", refuse)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--duration", "-5"])
        assert exc.value.code == 2
        assert "must be > 0" in capsys.readouterr().err

    @staticmethod
    def _refuse_commands(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the command ran")
        for name in ("cmd_run", "cmd_compare", "cmd_resilience",
                     "cmd_trace", "cmd_campaign"):
            monkeypatch.setattr(f"repro.cli.{name}", refuse)

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
        from repro.topology.spec import TopologySpec, interference_topology
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
