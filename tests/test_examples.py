"""Smoke tests: every example runs end to end and prints its report."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(monkeypatch, capsys, name, argv=()):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "quickstart.py", ["3"])
        assert "P99 RTT" in out
        assert "Zhuge AP" in out

    def test_cloud_gaming_drop(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "cloud_gaming_drop.py",
                          ["10"])
        assert "RTT>200ms dur" in out
        assert "Zhuge" in out

    def test_ap_mode_study(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "ap_mode_study.py", ["3"])
        assert "3 s per cell" in out
        for trace in ("W1", "W2", "C1", "C2", "C3"):
            assert out.count(f"\n{trace} ") == 3
        assert out.count("Zhuge") == 5

    def test_roaming_handoff(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "roaming_handoff.py", ["5"])
        assert "stay on ap-a" in out
        assert "roam:begin@3.0s,roam:end@3.4s" in out

    def test_fortune_teller_demo(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "fortune_teller_demo.py")
        assert "qShort leads" in out
        assert "ABW drops" in out

    @pytest.mark.slow
    def test_video_conference(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "video_conference_wifi.py")
        assert "Zhuge AP" in out
        assert out.count("RTT > 200 ms") == 3
