"""Tests for the NADA and SCReAM rate controllers (paper Table 2)."""

import pytest

from repro.cca import make_rate_cca
from repro.cca.base import FeedbackPacketReport
from repro.cca.nada import NadaController
from repro.cca.scream import ScreamController


def reports(base_send, count, send_gap, owd, lost=(), size=1200):
    out = []
    for i in range(count):
        send = base_send + i * send_gap
        recv = None if i in lost else send + owd(i)
        out.append(FeedbackPacketReport(i, size, send, recv))
    return out


class TestFactory:
    def test_make_rate_cca(self):
        assert isinstance(make_rate_cca("nada"), NadaController)
        assert isinstance(make_rate_cca("scream"), ScreamController)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_rate_cca("vegas")


class TestNada:
    def test_clean_network_ramps_up(self):
        nada = NadaController(initial_bps=1e6, max_bps=10e6)
        now = 0.0
        for _ in range(100):
            nada.on_feedback(now + 0.05,
                             reports(now, 10, 0.005, lambda i: 0.02))
            now += 0.05
        assert nada.target_bps > 1e6

    def test_queuing_delay_pushes_rate_down(self):
        clean = NadaController(initial_bps=2e6, max_bps=10e6)
        congested = NadaController(initial_bps=2e6, max_bps=10e6)
        now = 0.0
        for _ in range(40):
            clean.on_feedback(now + 0.05,
                              reports(now, 10, 0.005, lambda i: 0.02))
            # 80 ms of standing queuing delay above the base delay.
            congested.on_feedback(
                now + 0.05,
                reports(now, 10, 0.005,
                        lambda i: 0.02 if now == 0.0 else 0.10))
            now += 0.05
        assert congested.target_bps < clean.target_bps

    def test_loss_penalized(self):
        nada = NadaController(initial_bps=2e6)
        now = 0.0
        for _ in range(20):
            nada.on_feedback(now + 0.05,
                             reports(now, 10, 0.005, lambda i: 0.02,
                                     lost=(0, 1, 2)))
            now += 0.05
        assert nada.target_bps < 2e6

    def test_total_loss_halves(self):
        nada = NadaController(initial_bps=2e6)
        nada.on_feedback(0.05, reports(0.0, 5, 0.005, lambda i: 0.02,
                                       lost=(0, 1, 2, 3, 4)))
        assert nada.target_bps == pytest.approx(1e6)

    def test_rate_clamped(self):
        nada = NadaController(initial_bps=1e6, max_bps=2e6)
        now = 0.0
        for _ in range(500):
            nada.on_feedback(now + 0.05,
                             reports(now, 10, 0.005, lambda i: 0.02))
            now += 0.05
        assert nada.target_bps <= 2e6

    def test_empty_feedback_ignored(self):
        nada = NadaController(initial_bps=1e6)
        before = nada.target_bps
        nada.on_feedback(0.1, [])
        assert nada.target_bps == before


class TestScream:
    def test_below_target_grows(self):
        scream = ScreamController(initial_bps=1e6, max_bps=10e6)
        now = 0.0
        for _ in range(100):
            scream.on_feedback(now + 0.05,
                               reports(now, 10, 0.005, lambda i: 0.02))
            now += 0.05
        assert scream.target_bps > 1e6

    def test_queue_delay_above_target_shrinks_window(self):
        scream = ScreamController(initial_bps=2e6)
        scream.on_feedback(0.05, reports(0.0, 10, 0.005, lambda i: 0.02))
        cwnd_before = scream.cwnd
        now = 0.05
        for _ in range(20):
            # 150 ms queuing delay >> 60 ms target.
            scream.on_feedback(now + 0.05,
                               reports(now, 10, 0.005, lambda i: 0.17))
            now += 0.05
        assert scream.cwnd < cwnd_before

    def test_loss_halves_window_once_per_rtt(self):
        scream = ScreamController(initial_bps=2e6)
        scream.cwnd = 100 * 1200
        scream.on_feedback(0.05, reports(0.0, 10, 0.005, lambda i: 0.02,
                                         lost=(3,)))
        after_first = scream.cwnd
        scream.on_feedback(0.051, reports(0.05, 10, 0.005, lambda i: 0.02,
                                          lost=(4,)))
        # The back-off guard blocks a second halving within one RTT (the
        # below-target delay may still grow the window slightly).
        assert scream.cwnd >= after_first

    def test_rate_tracks_window(self):
        scream = ScreamController(initial_bps=1e6)
        scream.on_feedback(0.05, reports(0.0, 10, 0.005, lambda i: 0.02))
        assert scream.target_bps == pytest.approx(
            0.9 * scream.cwnd * 8 / scream._srtt, rel=1e-6)

    def test_empty_feedback_ignored(self):
        scream = ScreamController(initial_bps=1e6)
        before = scream.target_bps
        scream.on_feedback(0.1, [])
        assert scream.target_bps == before
