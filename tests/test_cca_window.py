"""Tests for the window-based CCAs (CUBIC, BBR, Copa, ABC sender)."""

import pytest

from repro.cca import (
    AbcSenderCca,
    BbrCca,
    CopaCca,
    CubicCca,
    make_window_cca,
)


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("cubic", CubicCca), ("bbr", BbrCca),
        ("copa", CopaCca), ("abc", AbcSenderCca),
    ])
    def test_make_window_cca(self, name, cls):
        assert isinstance(make_window_cca(name), cls)

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            make_window_cca("reno")


class TestCubic:
    def test_slow_start_doubles_per_rtt(self):
        cca = CubicCca()
        start = cca.cwnd
        # One RTT's worth of ACKs in slow start: cwnd grows by acked bytes.
        for _ in range(10):
            cca.on_ack(0.1, 0.05, 1448)
        assert cca.cwnd == start + 10 * 1448

    def test_loss_multiplies_by_beta(self):
        cca = CubicCca()
        cca.cwnd = 100 * 1448
        cca.on_loss(1.0)
        assert cca.cwnd == pytest.approx(70 * 1448, rel=0.01)

    def test_growth_after_loss_is_cubic_shaped(self):
        cca = CubicCca()
        cca.cwnd = 100 * 1448
        cca.on_loss(1.0)
        t = 1.0
        sizes = []
        for _ in range(200):
            cca.on_ack(t, 0.05, 1448)
            sizes.append(cca.cwnd)
            t += 0.01
        # Monotone non-decreasing growth back toward w_max.
        assert sizes[-1] > sizes[0]
        assert sizes[-1] <= 130 * 1448

    def test_rto_collapses_window(self):
        cca = CubicCca()
        cca.cwnd = 100 * 1448
        cca.on_rto(1.0)
        assert cca.cwnd == 2 * 1448

    def test_cwnd_floor_after_loss(self):
        cca = CubicCca()
        cca.cwnd = 2 * 1448
        cca.on_loss(1.0)
        assert cca.cwnd >= 2 * 1448


class TestBbr:
    def _feed(self, cca, rtt, rate_bps, seconds, start=0.0):
        """Feed ACKs implying a given delivery rate."""
        t = start
        gap = 1448 * 8 / rate_bps
        while t < start + seconds:
            cca.on_ack(t, rtt, 1448)
            t += gap
        return t

    def test_estimates_bottleneck_bandwidth(self):
        cca = BbrCca()
        self._feed(cca, 0.05, 10e6, 2.0)
        assert cca.btl_bw == pytest.approx(10e6, rel=0.3)

    def test_min_rtt_tracked(self):
        cca = BbrCca()
        cca.on_ack(0.0, 0.08, 1448)
        cca.on_ack(0.1, 0.05, 1448)
        cca.on_ack(0.2, 0.09, 1448)
        assert cca.min_rtt == 0.05

    def test_cwnd_tracks_bdp(self):
        cca = BbrCca()
        self._feed(cca, 0.05, 10e6, 3.0)
        bdp = 10e6 * 0.05 / 8
        assert cca.cwnd == pytest.approx(2 * bdp, rel=0.5)

    def test_pacing_rate_positive(self):
        cca = BbrCca()
        self._feed(cca, 0.05, 5e6, 1.0)
        assert cca.pacing_rate(0.05) > 0

    def test_leaves_startup_when_bw_flat(self):
        cca = BbrCca()
        self._feed(cca, 0.05, 10e6, 3.0)
        assert cca._mode != "startup"

    def test_loss_barely_reacts(self):
        cca = BbrCca()
        self._feed(cca, 0.05, 10e6, 2.0)
        before = cca.cwnd
        cca.on_loss(2.0)
        assert cca.cwnd >= before * 0.9


class TestCopa:
    def _feed(self, cca, rtts, start=0.0, gap=0.005):
        t = start
        for rtt in rtts:
            cca.on_ack(t, rtt, 1448)
            t += gap
        return t

    def test_low_delay_grows_window(self):
        cca = CopaCca()
        before = cca.cwnd
        # Standing RTT barely above the minimum -> huge target rate.
        self._feed(cca, [0.050 + 0.0001 * (i % 3) for i in range(200)])
        assert cca.cwnd > before

    def test_high_queueing_delay_shrinks_window(self):
        cca = CopaCca()
        cca.cwnd = 80 * 1448
        # min RTT 50 ms but standing RTT 250 ms: large queueing delay.
        cca.on_ack(0.0, 0.050, 1448)
        self._feed(cca, [0.250] * 300, start=0.01)
        assert cca.cwnd < 80 * 1448

    def test_velocity_accelerates_growth(self):
        cca = CopaCca()
        rtts = [0.050 + 0.0001 * (i % 2) for i in range(400)]
        sizes = []
        t = 0.0
        for rtt in rtts:
            cca.on_ack(t, rtt, 1448)
            sizes.append(cca.cwnd)
            t += 0.005
        early_growth = sizes[50] - sizes[0]
        late_growth = sizes[-1] - sizes[-51]
        assert late_growth > early_growth

    def test_loss_reaction_mild(self):
        cca = CopaCca()
        cca.cwnd = 100 * 1448
        cca.on_loss(0.0)
        assert cca.cwnd == pytest.approx(85 * 1448, rel=0.01)


class TestAbcSender:
    def test_accelerate_adds_segment(self):
        cca = AbcSenderCca()
        before = cca.cwnd
        cca.on_explicit_feedback(0.0, "accelerate")
        assert cca.cwnd == before + 1448

    def test_brake_removes_segment(self):
        cca = AbcSenderCca()
        before = cca.cwnd
        cca.on_explicit_feedback(0.0, "brake")
        assert cca.cwnd == before - 1448

    def test_floor_two_segments(self):
        cca = AbcSenderCca()
        for _ in range(100):
            cca.on_explicit_feedback(0.0, "brake")
        assert cca.cwnd == 2 * 1448

    def test_plain_acks_ignored(self):
        cca = AbcSenderCca()
        before = cca.cwnd
        cca.on_ack(0.0, 0.05, 1448)
        assert cca.cwnd == before

    def test_mark_counters(self):
        cca = AbcSenderCca()
        cca.on_explicit_feedback(0.0, "accelerate")
        cca.on_explicit_feedback(0.0, "brake")
        assert (cca.accels, cca.brakes) == (1, 1)
