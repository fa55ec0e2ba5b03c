"""Transport protocol stacks.

``tcp`` and ``quic`` are the out-of-band-feedback family of the paper
(Table 2): a byte stream with cumulative ACKs, and an encrypted
packet-number transport whose headers the AP cannot read. Both senders
subclass :class:`~repro.transport.stream.StreamSender`, the one copy of
the write buffer, MSS chunking and RFC 6298 RTT smoothing. ``rtp``
implements RTP media transport with TWCC (transport-wide congestion
control) RTCP feedback — the in-band family.
"""

from repro.transport.quic import QuicReceiver, QuicSender
from repro.transport.rtp import RtpReceiver, RtpSender, TwccFeedback
from repro.transport.stream import StreamSender
from repro.transport.tcp import TcpReceiver, TcpSender

__all__ = ["StreamSender", "TcpSender", "TcpReceiver", "QuicSender",
           "QuicReceiver", "RtpSender", "RtpReceiver", "TwccFeedback"]
