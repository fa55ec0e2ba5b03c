"""Application models: video streaming (RTC) and bulk transfer.

One video module: RTP packetizes frames; TCP and QUIC share the stream
encoder path of :class:`StreamVideoApp`.
"""

from repro.app.video import (QuicVideoApp, RtpVideoApp, StreamVideoApp,
                             TcpVideoApp, VideoEncoder, VideoFrame)
from repro.app.bulk import BulkSenderApp, PeriodicBulkApp

__all__ = ["VideoEncoder", "VideoFrame", "RtpVideoApp", "StreamVideoApp",
           "TcpVideoApp", "QuicVideoApp", "BulkSenderApp", "PeriodicBulkApp"]
