"""Congestion control algorithms.

Window-based CCAs (CUBIC, BBR, Copa, ABC-sender) plug into the TCP-like
transport; the rate-based GCC plugs into the RTP sender. The ABC router
half lives here too (:class:`AbcRouter`, the AP object of
``ap_mode="abc"``) since it is the network side of a host-router
co-designed CCA.
"""

from repro.cca.base import WindowCca, RateCca
from repro.cca.cubic import CubicCca
from repro.cca.bbr import BbrCca
from repro.cca.copa import CopaCca
from repro.cca.gcc import GccController
from repro.cca.nada import NadaController
from repro.cca.scream import ScreamController
from repro.cca.abc import AbcSenderCca, AbcRouter

__all__ = [
    "WindowCca",
    "RateCca",
    "CubicCca",
    "BbrCca",
    "CopaCca",
    "GccController",
    "NadaController",
    "ScreamController",
    "RATE_CCAS",
    "make_rate_cca",
    "AbcSenderCca",
    "AbcRouter",
    "WINDOW_CCAS",
    "make_window_cca",
]

#: Window-based CCAs (TCP / QUIC senders) by scenario name.
WINDOW_CCAS = {"cubic": CubicCca, "bbr": BbrCca, "copa": CopaCca,
               "abc": AbcSenderCca}
#: Rate-based CCAs (RTP senders) by scenario name.
RATE_CCAS = {"gcc": GccController, "nada": NadaController,
             "scream": ScreamController}


def make_window_cca(name: str, mss: int = 1448) -> WindowCca:
    """Factory for window-based CCAs by scenario name."""
    if name not in WINDOW_CCAS:
        raise ValueError(f"unknown CCA {name!r}; "
                         f"expected one of {sorted(WINDOW_CCAS)}")
    return WINDOW_CCAS[name](mss=mss)


def make_rate_cca(name: str, initial_bps: float = 1e6,
                  max_bps: float = 50e6):
    """Factory for rate-based (RTP) CCAs by scenario name."""
    if name not in RATE_CCAS:
        raise ValueError(f"unknown rate CCA {name!r}; "
                         f"expected one of {sorted(RATE_CCAS)}")
    return RATE_CCAS[name](initial_bps=initial_bps, max_bps=max_bps)
