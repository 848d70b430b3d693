"""Socket types, message flags, and per-socket options for UNH EXS.

UNH EXS implements the Extended Sockets API (ES-API): a sockets-like,
explicitly asynchronous interface.  The subset modelled here is the one the
paper uses: connected ``SOCK_STREAM`` and ``SOCK_SEQPACKET`` sockets, the
``MSG_WAITALL`` receive flag, and the experiment flags the blast tool uses
to force the direct-only / indirect-only baseline protocols.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..core.modes import ProtocolMode

__all__ = [
    "SocketType",
    "MsgFlags",
    "ExsSocketOptions",
    "TRANSPORT_WWI",
    "TRANSPORT_EAGER_RENDEZVOUS",
]

#: paper protocol: direct/indirect RDMA WRITE WITH IMM with ADVERTs
TRANSPORT_WWI = "wwi"
#: MPICH2-over-IB style SEND/RECV: eager copy below a threshold,
#: RTS/CTS rendezvous into registered user memory above it
TRANSPORT_EAGER_RENDEZVOUS = "eager_rendezvous"


class SocketType(enum.Enum):
    """``type`` argument of ``exs_socket()``."""

    #: byte-stream semantics (TCP-like) — the subject of the paper
    SOCK_STREAM = "stream"
    #: message semantics (one exs_send matches one exs_recv)
    SOCK_SEQPACKET = "seqpacket"


class MsgFlags(enum.Flag):
    """Flags for ``exs_send`` / ``exs_recv``."""

    NONE = 0
    #: receiver: complete only when the user buffer is completely full
    MSG_WAITALL = enum.auto()


@dataclass(frozen=True)
class ExsSocketOptions:
    """Tunables of one EXS socket (library-internal knobs in the real EXS).

    The defaults mirror the configuration used for the paper's experiments
    as far as it is documented; undocumented constants (intermediate buffer
    size, credit count, ACK cadence) are stated here explicitly and
    exercised by the ablation benchmarks.
    """

    #: stream protocol variant (dynamic, or one of the two baselines)
    mode: ProtocolMode = ProtocolMode.DYNAMIC
    #: data-plane strategy for SOCK_STREAM: the paper's WWI protocol
    #: (``"wwi"``) or the eager/rendezvous SEND-RECV alternative
    #: (``"eager_rendezvous"``) used by the transport bake-off.  ``None``
    #: (the default) takes the stack's transport, which a fabric sets from
    #: :attr:`repro.config.ScenarioConfig.transport` (``"wwi"`` when unset).
    transport: Optional[str] = None
    #: eager/rendezvous only: largest message sent eagerly (copied through
    #: the receiver's bounce slots); larger messages use RTS/CTS
    eager_threshold: int = 16 * 1024
    #: capacity of the hidden receive-side intermediate buffer
    ring_capacity: int = 16 * 1024 * 1024
    #: receive WRs posted at startup == send credits granted to the peer
    credits: int = 128
    #: send a buffer ACK whenever this fraction of the ring has been copied
    #: out since the last ACK (1/4 of the capacity by default) ...
    ack_divisor: int = 4
    #: ... and always when the ring drains empty.
    ack_on_empty: bool = True
    #: credits reserved for control messages (avoids control/data deadlock)
    control_credit_reserve: int = 2
    #: send an explicit credit update after this many recv reposts with no
    #: other outbound control traffic
    credit_update_threshold: Optional[int] = None  # default: credits // 2
    #: allocate real byte-carrying buffers (False = synthetic length-only
    #: payloads for large benchmark runs; protocol checking stays on)
    real_data: bool = True
    #: use native RDMA WRITE WITH IMM (True, InfiniBand/RoCE/new iWARP).
    #: False emulates older iWARP hardware per paper §II-B: every data
    #: transfer becomes an RDMA WRITE followed by a small notification SEND.
    native_write_with_imm: bool = True
    #: busy-poll the completion queue instead of sleeping on the completion
    #: channel (paper §IV-B used event notification because "most messages
    #: in this study are large enough that there is little advantage to
    #: busy polling"); polling removes the OS wake-up latency at the cost
    #: of a spinning core.
    busy_poll: bool = False
    #: SDP-BCopy / rsockets-style send-side staging: exs_send completes as
    #: soon as the data has been copied into a pre-registered library
    #: buffer (the "fast send response benefit of TCP-style buffering" the
    #: paper's problem statement names), and the transfer proceeds from
    #: the staging copy.  Costs one sender-side memcpy per send.
    sender_copy: bool = False

    def __post_init__(self) -> None:
        if self.transport not in (None, TRANSPORT_WWI, TRANSPORT_EAGER_RENDEZVOUS):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.eager_threshold <= 0:
            raise ValueError("eager_threshold must be positive")

    def effective_credit_update_threshold(self) -> int:
        return self.credit_update_threshold or max(1, self.credits // 2)
