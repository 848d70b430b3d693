"""EXS sockets: the user-visible objects of the library.

:class:`ExsStack` is the per-host instance of the EXS library (wrapping the
host's RDMA device and connection manager); :class:`ExsSocket` is one
socket created from it.  All data-path operations are asynchronous and
complete through an :class:`~repro.exs.eventqueue.ExsEventQueue`, mirroring
the ES-API design (see :mod:`repro.exs.api` for the ``exs_*`` free
functions and a blocking convenience facade).
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, Optional

from ..hosts.host import Host
from ..hosts.memory import Buffer
from ..simnet import Event, Simulator
from ..verbs import ConnectionManager, MemoryRegion, RdmaDevice
from .connection import ExsConnection
from .eventqueue import ExsEvent, ExsEventQueue, ExsEventType
from .flags import TRANSPORT_WWI, ExsSocketOptions, MsgFlags, SocketType
from .stream_receiver import UserRecv

__all__ = ["ExsStack", "ExsSocket", "ExsError"]


class ExsError(RuntimeError):
    """Misuse of the EXS API (wrong socket state, bad arguments, ...)."""


class ExsStack:
    """Per-host EXS library instance.

    *srq_depth* (>0) makes every control-plane connection on this stack
    draw receives from one shared pool of that many buffers (a
    :class:`~repro.exs.shard.SrqPool`) instead of posting ``credits``
    buffers per connection; *cq_shards* (>0) makes connections share that
    many completion queues, each drained by one poller process
    (:class:`~repro.exs.shard.CqShard`), instead of one CQ + engine per
    connection.  Both default off, which keeps the historical
    per-connection resources and event sequences bit-identical.
    *transport* is the data plane of stream sockets whose options leave
    ``transport`` unset (a fabric passes its scenario's transport here).
    """

    def __init__(self, sim: Simulator, host: Host, device: RdmaDevice,
                 cm: Optional[ConnectionManager] = None, *, seed: int = 0,
                 srq_depth: Optional[int] = None, cq_shards: int = 0,
                 transport: str = TRANSPORT_WWI) -> None:
        self.sim = sim
        self.host = host
        self.device = device
        self.transport = transport
        self.cm = cm or ConnectionManager(device)
        self._seed = itertools.count(seed * 10_000 + 1)
        #: cost (ns) to pin+register memory, charged by :meth:`mregister`;
        #: real registration is expensive (page pinning), which is why EXS
        #: exposes it explicitly instead of hiding it per-transfer.
        self.mregister_base_ns = 10_000
        self.mregister_ns_per_page = 50
        from .shard import CqShard, SrqPool  # circular at module load time

        #: shared receive pool, or None for per-connection receive queues
        self.srq_pool = SrqPool(self, srq_depth) if srq_depth else None
        #: CQ shards, empty for per-connection completion queues
        self.shards = [CqShard(self, i) for i in range(cq_shards)]
        self._next_shard = 0

    def take_shard(self):
        """Round-robin shard assignment for a new connection (or None)."""
        if not self.shards:
            return None
        shard = self.shards[self._next_shard % len(self.shards)]
        self._next_shard += 1
        return shard

    # -- ES-API entry points ---------------------------------------------
    def socket(self, socket_type: SocketType = SocketType.SOCK_STREAM,
               options: Optional[ExsSocketOptions] = None) -> "ExsSocket":
        """``exs_socket()``: create an unconnected socket."""
        return ExsSocket(self, socket_type, options or ExsSocketOptions())

    def qcreate(self, depth: int = 4096) -> ExsEventQueue:
        """``exs_qcreate()``: create an event queue."""
        return ExsEventQueue(
            self.sim,
            depth,
            wakeup=getattr(self.host, "wakeup_sampler", None),
            seed=self.next_seed(),
        )

    def mregister(self, buffer: Buffer) -> Generator[Event, Any, MemoryRegion]:
        """``exs_mregister()``: register user memory for I/O.

        Generator — apps call ``mr = yield from stack.mregister(buf)``; the
        registration cost occupies the caller's CPU.
        """
        pages = buffer.nbytes // 4096 + 1
        # registration happens on the calling (application) thread
        yield from self.host.app_cpu.work(
            self.mregister_base_ns + pages * self.mregister_ns_per_page
        )
        return self.device.register(buffer)

    def mderegister(self, mr: MemoryRegion) -> None:
        """``exs_mderegister()``."""
        self.device.pd.deregister(mr)

    def alloc(self, nbytes: int, *, real: bool = True, label: str = "") -> Buffer:
        """Allocate host memory (convenience; not part of ES-API)."""
        return self.host.alloc(nbytes, real=real, label=label)

    def next_seed(self) -> int:
        return next(self._seed)


class ExsSocket:
    """One EXS socket (unconnected, listening, or connected)."""

    def __init__(self, stack: ExsStack, socket_type: SocketType, options: ExsSocketOptions) -> None:
        self.stack = stack
        self.socket_type = socket_type
        self.options = options
        self.conn: Optional[ExsConnection] = None
        self._listener = None
        self._port: Optional[int] = None
        self.peer_hello: Optional[dict] = None

    # ------------------------------------------------------------------
    # passive side
    # ------------------------------------------------------------------
    def bind_listen(self, port: int) -> None:
        """``exs_bind()`` + ``exs_listen()``."""
        if self._listener is not None:
            raise ExsError("socket already listening")
        self._listener = self.stack.cm.listen(port)
        self._port = port

    def accept(self, eq: ExsEventQueue, context: Any = None,
               options: Optional[ExsSocketOptions] = None) -> None:
        """``exs_accept()``: asynchronously accept one connection.

        Posts an ``ACCEPT`` event carrying the new connected socket in
        ``event.socket`` when the handshake completes on this side.
        """
        if self._listener is None:
            raise ExsError("accept on a non-listening socket")
        self.stack.sim.process(
            self._accept_proc(eq, context, options or self.options), name="exs-accept"
        )

    def _accept_proc(self, eq: ExsEventQueue, context: Any, options: ExsSocketOptions):
        request = yield self._listener.get_request()
        new_sock = ExsSocket(self.stack, self.socket_type, options)
        conn = ExsConnection(
            self.stack.sim,
            self.stack.host,
            self.stack.device,
            new_sock,
            options,
            channel_seed=self.stack.next_seed(),
            socket_type=self.socket_type,
            srq=self.stack.srq_pool,
            shard=self.stack.take_shard(),
            transport=self.stack.transport,
        )
        new_sock.conn = conn
        new_sock.peer_hello = request.private_data
        # Post the receive pool before answering so no message can beat it.
        yield from conn.charge(conn.costs.post_wr_ns * options.credits)
        conn.post_initial_recvs()
        try:
            conn.on_peer_hello(request.private_data)
        except ValueError as exc:
            request.reject(str(exc))
            eq.post(ExsEvent(kind=ExsEventType.ERROR, socket=new_sock, context=context,
                             error=str(exc)))
            return
        request.accept(conn.qp, conn.hello())
        eq.post(ExsEvent(kind=ExsEventType.ACCEPT, socket=new_sock, context=context))

    # ------------------------------------------------------------------
    # active side
    # ------------------------------------------------------------------
    def connect(self, port: int, eq: ExsEventQueue, context: Any = None,
                *, to: Optional[str] = None) -> None:
        """``exs_connect()``: asynchronously connect to *port* on the peer.

        Posts a ``CONNECT`` event when established.  On a multi-host
        fabric *to* names the destination host; the classic point-to-point
        wire has an implicit peer and ignores it.
        """
        if self.conn is not None:
            raise ExsError("socket already connected")
        conn = ExsConnection(
            self.stack.sim,
            self.stack.host,
            self.stack.device,
            self,
            self.options,
            channel_seed=self.stack.next_seed(),
            socket_type=self.socket_type,
            srq=self.stack.srq_pool,
            shard=self.stack.take_shard(),
            transport=self.stack.transport,
        )
        self.conn = conn
        self.stack.sim.process(self._connect_proc(port, eq, context, to), name="exs-connect")

    def _connect_proc(self, port: int, eq: ExsEventQueue, context: Any,
                      to: Optional[str] = None):
        conn = self.conn
        yield from conn.charge(conn.costs.post_wr_ns * self.options.credits)
        conn.post_initial_recvs()
        done = self.stack.cm.connect(port, conn.qp, conn.hello(), to=to)
        try:
            _remote_qpn, peer_hello = yield done
        except Exception as exc:  # connection refused / rejected
            eq.post(ExsEvent(kind=ExsEventType.ERROR, socket=self, context=context,
                             error=str(exc)))
            return
        self.peer_hello = peer_hello
        try:
            conn.on_peer_hello(peer_hello)
        except ValueError as exc:
            eq.post(ExsEvent(kind=ExsEventType.ERROR, socket=self, context=context,
                             error=str(exc)))
            return
        eq.post(ExsEvent(kind=ExsEventType.CONNECT, socket=self, context=context))

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def send(self, buffer: Buffer, mr: MemoryRegion, nbytes: int, eq: ExsEventQueue,
             *, offset: int = 0, flags: MsgFlags = MsgFlags.NONE, context: Any = None) -> None:
        """``exs_send()``: asynchronous send of *nbytes* from *buffer*.

        Completion (a ``SEND`` event on *eq*) means the library and
        transport are done with the memory — the user may reuse it.
        """
        self._require_connected()
        if nbytes <= 0:
            raise ExsError("exs_send of <= 0 bytes")
        buffer.check_range(offset, nbytes)
        self.conn.user_send(buffer, mr, offset, nbytes, eq, context)

    def recv(self, buffer: Buffer, mr: MemoryRegion, nbytes: int, eq: ExsEventQueue,
             *, offset: int = 0, flags: MsgFlags = MsgFlags.NONE, context: Any = None) -> None:
        """``exs_recv()``: asynchronous receive of up to *nbytes*.

        With ``MSG_WAITALL`` the completion waits until the buffer is full
        (or end of stream); otherwise it fires on first available data.
        """
        self._require_connected()
        if nbytes <= 0:
            raise ExsError("exs_recv of <= 0 bytes")
        buffer.check_range(offset, nbytes)
        urecv = UserRecv(
            buffer=buffer,
            mr=mr,
            offset=offset,
            nbytes=nbytes,
            waitall=bool(flags & MsgFlags.MSG_WAITALL),
            eq=eq,
            context=context,
            posted_at_ns=self.stack.sim.now,
        )
        self.conn.user_recv(urecv)

    def close(self, eq: ExsEventQueue, context: Any = None) -> None:
        """``exs_close()``: flush pending sends, send FIN, then post CLOSE."""
        self._require_connected()
        self.conn.user_close(eq, context)

    # ------------------------------------------------------------------
    def _require_connected(self) -> None:
        if self.conn is None or not self.conn.established:
            raise ExsError("socket is not connected")

    # -- statistics -------------------------------------------------------
    @property
    def tx_stats(self):
        """Protocol statistics for the outbound direction."""
        self._require_connected()
        return self.conn.tx_stats

    @property
    def rx_stats(self):
        """Protocol statistics for the inbound direction."""
        self._require_connected()
        return self.conn.rx_stats
