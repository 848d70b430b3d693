"""Two-node testbed assembly.

:class:`Testbed` wires together everything below the application: the
simulator, two hosts (client / server), the link (optionally through a
delay emulator), the RDMA devices, and an EXS stack on each host.  It is
the starting point of every example, test, and benchmark::

    tb = Testbed.from_scenario(ScenarioConfig(seed=1))
    tb.sim.process(server_app(tb.server), name="server")
    tb.sim.process(client_app(tb.client), name="client")
    tb.run()

Since the fabric API redesign, ``Testbed`` is the trivial two-host case of
:class:`repro.fabric.Fabric` — a :meth:`~repro.simnet.fabric.Topology.point_to_point`
topology with hosts named ``client`` and ``server`` — kept as the
convenient front door for point-to-point experiments.  Its assembly takes
exactly the same code path the standalone implementation did (one link,
cross-wired peer devices, no switch), so event sequences are bit-identical
to historical builds.

The run is described by one :class:`repro.config.ScenarioConfig`, so it
serializes and replays; only the ``jitter``/``trace`` callables ride
alongside it.
"""

from __future__ import annotations

from typing import Callable, Optional

from .config import ScenarioConfig
from .exs import ExsStack
from .fabric import Fabric
from .verbs import RdmaDevice

__all__ = ["Testbed"]


class Testbed(Fabric):
    """A client host and a server host joined by one RDMA-capable link."""

    def __init__(
        self,
        scenario: ScenarioConfig,
        *,
        jitter: Optional[Callable] = None,
        trace: Optional[Callable[[int, str, str], None]] = None,
    ) -> None:
        """Assemble the two-host wire *scenario* describes.

        A lossy wire (``scenario.faults``) without ``scenario.reliability``
        gets a reliability config scaled to the path's one-way latency —
        an impaired wire without retransmission machinery loses data by
        design.  For topologies beyond the two-host wire, use
        :class:`repro.fabric.Fabric`.
        """
        if scenario.topology is not None and not scenario.topology.direct:
            raise ValueError(
                "Testbed is the two-host wire; build multi-host "
                "topologies with repro.fabric.Fabric"
            )
        super().__init__(scenario, jitter=jitter, trace=trace)

    # -- two-host accessors (the Fabric spelling is host/stack/device) ---
    @property
    def client(self) -> ExsStack:
        """The EXS stack on the client host."""
        return self.stack("client")

    @property
    def server(self) -> ExsStack:
        """The EXS stack on the server host."""
        return self.stack("server")

    @property
    def client_device(self) -> RdmaDevice:
        return self.device("client")

    @property
    def server_device(self) -> RdmaDevice:
        return self.device("server")
