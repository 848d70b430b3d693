"""Unified, serializable scenario configuration.

Everything that shapes *how a run is executed* — as opposed to what the
application sends — is one frozen, picklable, JSON-round-trippable
:class:`ScenarioConfig`.  It is the only input of
:class:`~repro.testbed.Testbed`, :class:`~repro.fabric.Fabric`,
:func:`~repro.apps.blast.run_blast` and
:func:`~repro.bench.experiment.run_grid` (plus the non-serializable
``jitter``/``trace`` callables of the first two); no library code reads
the environment to change a run:

* **profile** — which :class:`~repro.bench.profiles.HardwareProfile`
  (by name, so scenarios serialize)
* **topology** — optional :class:`~repro.simnet.fabric.Topology` for
  multi-host fabrics (``None`` = the classic two-host wire)
* **seed** — the testbed seed (wake-up latencies, fault streams, ...)
* **faults** — optional :class:`~repro.simnet.faults.FaultProfile`, or a
  per-edge ``{edge_name: FaultProfile}`` mapping on a topology (a pre-built
  :class:`~repro.simnet.faults.ImpairmentModel` also works, but does not
  serialize)
* **reliability** — optional :class:`~repro.verbs.reliability.ReliabilityConfig`
* **transport** — the EXS data plane of every stream socket whose options
  leave ``transport`` unset
* **schedule** — optional same-instant tie-break policy spec
  (``("fifo", 0)`` or ``("random", seed)``; see :mod:`repro.simnet.schedule`)
* **telemetry** / **telemetry_dir** — :mod:`repro.obs` session and artifact
  placement
* **max_events** — runaway-simulation guard

Because a scenario serializes, every :mod:`repro.check` counterexample is a
scenario: the fuzzer writes the exact ``ScenarioConfig`` that produced a
violation, and ``python -m repro.check replay`` re-runs it bit for bit.

docs/API.md maps the removed keyword spellings to their fields.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from .bench.profiles import PROFILES, HardwareProfile
from .simnet.fabric import Topology
from .simnet.faults import FaultProfile, ImpairmentModel
from .simnet.schedule import SchedulePolicy, policy_from_spec
from .verbs.reliability import ReliabilityConfig

__all__ = ["ScenarioConfig"]


@dataclass(frozen=True)
class ScenarioConfig:
    """One reproducible run environment, as a value.

    ``profile`` may be a profile *name* (a key of
    :data:`repro.bench.profiles.PROFILES` — the serializable spelling) or a
    :class:`HardwareProfile` instance (for ad-hoc profiles; such scenarios
    pickle but do not JSON-serialize unless the profile is registered).
    The same holds for a pre-built :class:`ImpairmentModel` in ``faults``.
    """

    profile: Union[str, HardwareProfile] = "fdr"
    seed: int = 0
    #: multi-host fabric layout; ``None`` means the classic two-host wire
    #: (equivalent to :meth:`Topology.point_to_point`)
    topology: Optional[Topology] = None
    #: wire impairment: one :class:`FaultProfile` applied to every edge, or
    #: a ``{edge_name: FaultProfile}`` mapping addressing individual edges
    #: of the topology (e.g. ``{"client0-spine0": LIGHT_LOSS}``); unknown
    #: edge names raise eagerly.  A pre-built :class:`ImpairmentModel`
    #: (down windows, asymmetry) fits the two-host wire or one edge.
    faults: Optional[Union[FaultProfile, ImpairmentModel,
                           Dict[str, Union[FaultProfile, ImpairmentModel]]]] = None
    reliability: Optional[ReliabilityConfig] = None
    #: EXS data-plane transport of every stream socket whose
    #: :class:`~repro.exs.ExsSocketOptions` leave ``transport`` unset:
    #: ``"wwi"``, ``"eager_rendezvous"``, or ``None`` (= ``"wwi"``, the
    #: paper's protocol); an explicit socket option still wins
    transport: Optional[str] = None
    #: same-instant schedule policy spec: ``None`` (kernel FIFO),
    #: ``("fifo", 0)``, or ``("random", seed)``
    schedule: Optional[Tuple[str, int]] = None
    #: attach a :mod:`repro.obs` telemetry session to the run
    telemetry: bool = False
    #: write per-run telemetry JSONL artifacts into this directory
    telemetry_dir: Optional[str] = None
    #: record the full causal DAG (kernel capture; enables critical-path
    #: attribution via :mod:`repro.obs.causal`).  Simulated results are
    #: unchanged.
    causal_capture: bool = False
    #: >0 keeps a bounded flight ring of that many fired events, dumped as
    #: JSON when a QP/connection fails (cheap always-on blackbox mode);
    #: implied by ``causal_capture`` (which retains everything)
    flight_recorder: int = 0
    #: hard cap on simulation events (``None`` = caller's default)
    max_events: Optional[int] = None
    #: >0 makes every host's receive-pool connections share one SRQ-backed
    #: buffer pool of that many slots (RNR-NAK on exhaustion) instead of
    #: posting ``credits`` buffers per connection; ``None`` keeps the
    #: historical per-QP receive queues
    srq_depth: Optional[int] = None
    #: >0 shards completion handling: connections share ``cq_shards``
    #: completion queues per host and one poller process drains each shard,
    #: so devices poll O(shards), not O(connections); 0 keeps the
    #: historical per-connection engine loop (bit-identical)
    cq_shards: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.profile, str) and self.profile not in PROFILES:
            raise ValueError(
                f"unknown profile {self.profile!r} (known: {', '.join(sorted(PROFILES))})"
            )
        if self.transport not in (None, "wwi", "eager_rendezvous"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if isinstance(self.faults, dict):
            if self.topology is None:
                raise ValueError(
                    "per-edge faults ({edge_name: FaultProfile}) require a topology"
                )
            for name in self.faults:
                self.topology.resolve_edge(name)  # raises on unknown edges
        if self.srq_depth is not None and self.srq_depth <= 0:
            raise ValueError("srq_depth must be positive (or None)")
        if self.cq_shards < 0:
            raise ValueError("cq_shards must be >= 0")
        if self.schedule is not None:
            # normalize to a plain (kind, seed) tuple and validate eagerly
            if isinstance(self.schedule, SchedulePolicy):
                spec = self.schedule.spec()
            else:
                spec = (str(self.schedule[0]), int(self.schedule[1]))
                policy_from_spec(spec)
            object.__setattr__(self, "schedule", spec)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve_profile(self) -> HardwareProfile:
        return PROFILES[self.profile] if isinstance(self.profile, str) else self.profile

    def schedule_policy(self) -> Optional[SchedulePolicy]:
        return policy_from_spec(self.schedule)

    def with_(self, **changes) -> "ScenarioConfig":
        """A copy with *changes* applied (``dataclasses.replace`` spelling)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict; inverse of :meth:`from_dict`.

        Raises :class:`ValueError` for the non-serializable spellings: an
        unregistered :class:`HardwareProfile`, or a pre-built
        :class:`ImpairmentModel` in ``faults``.
        """
        profile = self.profile
        if isinstance(profile, HardwareProfile):
            if PROFILES.get(profile.name) is not profile:
                raise ValueError(
                    f"profile {profile.name!r} is not registered in PROFILES; "
                    "serializable scenarios must name a registered profile"
                )
            profile = profile.name
        if isinstance(self.faults, dict):
            faults = {"per_edge": {
                name: _fault_profile_dict(fp) for name, fp in self.faults.items()
            }}
        else:
            faults = _fault_profile_dict(self.faults) if self.faults else None
        return {
            "profile": profile,
            "seed": self.seed,
            "topology": self.topology.to_dict() if self.topology else None,
            "faults": faults,
            "reliability": dataclasses.asdict(self.reliability) if self.reliability else None,
            "transport": self.transport,
            "schedule": list(self.schedule) if self.schedule else None,
            "telemetry": self.telemetry,
            "telemetry_dir": self.telemetry_dir,
            "causal_capture": self.causal_capture,
            "flight_recorder": self.flight_recorder,
            "max_events": self.max_events,
            "srq_depth": self.srq_depth,
            "cq_shards": self.cq_shards,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        faults = data.get("faults")
        if faults and "per_edge" in faults:
            faults = {name: FaultProfile(**fp) for name, fp in faults["per_edge"].items()}
        elif faults:
            faults = FaultProfile(**faults)
        else:
            faults = None
        topology = data.get("topology")
        reliability = data.get("reliability")
        schedule = data.get("schedule")
        return cls(
            profile=data.get("profile", "fdr"),
            seed=int(data.get("seed", 0)),
            topology=Topology.from_dict(topology) if topology else None,
            faults=faults,
            reliability=ReliabilityConfig(**reliability) if reliability else None,
            transport=data.get("transport"),
            schedule=tuple(schedule) if schedule else None,
            telemetry=bool(data.get("telemetry", False)),
            telemetry_dir=data.get("telemetry_dir"),
            causal_capture=bool(data.get("causal_capture", False)),
            flight_recorder=int(data.get("flight_recorder", 0)),
            max_events=data.get("max_events"),
            srq_depth=data.get("srq_depth"),
            cq_shards=int(data.get("cq_shards", 0)),
        )


def _fault_profile_dict(faults) -> dict:
    if not isinstance(faults, FaultProfile):
        raise ValueError(
            f"faults holds a {type(faults).__name__}, which does not serialize; "
            "serializable scenarios describe faults as FaultProfile values"
        )
    return dataclasses.asdict(faults)
