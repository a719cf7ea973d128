"""FABlib-style slice reservation model (Section 2.1).

FABRIC experiments are organized as *slices* — reservations of virtual
and physical resources across the federation: nodes (VMs or hardware),
components (NICs), and network services connecting them.  The paper
provisions a three-VM slice with two dedicated smart NICs over an
L2Bridge, on a site with 2 % CPU / 1.1 % RAM / 0.8 % disk allocated.

This module models exactly the slice semantics the evaluation depends
on: per-site resource accounting (utilization drives the co-tenant noise
story), dedicated vs shared NIC components (the paper's central
comparison), PTP availability (23 of 33 sites), L2 network services, and
the submit/validate/delete lifecycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "NodeRole",
    "NICKind",
    "NICComponent",
    "SliceNode",
    "NetworkServiceKind",
    "NetworkService",
    "Site",
    "Slice",
    "SliceError",
    "default_site",
]


class NodeRole:
    """Role constants for slice nodes."""

    GENERATOR = "generator"
    REPLAYER = "replayer"
    RECORDER = "recorder"
    NOISE = "noise"


class SliceError(RuntimeError):
    """Raised when a slice operation violates reservation semantics."""


class NICKind(Enum):
    """NIC component models available on FABRIC sites (Section 2.1/7)."""

    #: A dedicated ConnectX-6 smart NIC: the tenant owns the physical port.
    DEDICATED_CX6 = "NIC_ConnectX_6"
    #: An SR-IOV virtual function on a shared ConnectX-6 port.
    SHARED_VF = "NIC_Basic"
    #: A dedicated ConnectX-5 (the local testbed's part, for comparison).
    DEDICATED_CX5 = "NIC_ConnectX_5"


@dataclass(frozen=True)
class NICComponent:
    """One NIC attached to a slice node."""

    name: str
    kind: NICKind
    rate_bps: float = 100e9

    @property
    def is_shared(self) -> bool:
        """True for SR-IOV virtual functions on shared silicon."""
        return self.kind is NICKind.SHARED_VF


@dataclass
class SliceNode:
    """A VM (or bare-metal host) reserved inside a slice."""

    name: str
    cores: int = 4
    ram_gb: int = 16
    disk_gb: int = 50
    role: str = NodeRole.REPLAYER
    nics: list[NICComponent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.cores < 1 or self.ram_gb < 1 or self.disk_gb < 1:
            raise SliceError(f"node {self.name!r}: resources must be positive")

    def add_nic(self, name: str, kind: NICKind, rate_bps: float = 100e9) -> NICComponent:
        """Attach a NIC component; returns it for service wiring."""
        if any(n.name == name for n in self.nics):
            raise SliceError(f"node {self.name!r} already has NIC {name!r}")
        nic = NICComponent(name=name, kind=kind, rate_bps=rate_bps)
        self.nics.append(nic)
        return nic

    def nic(self, name: str) -> NICComponent:
        """Look up an attached NIC by name."""
        for n in self.nics:
            if n.name == name:
                return n
        raise SliceError(f"node {self.name!r} has no NIC {name!r}")


class NetworkServiceKind(Enum):
    """FABRIC network service types (Section 2.1; Ruth et al.)."""

    #: Intra-site L2 bridge connecting several interfaces.
    L2_BRIDGE = "L2Bridge"
    #: Point-to-point L2 circuit (possibly inter-site).
    L2_PTP = "L2PTP"
    #: The federation's routed IPv4 service.
    FABNET_V4 = "FABNetv4"


@dataclass(frozen=True)
class NetworkService:
    """A connection between node interfaces."""

    name: str
    kind: NetworkServiceKind
    endpoints: tuple[tuple[str, str], ...]  # (node name, nic name) pairs

    def __post_init__(self) -> None:
        if self.kind is NetworkServiceKind.L2_PTP and len(self.endpoints) != 2:
            raise SliceError("an L2PTP service connects exactly two interfaces")
        if len(self.endpoints) < 2:
            raise SliceError("a network service needs at least two endpoints")


@dataclass
class Site:
    """One FABRIC site's aggregate resources.

    The defaults approximate a large site; the paper's site had only
    ~2 % CPU, 1.1 % RAM and 0.8 % disk allocated when the evaluation ran.
    """

    name: str = "STAR"
    total_cores: int = 1280
    total_ram_gb: int = 8192
    total_disk_gb: int = 100_000
    ptp_available: bool = True  # 23 of FABRIC's 33 sites provide PTP
    allocated_cores: int = 0
    allocated_ram_gb: int = 0
    allocated_disk_gb: int = 0

    def utilization(self) -> dict[str, float]:
        """Fractional allocation per resource (the Section 7 site quote)."""
        return {
            "cores": self.allocated_cores / self.total_cores,
            "ram": self.allocated_ram_gb / self.total_ram_gb,
            "disk": self.allocated_disk_gb / self.total_disk_gb,
        }

    def _reserve(self, cores: int, ram: int, disk: int) -> None:
        if (
            self.allocated_cores + cores > self.total_cores
            or self.allocated_ram_gb + ram > self.total_ram_gb
            or self.allocated_disk_gb + disk > self.total_disk_gb
        ):
            raise SliceError(f"site {self.name!r} cannot satisfy the reservation")
        self.allocated_cores += cores
        self.allocated_ram_gb += ram
        self.allocated_disk_gb += disk

    def _release(self, cores: int, ram: int, disk: int) -> None:
        self.allocated_cores -= cores
        self.allocated_ram_gb -= ram
        self.allocated_disk_gb -= disk


def default_site() -> Site:
    """A quiet large site like the paper's (≈2 % CPU / 1.1 % RAM / 0.8 % disk
    already allocated by other tenants)."""
    s = Site()
    s.allocated_cores = int(s.total_cores * 0.02)
    s.allocated_ram_gb = int(s.total_ram_gb * 0.011)
    s.allocated_disk_gb = int(s.total_disk_gb * 0.008)
    return s


@dataclass
class Slice:
    """A reservation of nodes and network services on one site."""

    name: str
    site: Site = field(default_factory=default_site)
    nodes: dict[str, SliceNode] = field(default_factory=dict)
    services: list[NetworkService] = field(default_factory=list)
    submitted: bool = False

    # -- build phase ------------------------------------------------------
    def add_node(self, name: str, **kwargs) -> SliceNode:
        """Declare a node; keyword args match :class:`SliceNode`."""
        self._mutable()
        if name in self.nodes:
            raise SliceError(f"slice already has node {name!r}")
        node = SliceNode(name=name, **kwargs)
        self.nodes[name] = node
        return node

    def add_network_service(
        self, name: str, kind: NetworkServiceKind, endpoints: list[tuple[str, str]]
    ) -> NetworkService:
        """Declare a service over already-declared node interfaces."""
        self._mutable()
        for node_name, nic_name in endpoints:
            if node_name not in self.nodes:
                raise SliceError(f"service {name!r}: unknown node {node_name!r}")
            self.nodes[node_name].nic(nic_name)  # raises if missing
        svc = NetworkService(name=name, kind=kind, endpoints=tuple(endpoints))
        self.services.append(svc)
        return svc

    def _mutable(self) -> None:
        if self.submitted:
            raise SliceError(f"slice {self.name!r} is submitted; delete it first")

    # -- lifecycle ---------------------------------------------------------
    def submit(self) -> None:
        """Validate and reserve the slice against the site."""
        self._mutable()
        if not self.nodes:
            raise SliceError("cannot submit an empty slice")
        cores = sum(n.cores for n in self.nodes.values())
        ram = sum(n.ram_gb for n in self.nodes.values())
        disk = sum(n.disk_gb for n in self.nodes.values())
        self.site._reserve(cores, ram, disk)
        self.submitted = True

    def delete(self) -> None:
        """Release the reservation (idempotent on unsubmitted slices)."""
        if not self.submitted:
            return
        cores = sum(n.cores for n in self.nodes.values())
        ram = sum(n.ram_gb for n in self.nodes.values())
        disk = sum(n.disk_gb for n in self.nodes.values())
        self.site._release(cores, ram, disk)
        self.submitted = False

    @property
    def ptp_synchronized(self) -> bool:
        """Whether this slice's VMs can run the FABRIC PTP stack."""
        return self.site.ptp_available

    def uses_shared_nics(self) -> bool:
        """True when any data-plane NIC is an SR-IOV VF."""
        return any(n.is_shared for node in self.nodes.values() for n in node.nics)
