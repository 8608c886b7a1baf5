"""Simulated GCP cluster: nodes, network, serialization cost models.

This package is the substitute for the paper's testbed (Section IV-A):
two clusters of four 8-vCPU/64 GB VMs.  See DESIGN.md section 2 for the
substitution rationale.
"""

from repro.cluster.cluster import CONTROLLER, Cluster, build_cluster
from repro.cluster.network import Network
from repro.cluster.node import Mechanism, Node, charge
from repro.cluster.serialization import (
    Codec,
    CodecSuite,
    Sized,
    estimate_bytes,
    make_codecs,
)

__all__ = [
    "CONTROLLER",
    "Cluster",
    "build_cluster",
    "Mechanism",
    "charge",
    "Network",
    "Node",
    "Codec",
    "CodecSuite",
    "Sized",
    "estimate_bytes",
    "make_codecs",
]
