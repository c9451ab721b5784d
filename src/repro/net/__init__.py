"""Simulated wide-area network: topology, message delivery, RPC."""

from .network import Message, Network, NetworkStats
from .rpc import Cast, Host, RpcError, RpcRemoteError, RpcReply, RpcRequest, RpcTimeout
from .rpc import service_time
from .wire import (
    FRONTIER_BYTES,
    decode_propagation_batch,
    encode_propagation_batch,
)
from .topology import (
    EC2_CROSS_SITE_BANDWIDTH_BPS,
    EC2_INTRA_SITE_BANDWIDTH_BPS,
    EC2_RTT_MS,
    EC2_SITE_NAMES,
    Site,
    Topology,
)

__all__ = [
    "Cast",
    "decode_propagation_batch",
    "encode_propagation_batch",
    "EC2_CROSS_SITE_BANDWIDTH_BPS",
    "EC2_INTRA_SITE_BANDWIDTH_BPS",
    "EC2_RTT_MS",
    "EC2_SITE_NAMES",
    "FRONTIER_BYTES",
    "Host",
    "Message",
    "Network",
    "NetworkStats",
    "RpcError",
    "RpcRemoteError",
    "RpcReply",
    "RpcRequest",
    "RpcTimeout",
    "service_time",
    "Site",
    "Topology",
]
