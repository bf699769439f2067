"""The real-network runtime: PSGuard over asyncio TCP sockets.

Everything below the sockets is the existing stack -- sealed events in
their PSE2 wire format, tokenized routing, the Siena broker core,
bounded priority queues -- deployed over a real transport:

- :mod:`repro.rtnet.frames` -- the length-prefixed frame protocol
  (HELLO version negotiation, SUBSCRIBE/UNSUBSCRIBE, EVENT, ACK, the
  PING/PONG settle barrier, and the KDC_CALL/KDC_REPLY pair and REKEY
  push of the KDC service links);
- :mod:`repro.rtnet.link` -- how every connection opens: one HELLO
  handshake, one accept, one redial loop with backoff + jitter;
- :mod:`repro.rtnet.server` -- :class:`BrokerServer`, one broker behind
  an asyncio TCP listener that dispatches each frame where it reads it,
  with per-peer egress queues and hop-by-hop backpressure;
- :mod:`repro.rtnet.client` -- :class:`RtPublisher` /
  :class:`RtSubscriber` endpoints with reconnect + exponential backoff,
  resubscribe-on-reconnect and exactly-once delivery across reconnects;
- :mod:`repro.rtnet.service` -- :class:`TcpServiceNetwork`, the asyncio
  TCP host of the replicated KDC: the same ``KDCCluster`` and
  ``KDCClient`` classes the simulated
  :class:`~repro.net.service.ServiceNetwork` hosts;
- :mod:`repro.rtnet.cluster` -- :class:`ClusterLauncher`, a broker tree
  as a localhost TCP cluster, with a 3-replica KDC beside it on request;
- :mod:`repro.rtnet.live` -- :class:`LiveSystem`, the synchronous facade
  ``System.builder().transport("tcp").build()`` returns.
"""

from repro.rtnet.client import RtEndpoint, RtPublisher, RtSubscriber
from repro.rtnet.cluster import ClusterLauncher
from repro.rtnet.frames import (
    FRAME_MAX,
    PROTOCOL_VERSION,
    Ack,
    EventFrame,
    Frame,
    FrameDecoder,
    FrameReader,
    FrameType,
    Hello,
    HelloAck,
    KdcCall,
    KdcReply,
    MalformedCall,
    Ping,
    Pong,
    Rekey,
    Subscribe,
    Unsubscribe,
    decode_payload,
    encode_frame,
)
from repro.rtnet.link import HandshakeError
from repro.rtnet.live import LivePublisher, LiveSubscriber, LiveSystem
from repro.rtnet.server import CONTROL_PRIORITY, BrokerServer
from repro.rtnet.service import TcpServiceNetwork

__all__ = [
    "Ack",
    "BrokerServer",
    "CONTROL_PRIORITY",
    "ClusterLauncher",
    "EventFrame",
    "FRAME_MAX",
    "Frame",
    "FrameDecoder",
    "FrameReader",
    "FrameType",
    "HandshakeError",
    "Hello",
    "HelloAck",
    "KdcCall",
    "KdcReply",
    "LivePublisher",
    "LiveSubscriber",
    "LiveSystem",
    "MalformedCall",
    "PROTOCOL_VERSION",
    "Ping",
    "Pong",
    "Rekey",
    "RtEndpoint",
    "RtPublisher",
    "RtSubscriber",
    "Subscribe",
    "TcpServiceNetwork",
    "Unsubscribe",
    "decode_payload",
    "encode_frame",
]
