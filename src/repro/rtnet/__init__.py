"""The real-network runtime: PSGuard over asyncio TCP sockets.

Everything below the sockets is the existing stack -- sealed events in
their PSE2 wire format, tokenized routing, the Siena broker core,
bounded priority queues -- deployed over a real transport:

- :mod:`repro.rtnet.frames` -- the length-prefixed frame protocol
  (HELLO version negotiation, SUBSCRIBE/UNSUBSCRIBE, EVENT, ACK,
  HEARTBEAT, the PING/PONG settle barrier, and the
  GRANT/GRANT_ACK/REKEY/REVOKE key-lifecycle plane of
  :mod:`repro.rekey`);
- :mod:`repro.rtnet.server` -- :class:`BrokerServer`, one broker behind
  an asyncio TCP listener with per-peer egress queues and hop-by-hop
  backpressure;
- :mod:`repro.rtnet.client` -- :class:`RtPublisher` /
  :class:`RtSubscriber` endpoints with reconnect + exponential backoff,
  resubscribe-on-reconnect and exactly-once delivery across reconnects;
- :mod:`repro.rtnet.cluster` -- :class:`ClusterLauncher`, a broker tree
  as a localhost TCP cluster;
- :mod:`repro.rtnet.live` -- :class:`LiveSystem`, the synchronous facade
  ``System.builder().transport("tcp").build()`` returns.
"""

from repro.rtnet.client import (
    HandshakeError,
    RtEndpoint,
    RtPublisher,
    RtSubscriber,
)
from repro.rtnet.cluster import ClusterLauncher
from repro.rtnet.frames import (
    FRAME_MAX,
    GRANT_DENIED,
    GRANT_DONE,
    GRANT_OK,
    GRANT_UNAVAILABLE,
    PROTOCOL_VERSION,
    Ack,
    EventFrame,
    Frame,
    FrameDecoder,
    FrameType,
    GrantAck,
    GrantRequest,
    Heartbeat,
    Hello,
    HelloAck,
    Ping,
    Pong,
    Rekey,
    Revoke,
    Subscribe,
    Unsubscribe,
    decode_payload,
    encode_frame,
    read_frame,
)
from repro.rtnet.live import LivePublisher, LiveSubscriber, LiveSystem
from repro.rtnet.server import CONTROL_PRIORITY, BrokerServer

__all__ = [
    "Ack",
    "BrokerServer",
    "CONTROL_PRIORITY",
    "ClusterLauncher",
    "EventFrame",
    "FRAME_MAX",
    "Frame",
    "FrameDecoder",
    "FrameType",
    "GRANT_DENIED",
    "GRANT_DONE",
    "GRANT_OK",
    "GRANT_UNAVAILABLE",
    "GrantAck",
    "GrantRequest",
    "HandshakeError",
    "Heartbeat",
    "Hello",
    "HelloAck",
    "LivePublisher",
    "LiveSubscriber",
    "LiveSystem",
    "PROTOCOL_VERSION",
    "Ping",
    "Pong",
    "Rekey",
    "Revoke",
    "RtEndpoint",
    "RtPublisher",
    "RtSubscriber",
    "Subscribe",
    "Unsubscribe",
    "decode_payload",
    "encode_frame",
    "read_frame",
]
