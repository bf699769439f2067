"""How every rtnet connection opens: one handshake, one accept, one
redial loop.

:func:`dial` writes HELLO and judges the reply: a HELLO_ACK at
:data:`~repro.rtnet.frames.PROTOCOL_VERSION` is accepted, one at any
other version (0 is a rejection) raises :class:`HandshakeError`, the one
final failure, and EOF, a reset or garbage raise a transient
:class:`ConnectionError` that :func:`redial` answers by backing off and
dialing again.  :func:`accept` reads HELLO and answers it.  Both ends
keep reading through the handshake's :class:`~repro.rtnet.frames.
FrameReader`, so frames that arrived behind it are not lost.
"""

from __future__ import annotations

import asyncio
import random
from typing import Callable

from repro.rtnet.frames import (
    PROTOCOL_VERSION,
    FrameReader,
    Hello,
    HelloAck,
    encode_frame,
)


class HandshakeError(ConnectionError):
    """The peer rejected our HELLO (version mismatch); do not retry."""


#: Redial backoff: attempt ``n`` (0-based) waits ``_REDIAL_BASE *
#: _REDIAL_FACTOR**n`` seconds, capped at ``_REDIAL_MAX_DELAY`` and scaled
#: down by up to ``_REDIAL_JITTER`` at random, so a herd of clients does
#: not redial in lockstep.
_REDIAL_BASE = 0.05
_REDIAL_FACTOR = 2.0
_REDIAL_MAX_DELAY = 2.0
_REDIAL_JITTER = 0.5

#: The jitter's randomness, shared on purpose: endpoints and parent links
#: in one process must not redial in lockstep either.
_BACKOFF_RNG = random.Random()


def _redial_delay(attempt: int, rng: random.Random) -> float:
    """Seconds to wait before redial *attempt* (exponential, jittered)."""
    raw = min(_REDIAL_MAX_DELAY, _REDIAL_BASE * _REDIAL_FACTOR ** attempt)
    return raw * (1.0 - _REDIAL_JITTER * rng.random())


async def dial(
    host: str, port: int, hello: Hello
) -> tuple[str, FrameReader, asyncio.StreamWriter]:
    """Connect to *host*:*port*, write *hello* and judge the reply;
    returns the peer's id, the connection's reader and its writer."""
    reader, writer = await asyncio.open_connection(host, port)
    frames = FrameReader(reader)
    try:
        writer.write(encode_frame(hello))
        await writer.drain()
        ack = await frames.read()
    except (OSError, ValueError) as exc:
        ack = exc
    except BaseException:
        writer.close()
        raise
    if isinstance(ack, HelloAck) and ack.version == PROTOCOL_VERSION:
        return ack.peer_id, frames, writer
    writer.close()
    error = HandshakeError if isinstance(ack, HelloAck) else ConnectionError
    raise error(f"handshake with {host}:{port} failed: {ack!r}")


async def redial(
    host: str, port: int, hello: Hello, closed: Callable[[], bool]
) -> tuple[str, FrameReader, asyncio.StreamWriter]:
    """:func:`dial` until it connects, backing off between attempts; a
    :class:`HandshakeError` is final, and *closed()* ends the loop."""
    attempt = 0
    while not closed():
        try:
            return await dial(host, port, hello)
        except HandshakeError:
            raise
        except OSError:
            await asyncio.sleep(_redial_delay(attempt, _BACKOFF_RNG))
            attempt += 1
    raise ConnectionError(f"{hello.peer_id} closed while dialing")


async def accept(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, node_id: str
) -> tuple[Hello, FrameReader] | None:
    """Read the dialer's HELLO and answer it as *node_id*: the ack and
    ``(hello, reader)`` back at our version; else a HELLO_ACK with
    version 0 (when a frame arrived), the connection closed, ``None``."""
    frames = FrameReader(reader)
    try:
        hello = await frames.read()
        if hello is not None:
            ok = isinstance(hello, Hello) and hello.version == PROTOCOL_VERSION
            version = PROTOCOL_VERSION if ok else 0
            writer.write(encode_frame(HelloAck(node_id, version)))
            await writer.drain()
            if ok:
                return hello, frames
    except (OSError, ValueError):
        pass
    writer.close()
    return None
