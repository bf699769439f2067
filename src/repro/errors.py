"""``repro.errors`` -- the public exception hierarchy.

Every error the blessed API surfaces derives from :class:`ReproError`,
so callers can write one ``except ReproError`` instead of cataloguing
exception types module by module.  The leaves also subclass the builtin
each one historically was, so code written against earlier releases
(``except ValueError`` around a frame decode, ``except PermissionError``
around a grant request) keeps working unchanged:

- :class:`GrantDenied` -- the KDC refuses to authorize a revoked
  ``(subscriber, topic)`` pair; terminal, do not retry (lazy
  revocation: the denial bites at the next renewal);
- :class:`GrantExpired` -- a grant operation completed only after the
  grant's epoch (plus any grace window) had already lapsed;
- :class:`KDCUnavailable` -- no KDC replica could serve the request;
  retryable;
- :class:`FrameError` -- a byte buffer is not a valid wire artifact
  (grant, sealed event, filter, or rtnet frame).  Subclasses
  :class:`ValueError`, which is what the decoders in
  :mod:`repro.core.wire` and :mod:`repro.rtnet.frames` raised before
  the hierarchy existed.

This module imports nothing from the rest of the package, so any layer
may raise from it without creating import cycles.
"""

from __future__ import annotations

__all__ = [
    "FrameError",
    "GrantDenied",
    "GrantExpired",
    "KDCUnavailable",
    "ReproError",
]


class ReproError(Exception):
    """Base class for every error the PSGuard API raises."""


class GrantDenied(ReproError, PermissionError):
    """The KDC refuses to authorize a revoked (subscriber, topic) pair.

    Lazy revocation (Section 3.1 of the paper): existing grants lapse at
    their epoch's end, and the denial takes effect at the next renewal
    attempt.  This error is *terminal* -- clients must not retry it
    against a replica.
    """


class GrantExpired(ReproError):
    """A grant arrived or was used after its epoch (plus grace) lapsed.

    Raised by the KDC client when a renewal completes so late that the
    returned grant is already past ``expires_at`` plus the subscriber's
    grace window at install time -- the subscription crossed an epoch
    boundary unprotected and the caller should treat the interval as a
    coverage gap, not silently install a dead grant.
    """


class KDCUnavailable(ReproError, RuntimeError):
    """No KDC (replica) could serve the request.

    Retryable: the caller may try again later.  The networked client
    raises it only after exhausting replicas, retries, and breakers; a
    direct in-process binding raises it to model an unreachable KDC.
    """


class FrameError(ReproError, ValueError):
    """A byte buffer is not a valid PSGuard wire artifact.

    Covers truncated or trailing bytes, corrupt text, unknown tags and
    operators, bad length prefixes -- every malformed-input failure from
    the :mod:`repro.core.wire` codecs and the :mod:`repro.rtnet.frames`
    framing layer.  Subclasses :class:`ValueError` so pre-hierarchy
    handlers keep catching it.
    """
