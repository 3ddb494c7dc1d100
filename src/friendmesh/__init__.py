"""friendmesh: a friend-to-friend social network stack.

Service layer: certificate authority, rendezvous and relay servers, NAT
classification, reliable datagrams and secure channels. Global deployment
places the rendezvous servers on a chord ring with dual hashed identifiers
per username. The application layer replicates versioned profiles to
trusted mirrors through pull-based delta sync. A deterministic discrete-
event simulator drives adversarial and partition scenarios.
"""

__version__ = "0.1.0"

from . import wire  # noqa: E402,F401  (first: its schema names records that import it)
