"""Deterministic, platform-independent random streams.

Every stochastic component of the package draws from its own named stream,
so adding draws to one component can never shift the numbers seen by
another.  A stream is derived by hashing ``"{seed}:{label}"`` with SHA-256
and seeding :class:`random.Random` with the digest; both the hash and the
Mersenne Twister behind ``random.Random`` are stable across platforms and
Python versions, which is what makes generated files byte-reproducible.
The hash comes from the interpreter's built-in module, as :mod:`random`'s own
does, because importing :mod:`hashlib` maps OpenSSL: about 3.5 MB resident.

Stream labels in use:

- ``"generate"`` — instance generation (one stream per generator seed)
- ``"anneal"``   — one simulated-annealing run (multi-run fan-out uses
  ``seed + run_index``, each run deriving its own ``"anneal"`` stream)
"""

from __future__ import annotations

import random

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


def stream(seed: int, label: str) -> random.Random:
    """Return an independent generator for (seed, label)."""
    digest = sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest, "big"))
