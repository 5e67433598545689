"""Deterministic random-number substreams for parallel Monte Carlo work.

A master seed plus a scenario identifier, a replicate index and a stream
role ("data" or "weights") map to an independent generator.  The mapping is
a stable hash, so results do not depend on how replicates are scheduled
across workers, and fixing the data stream while varying the weights stream
is possible by construction.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .data import DataError, check_count

_ROLES = {"data": 0, "weights": 1}


def scenario_key(scenario_id: str) -> int:
    """Stable 64-bit key for a scenario identifier."""
    digest = hashlib.blake2s(scenario_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def substream(seed: int, scenario_id: str, replicate: int, role: str) -> np.random.Generator:
    """Generator for one (scenario, replicate, role) cell under a master seed."""
    if role not in _ROLES:
        raise DataError(f"unknown stream role {role!r}")
    key = (scenario_key(scenario_id), check_count("replicate", replicate, 0),
           _ROLES[role])
    return np.random.default_rng(np.random.SeedSequence(
        entropy=check_count("seed", seed, 0), spawn_key=key))


def fresh_seed() -> int:
    """Draw a master seed from system entropy (recorded by callers)."""
    return int(np.random.SeedSequence().entropy)
