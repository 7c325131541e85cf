"""Deterministic RNG stream derivation.

Every randomized component draws from a stream derived from one master seed
and a path of tokens (strings or ints), so results are reproducible no matter
how work is split across rounds or focus nodes.
"""

from __future__ import annotations

import zlib

import numpy as np


def _token_key(token) -> int:
    if isinstance(token, (int, np.integer)):
        return int(token) & 0xFFFFFFFF
    if isinstance(token, str):
        return zlib.crc32(token.encode("utf-8"))
    raise TypeError(f"unsupported stream token {token!r}")


def derive_rng(master_seed: int, *tokens) -> np.random.Generator:
    """Child generator for the stream named by ``tokens`` under ``master_seed``."""
    key = tuple(_token_key(t) for t in tokens)
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=key))


def derive_int_seed(master_seed: int, *tokens) -> int:
    """32-bit plain integer seed, such as :func:`graphs.generate` takes to seed its ``random.Random``."""
    return int(derive_rng(master_seed, *tokens).integers(0, 2**32))
