"""Counter-addressed random streams.

Every random quantity in the package is addressed, not drawn: a value is a
pure function of (master seed, purpose tag, replica, lane, index).  Streams
are backed by the Philox bit generator, whose raw output at 256-bit counter
``c`` is a block of four 64-bit words independent of any other counter.  We
lay values out as

    key     = sha256(master_seed | purpose | replica)[:16]
    counter = [word_index, lane, tag, 0]

where ``lane`` is usually a particle index, ``tag`` an optional extra
coordinate (a grid step for bridge refinements), and ``word_index`` walks the
flat 64-bit word sequence of that lane.  Every read, bulk or single-value,
writes the enclosing counter into the state of the stream's one generator
(which also empties its word buffer) and reads a contiguous word range from
there, so any entry is recomputable in isolation and results do not depend
on generation order.  A ``CounterStream`` mutates that generator and the
state dict it writes on every read: one instance must not be shared across
threads.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random import Philox

__all__ = ["CounterStream", "BrownianStream", "derive_seed"]

_UINT64_MAX = 2**64 - 1

# (x >> 11) keeps the top 53 bits; +0.5 keeps 0 out, but from 2**52 up the
# sum rounds half to even, so x = 2**53 - 1 reaches exactly 1.
_UNIT_SCALE = 2.0**-53


def _digest(*parts) -> bytes:
    payload = "spinlab|" + "|".join(str(p) for p in parts)
    return hashlib.sha256(payload.encode("utf-8")).digest()


def derive_seed(master_seed: int, *parts) -> int:
    """Derive a child 64-bit seed from a master seed and a label path."""
    return int.from_bytes(_digest(master_seed, *parts)[:8], "little")


def _unit_open(words: np.ndarray) -> np.ndarray:
    """Map uint64 words to doubles in (0, 1]: values from 0.5 up lie on even
    multiples of 2**-53, and the top 2**11 words (all-ones among them) map
    to 1.0."""
    u = (words >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= _UNIT_SCALE
    return u


def _box_muller(w0: np.ndarray, w1: np.ndarray) -> np.ndarray:
    # sqrt(-2 log u1) * cos(2 pi u2), the same ufuncs in the same order,
    # in place on the two fresh uniform arrays
    r = _unit_open(w0)
    c = _unit_open(w1)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    c *= 2.0 * np.pi
    np.cos(c, out=c)
    r *= c
    return r


class CounterStream:
    """Addressed stream of raw words, uniforms, and normals.

    Parameters
    ----------
    seed : int
        64-bit unsigned seed.
    purpose : str
        Domain-separation tag; streams with different purposes are
        independent even under the same seed.
    replica : int
        Replica coordinate mixed into the key.
    """

    def __init__(self, seed: int, purpose: str, replica: int = 0):
        if not 0 <= int(seed) <= _UINT64_MAX:
            raise ValueError(f"seed must be a uint64, got {seed!r}")
        self.seed = int(seed)
        self.purpose = purpose
        self.replica = int(replica)
        d = _digest(self.seed, purpose, self.replica)
        self._key = np.frombuffer(d[:16], dtype=np.uint64)
        self._gen = Philox(key=self._key, counter=0)
        # the state every read writes: its counter [word_index // 4, lane,
        # tag, 0], and buffer_pos 4, which drops any words the last read left
        self._counter = [0, 0, 0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": self._key.tolist()},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }

    def raw(self, lane: int, start: int, count: int, tag: int = 0) -> np.ndarray:
        """Words ``start .. start+count-1`` of the given lane.

        ``lane``, ``tag`` and ``start // 4`` must lie in [0, 2**64); numpy
        raises ``OverflowError`` for a coordinate outside.
        """
        base, offset = divmod(int(start), 4)
        self._counter[:3] = base, int(lane), int(tag)
        self._gen.state = self._state
        return self._gen.random_raw(offset + count)[offset:]

    def raw_lanes(self, n_lanes: int, count: int, tag: int = 0) -> np.ndarray:
        """Shape (n_lanes, count): words ``0 .. count-1`` of lanes ``0 .. n_lanes-1``."""
        words = np.empty((n_lanes, count), dtype=np.uint64)
        for lane in range(n_lanes):
            words[lane] = self.raw(lane, 0, count, tag)
        return words

    def uniforms(self, lane: int, count: int, tag: int = 0) -> np.ndarray:
        """``count`` uniforms in (0, 1], one word each (see ``_unit_open``)."""
        return _unit_open(self.raw(lane, 0, count, tag))

    def normals(self, lane: int, count: int, tag: int = 0) -> np.ndarray:
        """``count`` standard normals; value ``v`` consumes words 2v, 2v+1."""
        words = self.raw(lane, 0, 2 * count, tag)
        return _box_muller(words[0::2], words[1::2])

    def normal_at(self, lane: int, index: int, tag: int = 0) -> float:
        """The same normal ``normals(lane, n)[index]`` would yield, in isolation."""
        words = self.raw(lane, 2 * index, 2, tag)
        return float(_box_muller(words[:1], words[1:])[0])

    def normal_block(self, n_lanes: int, count: int, tag: int = 0) -> np.ndarray:
        """Shape (n_lanes, count) of standard normals, lanes independent."""
        words = self.raw_lanes(n_lanes, 2 * count, tag)
        return _box_muller(words[:, 0::2], words[:, 1::2])


class BrownianStream:
    """Brownian increments addressed by (master seed, replica, particle, step).

    The increment for particle ``i`` at grid step ``g`` is ``sqrt(h)`` times
    a standard normal at (lane=i, index=g) and never depends on how many
    particles or steps any given run asked for.
    """

    PURPOSE = "brownian"

    def __init__(self, master_seed: int, replica: int = 0):
        self.master_seed = int(master_seed)
        self.replica = int(replica)
        self._stream = CounterStream(master_seed, self.PURPOSE, replica)

    def increments(self, n_particles: int, n_steps: int, grid_step: float) -> np.ndarray:
        """Shape (n_particles, n_steps) of Normal(0, grid_step) increments."""
        z = self._stream.normal_block(n_particles, n_steps)
        return z * np.sqrt(grid_step)

    def increment_at(self, particle: int, step: int, grid_step: float) -> float:
        return self._stream.normal_at(particle, step) * float(np.sqrt(grid_step))
