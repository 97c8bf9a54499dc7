"""Seeded random-matrix generation and the small linear-algebra core.

Matrices and vectors are plain float64 numpy arrays (2-D and 1-D
respectively); every public function validates shape and finiteness at
its boundary and raises ValueError on bad input.

Randomness is fully reproducible: every randomized operation takes a
Seed, a (master, stream) pair of 64-bit integers that keys a Philox
counter-based generator.  Two calls with equal arguments produce
bit-identical output on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_ZERO4 = (0, 0, 0, 0)


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (public-domain constants)."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class Seed:
    """Reproducible RNG key: a (master, stream) pair of unsigned 64-bit ints.

    The pair keys a Philox-4x64 counter-based bit generator, so identical
    pairs reproduce identical draws and distinct streams are statistically
    independent.  Substreams are derived with `child`, which mixes integer
    tags into the stream word via splitmix64.
    """

    master: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= self.master <= _MASK64 and 0 <= self.stream <= _MASK64):
            raise ValueError("seed words must fit in 64 bits")

    def child(self, *tags: int) -> "Seed":
        """Derive a named substream; child(i, j) != child(j, i) in general."""
        s = self.stream
        for t in tags:
            s = _splitmix64(s ^ (int(t) & _MASK64))
        return Seed(self.master, s)

    def rng(self) -> np.random.Generator:
        key = np.array([self.master, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def reseat(self, rng: np.random.Generator) -> np.random.Generator:
        """Re-key rng's Philox bit generator to the start of this seed's stream; return rng.

        Philox's whole state is its key and counter, so after a reseat
        every draw equals what self.rng() would give: the counter is
        zeroed and the output buffer and the half-used 32-bit word are
        emptied, as a fresh construction leaves them.  A new generator
        costs about ten times as much to build, mostly OS entropy for a
        SeedSequence that the key then overrides.  The reseat
        discards rng's previous stream, so reuse a generator only for
        draws made strictly one stream after another.
        """
        rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO4, "key": (self.master, self.stream)},
            "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return rng


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate and return M as a finite 2-D float64 array."""
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={A.ndim}")
    if A.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} has non-finite entries")
    return A


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and return v as a finite 1-D float64 array."""
    x = np.asarray(v, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} has non-finite entries")
    return x


def matvecs(M, Y) -> np.ndarray:
    """Row i: M @ Y[i], for every row of Y, in one batched product.

    The rows are read from a contiguous copy of Y, so row i has the bits
    of M @ y for a contiguous y equal to Y[i], whatever the layout of Y
    (a strided y can round differently).
    """
    return np.matmul(M, np.ascontiguousarray(Y)[:, :, None])[:, :, 0]


def rowdots(A, B) -> np.ndarray:
    """Row i: A[i] @ B[i], for every row pair, rounded exactly as that 1-D product."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def gaussian_matrix(rows: int, cols: int, seed: Seed) -> np.ndarray:
    """i.i.d. standard normal matrix, deterministic under seed."""
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be >= 1")
    return seed.rng().normal(0.0, 1.0, size=(rows, cols))


def rademacher_matrix(rows: int, cols: int, seed: Seed) -> np.ndarray:
    """i.i.d. uniform {-1, +1} matrix, deterministic under seed."""
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be >= 1")
    bits = seed.rng().integers(0, 2, size=(rows, cols))
    return 2.0 * bits - 1.0


def singular_values(M) -> np.ndarray:
    """All singular values of M, descending."""
    A = as_matrix(M)
    return np.linalg.svd(A, compute_uv=False)


def min_singular_value(M) -> float:
    """Smallest singular value of M (>= 0)."""
    return float(singular_values(M)[-1])


def matrix_rank(M, tol: float = 1e-10) -> int:
    """Number of singular values exceeding tol * sigma_max."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    sv = singular_values(M)
    return int(np.count_nonzero(sv > tol * sv[0]))
