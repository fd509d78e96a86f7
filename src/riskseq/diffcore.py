"""Minimal reverse-mode differentiation substrate.

Dense float64 tensors (numpy arrays), a recorded computation tape with a
fixed primitive set, gradient propagation, and a central finite-difference
oracle for checking gradients. Everything is double precision and
single-threaded-deterministic: running the same graph twice on the same
inputs yields identical bits.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DiffError",
    "ShapeMismatchError",
    "NonFiniteError",
    "Node",
    "Tape",
    "ParamStore",
    "finite_diff_grad",
    "relative_error",
]

# Default step for central differences.
FD_STEP = 1e-5


class DiffError(Exception):
    """Base class for errors raised by the differentiation core."""


class ShapeMismatchError(DiffError):
    def __init__(self, primitive: str, shape_a, shape_b):
        self.primitive = primitive
        self.shape_a = tuple(shape_a)
        self.shape_b = tuple(shape_b)
        super().__init__(
            f"{primitive}: incompatible shapes {self.shape_a} and {self.shape_b}"
        )


class NonFiniteError(DiffError):
    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)


class Node:
    """A value on the tape. Holds the forward result and, when the tape is
    recording, references to its inputs and their vector-Jacobian products."""

    __slots__ = ("value", "parents", "vjps")

    def __init__(self, value: np.ndarray, parents=(), vjps=()):
        self.value = value
        self.parents = parents
        self.vjps = vjps

    @property
    def shape(self):
        return self.value.shape


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign so exp never overflows.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _log_softmax(x: np.ndarray) -> np.ndarray:
    # Row-max subtraction keeps magnitudes up to ~700 from overflowing.
    m = np.max(x, axis=-1, keepdims=True)
    shifted = x - m
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


class Tape:
    """Single-owner record of primitive operations.

    With ``record=False`` the same primitives compute forward values only
    (no node list, no closures) -- used for sampling and decoding where
    gradients are not needed. ``backward`` is only valid on a recording tape.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self.nodes: list[Node] = []

    # -- node construction ------------------------------------------------

    def _emit(self, value, parents=(), vjps=()) -> Node:
        if self.record:
            node = Node(value, parents, vjps)
            self.nodes.append(node)
        else:
            node = Node(value)
        return node

    def const(self, value) -> Node:
        return self._emit(np.asarray(value, dtype=np.float64))

    def params(self, store: "ParamStore") -> dict[str, Node]:
        """Bind every parameter tensor as a leaf node. Returns name -> Node."""
        return {name: self._emit(arr) for name, arr in store.items()}

    # -- primitives -------------------------------------------------------

    def matmul(self, a: Node, b: Node) -> Node:
        av, bv = a.value, b.value
        if av.ndim == 0 or bv.ndim == 0 or av.shape[-1] != bv.shape[0]:
            raise ShapeMismatchError("matmul", av.shape, bv.shape)
        value = av @ bv
        if not self.record:
            return self._emit(value)
        if av.ndim == 2 and bv.ndim == 1:
            vjps = (lambda g: np.outer(g, bv), lambda g: av.T @ g)
        elif av.ndim == 1 and bv.ndim == 2:
            vjps = (lambda g: g @ bv.T, lambda g: np.outer(av, g))
        elif av.ndim == 2 and bv.ndim == 2:
            vjps = (lambda g: g @ bv.T, lambda g: av.T @ g)
        else:  # vector . vector -> scalar
            vjps = (lambda g: g * bv, lambda g: g * av)
        return self._emit(value, (a, b), vjps)

    def add(self, a: Node, b: Node) -> Node:
        av, bv = a.value, b.value
        if av.shape == bv.shape:
            if not self.record:
                return self._emit(av + bv)
            return self._emit(av + bv, (a, b), (lambda g: g, lambda g: g))
        # Row broadcast: (M, A) + (A,) adds b to every row.
        if av.ndim == 2 and bv.ndim == 1 and av.shape[1] == bv.shape[0]:
            if not self.record:
                return self._emit(av + bv)
            return self._emit(
                av + bv, (a, b), (lambda g: g, lambda g: g.sum(axis=0))
            )
        raise ShapeMismatchError("add", av.shape, bv.shape)

    def mul(self, a: Node, b: Node) -> Node:
        av, bv = a.value, b.value
        if av.shape != bv.shape:
            raise ShapeMismatchError("mul", av.shape, bv.shape)
        if not self.record:
            return self._emit(av * bv)
        return self._emit(av * bv, (a, b), (lambda g: g * bv, lambda g: g * av))

    def scale(self, a: Node, c: float) -> Node:
        c = float(c)
        if not self.record:
            return self._emit(a.value * c)
        return self._emit(a.value * c, (a,), (lambda g: g * c,))

    def tanh(self, a: Node) -> Node:
        value = np.tanh(a.value)
        if not self.record:
            return self._emit(value)
        return self._emit(value, (a,), (lambda g: g * (1.0 - value * value),))

    def sigmoid(self, a: Node) -> Node:
        value = _sigmoid(a.value)
        if not self.record:
            return self._emit(value)
        return self._emit(value, (a,), (lambda g: g * value * (1.0 - value),))

    def log(self, a: Node) -> Node:
        value = np.log(a.value)
        if not self.record:
            return self._emit(value)
        av = a.value
        return self._emit(value, (a,), (lambda g: g / av,))

    def softmax(self, a: Node) -> Node:
        value = np.exp(_log_softmax(a.value))
        if not self.record:
            return self._emit(value)

        def vjp(g):
            dot = np.sum(g * value, axis=-1, keepdims=True)
            return value * (g - dot)

        return self._emit(value, (a,), (vjp,))

    def log_softmax(self, a: Node) -> Node:
        value = _log_softmax(a.value)
        if not self.record:
            return self._emit(value)
        sm = np.exp(value)

        def vjp(g):
            return g - sm * np.sum(g, axis=-1, keepdims=True)

        return self._emit(value, (a,), (vjp,))

    def lookup(self, table: Node, index: int) -> Node:
        """Row selection from a 2-D table (embedding lookup)."""
        tv = table.value
        if tv.ndim != 2:
            raise ShapeMismatchError("lookup", tv.shape, (index,))
        index = int(index)
        value = tv[index]
        if not self.record:
            return self._emit(value)

        def vjp(g):
            out = np.zeros_like(tv)
            out[index] = g
            return out

        return self._emit(value, (table,), (vjp,))

    def pick(self, a: Node, index: int) -> Node:
        """Element selection from a 1-D vector -> scalar."""
        av = a.value
        if av.ndim != 1:
            raise ShapeMismatchError("pick", av.shape, (index,))
        index = int(index)
        value = np.asarray(av[index])
        if not self.record:
            return self._emit(value)

        def vjp(g):
            out = np.zeros_like(av)
            out[index] = g
            return out

        return self._emit(value, (a,), (vjp,))

    def concat(self, parts: Sequence[Node], axis: int = 0) -> Node:
        values = [p.value for p in parts]
        value = np.concatenate(values, axis=axis)
        if not self.record:
            return self._emit(value)
        sizes = [v.shape[axis] for v in values]
        offsets = np.cumsum([0] + sizes)

        def make_vjp(i):
            lo, hi = offsets[i], offsets[i + 1]
            if axis == 0:
                return lambda g: g[lo:hi]
            return lambda g: g[:, lo:hi]

        return self._emit(
            value, tuple(parts), tuple(make_vjp(i) for i in range(len(parts)))
        )

    def stack_rows(self, rows: Sequence[Node]) -> Node:
        value = np.stack([r.value for r in rows], axis=0)
        if not self.record:
            return self._emit(value)
        vjps = tuple(
            (lambda i: lambda g: g[i])(i) for i in range(len(rows))
        )
        return self._emit(value, tuple(rows), vjps)

    def stack_scalars(self, scalars: Sequence[Node]) -> Node:
        value = np.array([float(s.value) for s in scalars])
        if not self.record:
            return self._emit(value)
        vjps = tuple(
            (lambda i: lambda g: np.asarray(g[i]))(i) for i in range(len(scalars))
        )
        return self._emit(value, tuple(scalars), vjps)

    def sum(self, a: Node) -> Node:
        value = np.asarray(a.value.sum())
        if not self.record:
            return self._emit(value)
        shape = a.value.shape
        return self._emit(value, (a,), (lambda g: np.full(shape, float(g)),))

    def mean(self, a: Node) -> Node:
        n = a.value.size
        value = np.asarray(a.value.mean())
        if not self.record:
            return self._emit(value)
        shape = a.value.shape
        return self._emit(value, (a,), (lambda g: np.full(shape, float(g) / n),))

    # -- gradient propagation --------------------------------------------

    def backward(self, seed: Node) -> dict[int, np.ndarray]:
        """Populate adjoints from a scalar seed. Returns id(node) -> adjoint."""
        if not self.record:
            raise DiffError("backward on a non-recording tape")
        if seed.value.ndim != 0:
            raise DiffError(f"backward seed must be scalar, got shape {seed.value.shape}")
        adjoints: dict[int, np.ndarray] = {id(seed): np.asarray(1.0)}
        for node in reversed(self.nodes):
            g = adjoints.get(id(node))
            if g is None:
                continue
            for parent, vjp in zip(node.parents, node.vjps):
                contrib = vjp(g)
                key = id(parent)
                acc = adjoints.get(key)
                if acc is None:
                    adjoints[key] = np.array(contrib, dtype=np.float64)
                else:
                    acc += contrib
        return adjoints

    def gradient(
        self, seed: Node, store: "ParamStore", param_nodes: dict[str, Node]
    ) -> np.ndarray:
        """Backward pass returning the gradient in ParamStore linear order."""
        adjoints = self.backward(seed)
        out = np.zeros(store.size)
        for name, (offset, arr) in store._layout.items():
            node = param_nodes[name]
            g = adjoints.get(id(node))
            if g is not None:
                out[offset : offset + arr.size] = np.ravel(g)
        return out


class ParamStore:
    """Named parameter tensors with a stable linear index over all scalars.

    Insertion order defines the linear index. Serialization round-trips
    byte-identically: magic "RSQ2", the tensor count, then per tensor its
    name, rank, dims and little-endian f64 data (u32 lengths). Loading is
    strict: a short or overlong file raises ``DiffError``. Files with the
    older magic "RSQ1" carry no count and still load.
    """

    MAGIC = b"RSQ2"
    LEGACY_MAGIC = b"RSQ1"

    def __init__(self):
        self._tensors: dict[str, np.ndarray] = {}

    def add(self, name: str, array: np.ndarray) -> None:
        if name in self._tensors:
            raise DiffError(f"duplicate parameter name: {name}")
        self._tensors[name] = np.ascontiguousarray(array, dtype=np.float64)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    @property
    def size(self) -> int:
        return sum(arr.size for arr in self._tensors.values())

    @property
    def _layout(self) -> dict[str, tuple[int, np.ndarray]]:
        layout = {}
        offset = 0
        for name, arr in self._tensors.items():
            layout[name] = (offset, arr)
            offset += arr.size
        return layout

    def flat(self) -> np.ndarray:
        if not self._tensors:
            return np.zeros(0)
        return np.concatenate([arr.ravel() for arr in self._tensors.values()])

    def set_flat(self, vector: np.ndarray) -> None:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.size,):
            raise ShapeMismatchError("set_flat", vector.shape, (self.size,))
        offset = 0
        for arr in self._tensors.values():
            arr[...] = vector[offset : offset + arr.size].reshape(arr.shape)
            offset += arr.size

    def copy(self) -> "ParamStore":
        out = ParamStore()
        for name, arr in self._tensors.items():
            out.add(name, arr.copy())
        return out

    # -- checkpoint I/O ---------------------------------------------------

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.MAGIC)
            fh.write(struct.pack("<I", len(self._tensors)))
            for name, arr in self._tensors.items():
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<I", arr.ndim))
                for dim in arr.shape:
                    fh.write(struct.pack("<I", dim))
                fh.write(arr.astype("<f8").tobytes())

    @classmethod
    def load(cls, path: str) -> "ParamStore":
        with open(path, "rb") as fh:
            buf = fh.read()
        magic = buf[:4]
        if magic not in (cls.MAGIC, cls.LEGACY_MAGIC):
            raise DiffError(f"bad checkpoint magic: {magic!r}")
        pos = 4

        def take(n: int) -> bytes:
            nonlocal pos
            if n > len(buf) - pos:
                raise DiffError(
                    f"truncated checkpoint {path}: {n} bytes needed at "
                    f"offset {pos}, {len(buf) - pos} left"
                )
            pos += n
            return buf[pos - n : pos]

        def u32() -> int:
            return struct.unpack("<I", take(4))[0]

        store = cls()
        legacy = magic == cls.LEGACY_MAGIC
        count = None if legacy else u32()
        while pos < len(buf) if legacy else len(store._tensors) < count:
            try:
                name = take(u32()).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DiffError(f"bad tensor name in {path}: {exc}") from None
            dims = [u32() for _ in range(u32())]
            data = np.frombuffer(take(8 * math.prod(dims)), dtype="<f8")
            store.add(name, data.reshape(dims).copy())  # writable, unlike the buffer
        if pos != len(buf):
            raise DiffError(
                f"checkpoint {path}: {len(buf) - pos} trailing bytes after "
                f"{count} tensors"
            )
        return store


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max per-component |a - b| / max(1, |a|, |b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / denom))


def finite_diff_grad(
    f: Callable[[ParamStore], float], params: ParamStore, step: float = FD_STEP
) -> np.ndarray:
    """Central-difference gradient of a scalar function of the parameters."""
    if step <= 0:
        raise DiffError(f"finite-difference step must be positive, got {step}")
    work = params.copy()
    theta = params.flat()
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        saved = theta[i]
        theta[i] = saved + step
        work.set_flat(theta)
        hi = float(f(work))
        theta[i] = saved - step
        work.set_flat(theta)
        lo = float(f(work))
        theta[i] = saved
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NonFiniteError(
                f"non-finite objective at parameter index {i}", index=i
            )
        grad[i] = (hi - lo) / (2.0 * step)
    work.set_flat(theta)
    return grad
