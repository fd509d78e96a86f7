"""Minimal reverse-mode differentiation substrate.

Dense float64 tensors (numpy arrays), a recorded computation tape with a
fixed primitive set, gradient propagation, and a central finite-difference
oracle for checking gradients. Everything is double precision and
single-threaded-deterministic: running the same graph twice on the same
inputs yields identical bits.

Nodes may be fused: a caller can ``emit`` one node for a chain of
primitives (``model`` does so for a GRU step, attention, the readout and
the initial state, and for the decoder walks of a whole candidate set).
Its forward must run the numpy calls the primitives would, on the same
operands. Its ``vjp`` must return one contribution per entry of
``parents`` (an input may appear more than once), in the order the
primitives' reverse sweep would add them to that input, and must combine
its internal adjoints in that sweep's order too. The sweep adds the
contributions in tuple order (a copy for the first, then ``+=``), so a
fused node then gives the same gradient bits as the primitives it stands
for. Pre-summing two contributions to one input changes the rounding,
unless they are added in the order the sweep would add them.

Values may carry a leading axis of B independent rows (a row batch),
(B, ...) for every B >= 1. A seed of one loss per row then gives each
parameter one adjoint per row, each with the bits of sweeping its row
alone.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager, suppress
from functools import partial
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "RiskseqError",
    "DiffError",
    "ShapeMismatchError",
    "NonFiniteError",
    "Node",
    "Tape",
    "ParamStore",
    "atomic_writer",
    "sigmoid",
    "log_softmax",
    "log_softmax_vjp",
    "finite_diff_grad",
    "relative_error",
]

# Default step for central differences.
FD_STEP = 1e-5


class RiskseqError(Exception):
    """Base class of every error riskseq raises for bad input or state; the
    CLI exits 2 on any of them."""


class DiffError(RiskseqError):
    """Base class for errors raised by the differentiation core."""


class ShapeMismatchError(DiffError):
    def __init__(self, primitive: str, shape_a, shape_b):
        super().__init__(
            f"{primitive}: incompatible shapes {tuple(shape_a)} and {tuple(shape_b)}"
        )


class NonFiniteError(DiffError):
    pass


class Node:
    """A value on the tape. Holds the forward result and, when the tape is
    recording, its inputs and one vector-Jacobian product ``vjp``: given
    this node's adjoint it returns one contribution per entry of
    ``parents``, in that order. Leaves carry ``vjp=None``."""

    __slots__ = ("value", "parents", "vjp")

    def __init__(self, value: np.ndarray, parents=(), vjp=None):
        self.value = value
        self.parents = parents
        self.vjp = vjp


def sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never
    # overflows; both branches share e^-|x| and one division.
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def log_softmax(x: np.ndarray) -> np.ndarray:
    # Row-max subtraction keeps magnitudes up to ~700 from overflowing.
    m = np.max(x, axis=-1, keepdims=True)
    shifted = x - m
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def log_softmax_vjp(sm: np.ndarray, g: np.ndarray) -> tuple[np.ndarray]:
    """The adjoint of log_softmax's input, given its output's adjoint ``g``
    and softmax ``sm`` of the same rows; ``Tape.log_softmax`` binds ``sm``
    onto its node."""
    return (g - sm * np.sum(g, axis=-1, keepdims=True),)


class Tape:
    """Single-owner record of operations.

    With ``record=False`` the same operations compute forward values only
    and keep no node list -- used for sampling and decoding where
    gradients are not needed. ``gradient`` is only valid on a recording tape.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self.nodes: list[Node] = []

    # -- node construction ------------------------------------------------

    def emit(self, value, parents=(), vjp=None) -> Node:
        """Add a node; on a non-recording tape only its value is kept. A
        fused node passes its own ``vjp`` under the contract in the module
        docstring."""
        if self.record:
            node = Node(value, parents, vjp)
            self.nodes.append(node)
        else:
            node = Node(value)
        return node

    def const(self, value) -> Node:
        return self.emit(np.asarray(value, dtype=np.float64))

    def params(self, store: "ParamStore") -> dict[str, Node]:
        """Bind every parameter tensor as a leaf node. Returns name -> Node."""
        return {name: self.emit(arr) for name, arr in store.items()}

    # -- primitives -------------------------------------------------------

    def matmul(self, a: Node, b: Node) -> Node:
        """``a @ b`` for vectors and matrices. ``a`` may also stack one
        matrix per row, (B, M, N) times an (N, K) ``b``: one gemm per row,
        the call a lone row's (M, N) makes, and ``b``'s adjoint keeps one
        (N, K) contribution per row."""
        av, bv = a.value, b.value
        if (av.ndim == 0 or bv.ndim not in (1, 2) or av.shape[-1] != bv.shape[0]
                or av.ndim > 2 and bv.ndim != 2):
            raise ShapeMismatchError("matmul", av.shape, bv.shape)
        if av.ndim == 2 and bv.ndim == 1:
            vjp = lambda g: (np.outer(g, bv), av.T @ g)
        elif av.ndim == 1 and bv.ndim == 2:
            vjp = lambda g: (g @ bv.T, np.outer(av, g))
        elif bv.ndim == 2:  # (stacked) matrices @ matrix
            vjp = lambda g: (g @ bv.T, av.swapaxes(-1, -2) @ g)
        else:  # vector . vector -> scalar
            vjp = lambda g: (g * bv, g * av)
        return self.emit(av @ bv, (a, b), vjp)

    def add(self, a: Node, b: Node) -> Node:
        av, bv = a.value, b.value
        if av.shape == bv.shape:
            return self.emit(av + bv, (a, b), lambda g: (g, g))
        # Row broadcast: (M, A) + (A,) adds b to every row.
        if av.ndim == 2 and bv.ndim == 1 and av.shape[1] == bv.shape[0]:
            return self.emit(av + bv, (a, b), lambda g: (g, g.sum(axis=0)))
        raise ShapeMismatchError("add", av.shape, bv.shape)

    def mul(self, a: Node, b: Node) -> Node:
        av, bv = a.value, b.value
        if av.shape != bv.shape:
            raise ShapeMismatchError("mul", av.shape, bv.shape)
        return self.emit(av * bv, (a, b), lambda g: (g * bv, g * av))

    def scale(self, a: Node, c: float) -> Node:
        c = float(c)
        return self.emit(a.value * c, (a,), lambda g: (g * c,))

    def tanh(self, a: Node) -> Node:
        value = np.tanh(a.value)
        return self.emit(value, (a,), lambda g: (g * (1.0 - value * value),))

    def sigmoid(self, a: Node) -> Node:
        value = sigmoid(a.value)
        return self.emit(value, (a,), lambda g: (g * value * (1.0 - value),))

    def softmax(self, a: Node) -> Node:
        value = np.exp(log_softmax(a.value))

        def vjp(g):
            dot = np.sum(g * value, axis=-1, keepdims=True)
            return (value * (g - dot),)

        return self.emit(value, (a,), vjp)

    def log_softmax(self, a: Node) -> Node:
        value = log_softmax(a.value)
        if not self.record:
            return self.emit(value)
        return self.emit(value, (a,), partial(log_softmax_vjp, np.exp(value)))

    def lookup(self, table: Node, index: int | np.ndarray) -> Node:
        """Row selection from a 2-D table (embedding lookup). A vector of B
        indices selects one table row for each of B rows; the table's
        adjoint then keeps one table per row, (B, V, E)."""
        tv = table.value
        value = tv[index] if tv.ndim == 2 else None
        if value is None or value.ndim > 2:
            raise ShapeMismatchError("lookup", tv.shape, np.shape(index))
        if not self.record:
            return self.emit(value)
        at = _at(index, value.ndim == 2)
        shape = value.shape[:-1] + tv.shape

        def vjp(g):
            out = np.zeros(shape)
            out[at] = g
            return (out,)

        return self.emit(value, (table,), vjp)

    def pick(self, a: Node, index: int | np.ndarray) -> Node:
        """Element selection from a 1-D vector -> scalar; from (B, V) rows
        with a vector of B indices, one element per row -> (B,)."""
        av = a.value
        if av.ndim not in (1, 2):
            raise ShapeMismatchError("pick", av.shape, np.shape(index))
        at = _at(index, av.ndim == 2)

        def vjp(g):
            out = np.zeros_like(av)
            out[at] = g
            return (out,)

        return self.emit(np.asarray(av[at]), (a,), vjp)

    def concat(self, parts: Sequence[Node]) -> Node:
        """Join ``parts`` along their last axis."""
        values = [p.value for p in parts]
        ends = list(accumulate(v.shape[-1] for v in values))
        cuts = list(zip([0] + ends[:-1], ends))
        vjp = lambda g: tuple(g[..., lo:hi] for lo, hi in cuts)
        return self.emit(np.concatenate(values, axis=-1), tuple(parts), vjp)

    def stack_rows(self, rows: Sequence[Node]) -> Node:
        """Stack along a new axis before the parts' last: scalars into a
        vector, vectors into a matrix, and (B, H) rows into (B, S, H), so
        each row holds its own (S, H) stack."""
        values = [r.value for r in rows]
        if values[0].ndim < 2:
            return self.emit(np.stack(values), tuple(rows), lambda g: tuple(g))
        value = np.stack(values, axis=-2)
        return self.emit(value, tuple(rows), lambda g: tuple(g.swapaxes(0, -2)))

    def sum(self, a: Node, axis: int | None = None) -> Node:
        """The sum of every element, or with ``axis=0`` the sum over the
        first axis: a vector's total, or for a stacked (T, B) one total per
        row, each added in the order the row's own vector sum would add."""
        v, shape = a.value, a.value.shape
        if axis is None:
            value = v.sum()
        elif axis == 0 and v.ndim in (1, 2):
            # a contiguous last axis, so each row runs a vector's pairwise sum
            value = np.ascontiguousarray(v.T).sum(axis=-1)
        else:
            raise DiffError(f"sum over axis {axis} of shape {shape}")
        return self.emit(np.asarray(value), (a,), lambda g: (np.full(shape, g),))

    # -- gradient propagation --------------------------------------------

    def gradient(
        self, seed: Node, store: "ParamStore | None", param_nodes: dict[str, Node]
    ) -> np.ndarray | dict[str, np.ndarray]:
        """The seed's gradient: with a ``store``, in its linear order (P,);
        without one, each parameter's adjoint by name. Parameters the seed
        does not reach get zeros. A seed of one loss per row of a row batch
        (B,) gives each adjoint a leading row axis, so the linear form is
        one gradient per row, (B, P), each with the bits of sweeping its row
        alone."""
        if not self.record:
            raise DiffError("gradient on a non-recording tape")
        rows = seed.value.shape
        if len(rows) > 1:
            raise DiffError(f"gradient seed must be a scalar or one loss per row, got shape {rows}")
        # the sweep drops every other node's adjoint once its VJP has run
        adjoints: dict[int, np.ndarray] = {id(seed): np.ones(rows)}
        for node in reversed(self.nodes):
            if node.vjp is None:
                continue
            g = adjoints.pop(id(node), None)
            if g is None:
                continue
            for parent, contrib in zip(node.parents, node.vjp(g)):
                key = id(parent)
                acc = adjoints.get(key)
                if acc is None:
                    adjoints[key] = np.array(contrib, dtype=np.float64)
                else:
                    acc += contrib
        by_name = {
            name: adjoints[id(node)] if id(node) in adjoints
            else np.zeros(rows + node.value.shape)
            for name, node in param_nodes.items()
        }
        if store is None:
            return by_name
        out = np.empty(rows + (store.size,))
        for name, part in store.views(out).items():
            part[...] = by_name.pop(name)
        return out


def _at(index: int | np.ndarray, rows: bool):
    """Where ``lookup`` and ``pick`` write an adjoint: ``index`` itself, or
    with ``rows``, position index[i] of row i."""
    return (np.arange(len(index)), index) if rows else int(index)


class ParamStore:
    """Named parameter tensors with a stable linear index over all scalars.

    Insertion order defines the linear index. Serialization round-trips
    byte-identically: magic "RSQ2", the tensor count, then per tensor its
    name, rank, dims and little-endian f64 data (u32 lengths). Loading is
    strict: a short or overlong file, or any other magic, raises
    ``DiffError``. ``save`` goes through ``atomic_writer``, so a failed save
    leaves the old checkpoint intact.
    """

    MAGIC = b"RSQ2"

    def __init__(self):
        self._tensors: dict[str, np.ndarray] = {}

    def add(self, name: str, array: np.ndarray) -> None:
        if name in self._tensors:
            raise DiffError(f"duplicate parameter name: {name}")
        self._tensors[name] = np.ascontiguousarray(array, dtype=np.float64)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    @property
    def size(self) -> int:
        return sum(arr.size for arr in self._tensors.values())

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Each tensor's slice of ``vector``'s last axis (of length ``size``),
        in linear order, shaped like the tensor after any leading axes. The
        slices are views: writing one writes ``vector``."""
        lead, out, offset = vector.shape[:-1], {}, 0
        for name, arr in self._tensors.items():
            out[name] = vector[..., offset : offset + arr.size].reshape(lead + arr.shape)
            offset += arr.size
        return out

    def flat(self) -> np.ndarray:
        if not self._tensors:
            return np.zeros(0)
        return np.concatenate([arr.ravel() for arr in self._tensors.values()])

    def set_flat(self, vector: np.ndarray) -> None:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.size,):
            raise ShapeMismatchError("set_flat", vector.shape, (self.size,))
        for name, part in self.views(vector).items():
            self._tensors[name][...] = part

    def copy(self) -> "ParamStore":
        out = ParamStore()
        for name, arr in self._tensors.items():
            out.add(name, arr.copy())
        return out

    # -- checkpoint I/O ---------------------------------------------------

    def save(self, path: str) -> None:
        with atomic_writer(path) as fh:
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
        if magic != cls.MAGIC:
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
        count = u32()
        while len(store._tensors) < count:
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


@contextmanager
def atomic_writer(path: str):
    """Binary file handle on a temp file beside ``path`` that replaces
    ``path`` only once the write has finished. On an error the temp file is
    removed and any old file at ``path`` is left as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


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
            raise NonFiniteError(f"non-finite objective at parameter index {i}")
        grad[i] = (hi - lo) / (2.0 * step)
    work.set_flat(theta)
    return grad
