import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskseq.diffcore
from riskseq.diffcore import (
    DiffError,
    NonFiniteError,
    ParamStore,
    ShapeMismatchError,
    Tape,
    finite_diff_grad,
    relative_error,
    sigmoid,
)
from riskseq.model import Annotations, BoundModel, ModelConfig, init_params


def make_store(**arrays):
    store = ParamStore()
    for name, arr in arrays.items():
        store.add(name, np.asarray(arr, dtype=np.float64))
    return store


def reference_sigmoid(x):
    """The two-branch form: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below."""
    pos = x >= 0
    ex = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + ex), ex / (1.0 + ex))


class TestSigmoid:
    @given(
        st.lists(
            st.one_of(
                st.floats(-800, 800),
                st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
            ),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_byte_equal_to_two_branch_form(self, xs):
        x = np.array(xs)
        assert sigmoid(x).tobytes() == reference_sigmoid(x).tobytes()

    def test_signed_zeros_and_infinities(self):
        x = np.array([0.0, -0.0, math.inf, -math.inf, 800.0, -800.0])
        out = sigmoid(x)
        assert out.tobytes() == reference_sigmoid(x).tobytes()
        assert list(out[:4]) == [0.5, 0.5, 1.0, 0.0]


class TestPrimitives:
    def test_softmax_symmetry(self):
        tape = Tape()
        out = tape.softmax(tape.const([0.0, 0.0]))
        np.testing.assert_allclose(out.value, [0.5, 0.5])

    def test_tanh_sigmoid_at_zero(self):
        tape = Tape()
        assert float(tape.tanh(tape.const(np.zeros(1))).value[0]) == 0.0
        assert float(tape.sigmoid(tape.const(np.zeros(1))).value[0]) == 0.5

    def test_matmul_identity(self):
        tape = Tape()
        a = tape.const([[1.0, 2.0], [3.0, 4.0]])
        out = tape.matmul(a, tape.const(np.eye(2)))
        np.testing.assert_array_equal(out.value, [[1.0, 2.0], [3.0, 4.0]])

    def test_matmul_shape_error_names_primitive(self):
        tape = Tape()
        with pytest.raises(
            ShapeMismatchError, match=re.escape("matmul: incompatible shapes (2, 3) and (2, 3)")
        ):
            tape.matmul(tape.const(np.ones((2, 3))), tape.const(np.ones((2, 3))))

    def test_softmax_rows_sum_to_one_and_survive_large_inputs(self):
        tape = Tape()
        rng = np.random.default_rng(0)
        x = rng.uniform(-700, 700, size=(5, 7))
        out = tape.softmax(tape.const(x)).value
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-12)

    def test_softmax_of_huge_magnitude_does_not_overflow(self):
        tape = Tape()
        out = tape.log_softmax(tape.const([700.0, -700.0, 0.0])).value
        assert np.all(np.isfinite(out))


def _load_bytes(tmp_path, blob):
    path = tmp_path / "edge.ckpt"
    path.write_bytes(blob)
    return ParamStore.load(path)


def _on_tape(op, *values, **kwargs):
    tape = Tape()
    return getattr(tape, op)(*map(tape.const, values), **kwargs)


class TestEdgeInputs:
    """Guards and empty inputs: each call raises the ``(error type,
    message)`` it is paired with, or returns the value it is paired with."""

    @pytest.mark.parametrize(
        "call, outcome",
        [
            (lambda _: _on_tape("add", np.ones(2), np.ones(3)),
             (ShapeMismatchError, "add: incompatible shapes (2,) and (3,)")),
            (lambda _: _on_tape("mul", np.ones((2, 3)), np.ones(3)),
             (ShapeMismatchError, "mul: incompatible shapes (2, 3) and (3,)")),
            (lambda _: _on_tape("lookup", np.ones(3), index=0),
             (ShapeMismatchError, "lookup: incompatible shapes (3,) and ()")),
            (lambda _: _on_tape("pick", np.ones((2, 2, 2)), index=0),
             (ShapeMismatchError, "pick: incompatible shapes (2, 2, 2) and ()")),
            (lambda _: _on_tape("sum", np.ones((2, 2)), axis=1),
             (DiffError, "sum over axis 1 of shape (2, 2)")),
            (lambda _: make_store(a=np.zeros(2)).set_flat(np.zeros(3)),
             (ShapeMismatchError, "set_flat: incompatible shapes (3,) and (2,)")),
            (lambda tmp: _load_bytes(  # one tensor, with the 1-byte name 0xff
                tmp, ParamStore.MAGIC + struct.pack("<2I", 1, 1) + b"\xff"),
             (DiffError, "bad tensor name in ")),
            (lambda _: ParamStore().flat().size, 0),
            (lambda _: relative_error(np.zeros(0), np.zeros(0)), 0.0),
        ],
        ids=["add-shapes", "mul-shapes", "lookup-1d-table", "pick-3d", "sum-axis-1",
             "set-flat-length", "load-non-utf8-name", "empty-store-flat",
             "relative-error-empty"],
    )
    def test_outcome(self, tmp_path, call, outcome):
        if isinstance(outcome, tuple):
            error, message = outcome
            with pytest.raises(error, match=re.escape(message)):
                call(tmp_path)
        else:
            assert call(tmp_path) == outcome


class TestBackward:
    def test_square_gradient(self):
        store = make_store(x=[3.0])
        tape = Tape()
        pn = tape.params(store)
        y = tape.sum(tape.mul(pn["x"], pn["x"]))
        grad = tape.gradient(y, store, pn)
        np.testing.assert_allclose(grad, [6.0])

    def test_log_softmax_gradient_uniform_logits(self):
        store = make_store(x=np.zeros(4))
        tape = Tape()
        pn = tape.params(store)
        y = tape.pick(tape.log_softmax(pn["x"]), 1)
        grad = tape.gradient(y, store, pn)
        expected = np.full(4, -0.25)
        expected[1] = 0.75
        np.testing.assert_allclose(grad, expected, atol=1e-12)

    def test_gradient_rejects_2d_seed_and_non_recording_tape(self):
        # a scalar seed or one loss per row (B,); nothing of higher rank
        store = make_store(x=np.ones((2, 3)))
        tape = Tape()
        pn = tape.params(store)
        with pytest.raises(DiffError, match="one loss per row"):
            tape.gradient(tape.tanh(pn["x"]), store, pn)
        off = Tape(record=False)
        pn = off.params(store)
        with pytest.raises(DiffError, match="gradient on a non-recording tape"):
            off.gradient(off.sum(off.tanh(pn["x"])), store, pn)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_composite_graph_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        store = make_store(
            w=rng.normal(size=(2, 2)), v=rng.normal(size=2), b=rng.normal(size=1)
        )

        def run(s):
            tape = Tape()
            pn = tape.params(s)
            h = tape.tanh(tape.matmul(pn["w"], pn["v"]))
            g = tape.sigmoid(tape.mul(h, pn["v"]))
            mixed = tape.concat([g, pn["b"]])
            out = tape.sum(tape.log_softmax(mixed))
            return tape, pn, out

        tape, pn, out = run(store)
        grad = tape.gradient(out, store, pn)
        fd = finite_diff_grad(lambda s: float(run(s)[2].value), store, step=1e-5)
        assert relative_error(grad, fd) <= 1e-6

    @pytest.mark.parametrize(
        "primitive",
        ["matmul", "add", "mul", "tanh", "sigmoid", "softmax", "log_softmax",
         "concat", "scale", "lookup", "pick"],
    )
    def test_each_primitive_matches_finite_differences(self, primitive):
        rng = np.random.default_rng(hash(primitive) % 2**32)
        a = rng.uniform(0.1, 1.5, size=(3, 4))
        b = rng.uniform(0.1, 1.5, size=(4, 2))
        store = make_store(a=a, b=b)

        def build(s):
            tape = Tape()
            pn = tape.params(s)
            x, y = pn["a"], pn["b"]
            if primitive == "matmul":
                out = tape.matmul(x, y)
            elif primitive == "add":
                out = tape.add(x, tape.scale(x, 0.5))
            elif primitive == "mul":
                out = tape.mul(x, x)
            elif primitive == "tanh":
                out = tape.tanh(x)
            elif primitive == "sigmoid":
                out = tape.sigmoid(x)
            elif primitive == "softmax":
                out = tape.softmax(x)
            elif primitive == "log_softmax":
                out = tape.log_softmax(x)
            elif primitive == "concat":
                out = tape.concat([x, tape.tanh(x)])
            elif primitive == "scale":
                out = tape.scale(x, -2.5)
            elif primitive == "lookup":
                out = tape.tanh(tape.lookup(x, 2))
            elif primitive == "pick":
                out = tape.pick(tape.lookup(x, 1), 3)
            seed = tape.sum(out) if out.value.ndim else out
            return tape, pn, seed

        tape, pn, seed = build(store)
        grad = tape.gradient(seed, store, pn)
        fd = finite_diff_grad(lambda s: float(build(s)[2].value), store)
        assert relative_error(grad, fd) <= 1e-6

    def test_repeated_parent_accumulates_in_tuple_order(self):
        store = make_store(x=[0.0])
        tape = Tape()
        pn = tape.params(store)
        first = np.array([1.0])
        parts = (first, np.array([2.0**-53]), np.array([2.0**-53]))
        y = tape.emit(np.array([0.0]), (pn["x"],) * 3, lambda g: parts)
        grad = tape.gradient(tape.sum(y), store, pn)
        # (1 + u) + u rounds to 1; adding in any other order gives 1 + 2u
        assert grad.tobytes() == ((parts[0] + parts[1]) + parts[2]).tobytes()
        assert grad.tobytes() != (parts[0] + (parts[1] + parts[2])).tobytes()
        assert first.tolist() == [1.0]  # the first contribution is copied

    def test_contribution_of_leading_rows_adds_into_them(self):
        tape = Tape()
        x = tape.const(np.zeros((3, 2)))
        parts = (np.arange(6.0).reshape(3, 2), np.ones((2, 2)))
        y = tape.emit(np.zeros(3), (x, x), lambda g: parts)
        assert tape.gradient(y, None, {"x": x})["x"].tolist() == [[1, 2], [3, 4], [4, 5]]

    @pytest.mark.parametrize("value, later", [
        ((3, 2), (4, 2)), ((3, 2), (2, 3)), ((3, 2), (2,)), ((), (1,)),
    ])
    def test_other_contribution_shapes_rejected(self, value, later):
        tape = Tape()
        x = tape.const(np.zeros(value))
        y = tape.emit(np.zeros(3), (x, x), lambda g: (np.zeros(value), np.zeros(later)))
        message = re.escape(f"gradient: incompatible shapes {value}")
        with pytest.raises(ShapeMismatchError, match=message):
            tape.gradient(y, None, {"x": x})

    @pytest.mark.parametrize("node", ["gru_step", "attend", "readout"])
    def test_each_fused_node_matches_finite_differences(self, node):
        E, H, A, M = 3, 4, 2, 3
        cfg = ModelConfig(6, 6, embed_dim=E, hidden_dim=H, attention_dim=A)
        store = init_params(cfg, seed=1)
        rng = np.random.default_rng(len(node))
        store.set_flat(store.flat() + 0.3 * rng.normal(size=store.size))
        inputs = {"x": E + 2 * H, "h": H, "emb": E, "ctx": 2 * H}
        for name, size in inputs.items():
            store.add(name, rng.normal(size=size))
        store.add("matrix", rng.normal(size=(M, 2 * H)))
        store.add("proj", rng.normal(size=(M, A)))
        weights = {"gru_step": H, "attend": 2 * H, "readout": 6}

        def build(s):
            bound = BoundModel(s, Tape())
            t, p = bound.tape, bound.pn
            if node == "gru_step":
                out = bound._gru_step("dec", p["x"], p["h"])
            elif node == "attend":
                ann = Annotations(matrix=p["matrix"], attn_proj=p["proj"],
                                  bwd_first=p["h"])
                out = bound._attend(p["h"], ann)
            else:
                out = bound._readout(p["emb"], p["h"], p["ctx"])
            mix = t.const(np.linspace(-1.0, 1.5, weights[node]))
            return t, p, t.sum(t.mul(out, mix))

        tape, pn, seed = build(store)
        assert len(tape.nodes) == len(pn) + 4  # fused node, const, mul, sum
        grad = tape.gradient(seed, store, pn)
        fd = finite_diff_grad(lambda s: float(build(s)[2].value), store)
        assert np.any(grad != 0.0)
        assert relative_error(grad, fd) <= 1e-6

    def test_forward_backward_bitwise_reproducible(self):
        rng = np.random.default_rng(4)
        store = make_store(w=rng.normal(size=(3, 3)), v=rng.normal(size=3))

        def run():
            tape = Tape()
            pn = tape.params(store)
            out = tape.sum(tape.softmax(tape.matmul(pn["w"], pn["v"])))
            return tape.gradient(out, store, pn)

        g1, g2 = run(), run()
        assert g1.tobytes() == g2.tobytes()


class TestFiniteDiff:
    def test_sum_of_squares(self):
        store = make_store(theta=[1.0, -2.0])
        fd = finite_diff_grad(lambda s: float(np.sum(s["theta"] ** 2)), store)
        np.testing.assert_allclose(fd, [2.0, -4.0], atol=1e-8)

    def test_constant_function(self):
        store = make_store(theta=np.ones(4))
        fd = finite_diff_grad(lambda s: 1.25, store)
        np.testing.assert_allclose(fd, np.zeros(4), atol=1e-10)

    def test_rejects_nonpositive_step(self):
        store = make_store(theta=np.ones(2))
        with pytest.raises(DiffError):
            finite_diff_grad(lambda s: 0.0, store, step=0.0)

    def test_nonfinite_objective_reports_parameter_index(self):
        store = make_store(theta=np.array([1.0, 1e-9]))

        def f(s):
            # finite at the center point, -inf once theta[1] is stepped down
            with np.errstate(divide="ignore"):
                return float(np.log(np.maximum(s["theta"][1], 0.0)))

        with pytest.raises(NonFiniteError, match="non-finite objective at parameter index 1$"):
            finite_diff_grad(f, store)


class TestParamStore:
    def test_flat_roundtrip(self):
        rng = np.random.default_rng(9)
        store = make_store(a=rng.normal(size=(2, 3)), b=rng.normal(size=5))
        vec = store.flat()
        assert vec.size == store.size == 11
        store.set_flat(vec * 2)
        np.testing.assert_allclose(store.flat(), vec * 2)

    def test_duplicate_name_rejected(self):
        store = make_store(a=np.zeros(2))
        with pytest.raises(DiffError):
            store.add("a", np.zeros(3))

    def test_checkpoint_byte_identical_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        store = make_store(
            weight=rng.normal(size=(3, 2)), bias=rng.normal(size=3)
        )
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        store.save(p1)
        loaded = ParamStore.load(p1)
        assert loaded.names() == store.names()
        for name in store.names():
            np.testing.assert_array_equal(loaded[name], store[name])
        loaded.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded.set_flat(np.zeros(loaded.size))  # loaded tensors are writable

    @given(
        tensors=st.dictionaries(
            st.text(min_size=1, max_size=12),
            st.lists(st.integers(0, 3), max_size=3),
            max_size=5,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_checkpoint_roundtrips_byte_identically(
        self, tmp_path_factory, tensors, seed
    ):
        rng = np.random.default_rng(seed)
        store = make_store(**{n: rng.normal(size=d) for n, d in tensors.items()})
        tmp = tmp_path_factory.mktemp("roundtrip")
        store.save(tmp / "a.ckpt")
        loaded = ParamStore.load(tmp / "a.ckpt")
        assert loaded.names() == store.names()
        for name in store.names():
            assert loaded[name].shape == store[name].shape
            assert loaded[name].tobytes() == store[name].tobytes()
        loaded.save(tmp / "b.ckpt")
        assert (tmp / "a.ckpt").read_bytes() == (tmp / "b.ckpt").read_bytes()

    def test_failed_save_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        old = make_store(w=np.arange(6.0).reshape(2, 3))
        path = tmp_path / "best.ckpt"
        old.save(path)
        before = path.read_bytes()
        real_pack = struct.pack
        calls = []

        def pack_then_fail(fmt, *values):
            calls.append(fmt)
            if len(calls) == 4:  # midway through the first tensor's header
                raise OSError("disk full")
            return real_pack(fmt, *values)

        monkeypatch.setattr(riskseq.diffcore.struct, "pack", pack_then_fail)
        new = make_store(a=np.ones(4), b=np.zeros((2, 2)))
        with pytest.raises(OSError, match="disk full"):
            new.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert ParamStore.load(path).flat().tolist() == old.flat().tolist()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt"]

    def test_checkpoint_magic_enforced(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE")
        with pytest.raises(DiffError, match="bad checkpoint magic"):
            ParamStore.load(path)
        # nor is the count-less RSQ1 format
        _, blob = self._toy_checkpoint(tmp_path)
        path.write_bytes(b"RSQ1" + blob[8:])
        with pytest.raises(DiffError, match="bad checkpoint magic"):
            ParamStore.load(path)

    def _toy_checkpoint(self, tmp_path):
        rng = np.random.default_rng(3)
        store = make_store(
            w=rng.normal(size=(2, 3)), b=rng.normal(size=2), s=np.asarray(1.5)
        )
        path = tmp_path / "toy.ckpt"
        store.save(path)
        return store, path.read_bytes()

    def test_truncation_at_every_offset_rejected(self, tmp_path):
        _, blob = self._toy_checkpoint(tmp_path)
        path = tmp_path / "cut.ckpt"
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(DiffError):
                ParamStore.load(path)

    @pytest.mark.parametrize("extra", [b"\0", b"\0" * 3, b"\0" * 4, b"\1" * 17])
    def test_trailing_bytes_rejected(self, tmp_path, extra):
        _, blob = self._toy_checkpoint(tmp_path)
        path = tmp_path / "long.ckpt"
        path.write_bytes(blob + extra)
        with pytest.raises(DiffError):
            ParamStore.load(path)

    def test_oversized_dims_rejected_without_allocating(self, tmp_path):
        path = tmp_path / "huge.ckpt"
        path.write_bytes(
            ParamStore.MAGIC
            + struct.pack("<2I", 1, 1)  # one tensor, 1-byte name
            + b"w"
            + struct.pack("<4I", 3, 2**32 - 1, 2**32 - 1, 2**32 - 1)
        )
        with pytest.raises(DiffError):
            ParamStore.load(path)
