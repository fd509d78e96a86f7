import math
import struct

import numpy as np
import pytest

from riskseq.diffcore import (
    DiffError,
    NonFiniteError,
    ParamStore,
    ShapeMismatchError,
    Tape,
    finite_diff_grad,
    relative_error,
)


def make_store(**arrays):
    store = ParamStore()
    for name, arr in arrays.items():
        store.add(name, np.asarray(arr, dtype=np.float64))
    return store


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
        with pytest.raises(ShapeMismatchError) as err:
            tape.matmul(tape.const(np.ones((2, 3))), tape.const(np.ones((2, 3))))
        assert err.value.primitive == "matmul"
        assert err.value.shape_a == (2, 3)
        assert err.value.shape_b == (2, 3)

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

    def test_backward_requires_scalar_seed(self):
        store = make_store(x=np.ones(3))
        tape = Tape()
        pn = tape.params(store)
        y = tape.tanh(pn["x"])
        with pytest.raises(DiffError):
            tape.backward(y)

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
         "log", "concat", "scale", "mean", "lookup", "pick"],
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
            elif primitive == "log":
                out = tape.log(x)
            elif primitive == "concat":
                out = tape.concat([x, tape.tanh(x)], axis=1)
            elif primitive == "scale":
                out = tape.scale(x, -2.5)
            elif primitive == "mean":
                out = tape.mean(x)
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

        with pytest.raises(NonFiniteError) as err:
            finite_diff_grad(f, store)
        assert err.value.index == 1


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

    def test_checkpoint_magic_enforced(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE")
        with pytest.raises(DiffError):
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

    def test_legacy_format_without_count_loads(self, tmp_path):
        store, blob = self._toy_checkpoint(tmp_path)
        path = tmp_path / "legacy.ckpt"
        path.write_bytes(ParamStore.LEGACY_MAGIC + blob[8:])
        loaded = ParamStore.load(path)
        assert loaded.names() == store.names()
        np.testing.assert_array_equal(loaded.flat(), store.flat())

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
