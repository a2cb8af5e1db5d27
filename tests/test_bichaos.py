import numpy as np
import pytest

from wignerchaos.bichaos import (
    BiChaosElement,
    adjoint,
    bichaos_from_json,
    bichaos_to_json,
    bitrace,
    from_split_kernel,
    norm2,
    one_tensor_one,
    sharp_multiply,
    tensor,
)
from wignerchaos.chaos import ChaosElement, from_kernel, multiply
from wignerchaos.grid_kernel import GridSpec, Kernel, SplitKernel, inner, kernel_to_json

GRID = GridSpec(1.0, 3)


def rand_kernel(order, seed):
    rng = np.random.default_rng(seed)
    shape = (3,) * order
    return Kernel(GRID, order, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def rand_bichaos(seed, splits=((0, 0), (1, 1), (2, 1), (1, 2))):
    coeffs = {}
    for i, (a, b) in enumerate(splits):
        coeffs[(a, b)] = SplitKernel(rand_kernel(a + b, 100 * seed + i), (a, b))
    return BiChaosElement(GRID, coeffs)


def max_entry(X):
    return max(
        (float(np.abs(w.kernel.data).max()) for w in X.coeffs.values()), default=0.0
    )


def biclose(X, Y, tol=1e-9):
    return max_entry(X - Y) <= tol


def test_one_tensor_one_is_unit():
    E = one_tensor_one(GRID)
    X = rand_bichaos(1)
    assert biclose(sharp_multiply(E, X), X, 1e-12)
    assert biclose(sharp_multiply(X, E), X, 1e-12)
    assert complex(bitrace(E)) == 1.0
    assert norm2(E) == pytest.approx(1.0)


def test_tensor_of_chaos_elements():
    A = from_kernel(1, rand_kernel(1, 2))
    B = from_kernel(2, rand_kernel(2, 3))
    T = tensor(A, B)
    assert T.splits == ((1, 2),)
    w = T.coeffs[(1, 2)]
    expected = np.multiply.outer(A.coeffs[1].data, B.coeffs[2].data)
    assert np.allclose(w.kernel.data, expected)


def test_sharp_on_separable_elements_is_legwise():
    # (A (x) B) sharp (C (x) D) = AC (x) DB, with the right-leg order swapped
    for seed in range(100):
        rng = np.random.default_rng(seed)
        na, nb, nc, nd = (int(o) for o in rng.integers(1, 3, size=4))
        A = from_kernel(na, rand_kernel(na, 1000 + 10 * seed))
        B = from_kernel(nb, rand_kernel(nb, 1001 + 10 * seed))
        C = from_kernel(nc, rand_kernel(nc, 1002 + 10 * seed))
        D = from_kernel(nd, rand_kernel(nd, 1003 + 10 * seed))
        got = sharp_multiply(tensor(A, B), tensor(C, D))
        want = tensor(multiply(A, C), multiply(D, B))
        assert biclose(got, want), seed


def test_sharp_associativity():
    for seed in range(100):
        X = rand_bichaos(3 * seed + 1, splits=((1, 1), (0, 1)))
        Y = rand_bichaos(3 * seed + 2, splits=((1, 1), (1, 0)))
        Z = rand_bichaos(3 * seed + 3, splits=((1, 1),))
        L = sharp_multiply(sharp_multiply(X, Y), Z)
        R = sharp_multiply(X, sharp_multiply(Y, Z))
        assert biclose(L, R), seed


def test_adjoint_is_antimultiplicative_for_sharp():
    for seed in range(50):
        X = rand_bichaos(5 * seed + 1)
        Y = rand_bichaos(5 * seed + 2)
        L = adjoint(sharp_multiply(X, Y))
        R = sharp_multiply(adjoint(Y), adjoint(X))
        assert biclose(L, R), seed
        assert biclose(adjoint(adjoint(X)), X, 0.0)


def test_bisometry_norm2_equals_trace_of_square():
    # norm2 sums slot norms; the expansion route goes through the sharp
    # product with the adjoint and reads off the (0,0) slot
    for seed in range(100):
        X = rand_bichaos(7 * seed)
        slot_sum = norm2(X)
        expansion = complex(bitrace(sharp_multiply(X, adjoint(X))))
        assert abs(expansion.imag) < 1e-9
        assert slot_sum == pytest.approx(expansion.real, abs=1e-9), seed


def test_distinct_splits_are_orthogonal():
    w1 = SplitKernel(rand_kernel(2, 800), (1, 1))
    w2 = SplitKernel(rand_kernel(2, 801), (2, 0))
    X = from_split_kernel(w1)
    Y = from_split_kernel(w2)
    cross = complex(bitrace(sharp_multiply(X, adjoint(Y))))
    assert cross == pytest.approx(0.0, abs=1e-12)


def test_norm2_of_single_slot_is_kernel_norm():
    w = SplitKernel(rand_kernel(3, 810), (2, 1))
    assert norm2(from_split_kernel(w)) == pytest.approx(
        inner(w.kernel, w.kernel).real
    )


def test_scalar_arithmetic():
    X = rand_bichaos(11)
    Y = 2.0 * X - X
    assert biclose(X, Y, 1e-12)
    assert biclose(X, X * 2.0 - X, 1e-12)
    assert max_entry(X + (-X)) == 0.0


def test_scalar_arithmetic_refuses_arrays():
    # an array factor must raise, not broadcast into an object array of elements
    X = rand_bichaos(12)
    for factor in (np.ones(2), np.array([1.0, 2.0])):
        with pytest.raises(TypeError):
            factor * X
        with pytest.raises(TypeError):
            X * factor
    assert biclose(np.float64(0.5) * X, 0.5 * X, 0.0)


def test_split_sums_follow_numpy_promotion():
    # as for chaos sums: a complex term promotes a real sum of its split
    rng = np.random.default_rng(170)
    real = [SplitKernel(Kernel(GRID, 2, rng.standard_normal((3, 3))), (1, 1)) for _ in range(3)]
    cplx = SplitKernel(rand_kernel(2, 170), (1, 1))
    for terms, dtype in (
        (real, np.float64),
        (real[:2] + [cplx], np.complex128),
        (real[:1] + [cplx] + real[1:], np.complex128),
        ([cplx] + real, np.complex128),
    ):
        got = BiChaosElement._sum_by_key(GRID, terms).coeffs[(1, 1)].kernel.data
        assert got.dtype == dtype
        assert np.array_equal(got, sum(w.kernel.data for w in terms))  # same order
    X = from_split_kernel(real[0]) + from_split_kernel(
        SplitKernel(Kernel(GRID, 1, np.ones(3)), (0, 1))
    )
    assert all(w.kernel.data.dtype == np.float64 for w in sharp_multiply(X, X).coeffs.values())


def test_element_operators():
    X = rand_bichaos(14)
    for bad in (1.0, "x", None):
        with pytest.raises(TypeError):
            X + bad
        with pytest.raises(TypeError):
            X - bad
    with pytest.raises(TypeError):  # the product is sharp_multiply, not *
        X * X
    assert repr(X) == "BiChaosElement(splits=[(0, 0), (1, 1), (1, 2), (2, 1)])"
    assert repr(X - X) == "BiChaosElement(splits=[])"


def test_elements_on_other_grids_are_refused():
    X = rand_bichaos(15)
    other_grid = GridSpec(2.0, 3)
    f = Kernel(other_grid, 2, np.ones((3, 3)))
    other = from_split_kernel(SplitKernel(f, (1, 1)))
    for op in (lambda a, b: a + b, sharp_multiply):
        with pytest.raises(ValueError, match="grid mismatch"):
            op(X, other)
    A = from_kernel(1, rand_kernel(1, 16))
    with pytest.raises(ValueError, match="grid mismatch"):
        tensor(A, from_kernel(2, f))
    with pytest.raises(ValueError, match="share the element's grid"):
        BiChaosElement(GRID, {(1, 1): SplitKernel(f, (1, 1))})


def test_json_roundtrip():
    X = rand_bichaos(12)
    Y = bichaos_from_json(bichaos_to_json(X))
    assert biclose(X, Y, 0.0)
    assert Y.splits == X.splits


@pytest.mark.parametrize("record", [[], "x", None])
def test_json_rejects_non_object_records(record):
    with pytest.raises(ValueError):
        bichaos_from_json(record)


def test_json_roundtrip_of_zero_element_and_older_records():
    X = rand_bichaos(13)
    D = X - X
    assert not D.coeffs
    Z = bichaos_from_json(bichaos_to_json(D))
    assert Z.grid == GRID and not Z.coeffs
    # older records hold only the kernel records, keyed by split
    older = {f"{a},{b}": kernel_to_json(w.kernel) for (a, b), w in X.coeffs.items()}
    Y = bichaos_from_json(older)
    assert biclose(X, Y, 0.0)
    assert Y.splits == X.splits
    with pytest.raises(ValueError):
        bichaos_from_json({})


@pytest.mark.parametrize("key", ["3", "1,1,0", "x,2", "1.0,1", "01,1", "1, 1", "1,+1"])
def test_json_rejects_keys_that_are_not_integer_pairs(key):
    record = bichaos_to_json(rand_bichaos(16, splits=((1, 1),)))
    record["kernels"] = {key: record["kernels"]["1,1"]}
    with pytest.raises(ValueError):
        bichaos_from_json(record)


def test_construction_prunes_only_exact_zeros():
    zero = SplitKernel(Kernel(GRID, 2, np.zeros((3, 3))), (1, 1))
    tiny = SplitKernel(Kernel(GRID, 2, np.full((3, 3), 1e-16)), (2, 0))
    X = BiChaosElement(GRID, {(1, 1): zero, (2, 0): tiny})
    assert X.splits == ((2, 0),)
    assert (X - X).splits == ()


def test_element_keys_must_be_the_kernel_splits():
    w = SplitKernel(rand_kernel(3, 7), (2, 1))
    with pytest.raises(ValueError):
        BiChaosElement(GRID, {(1, 2): w})
    assert BiChaosElement(GRID, {(2, 1): w}).splits == ((2, 1),)
    # a split given in numpy integers keys the element in built-in ints
    v = SplitKernel(rand_kernel(1, 17), (np.int64(1), 0))
    X = BiChaosElement(GRID, {(np.int64(1), 0): v})
    assert X.splits == ((1, 0),) and all(type(x) is int for x in X.splits[0])


@pytest.mark.parametrize(
    "key", [3, None, (1,), (1, 1, 1), "ab"], ids=["int", "None", "single", "triple", "str"]
)
def test_element_key_that_is_not_a_pair_is_refused_before_unpacking(key):
    # checked before the key is unpacked, so "ab" is not read as ("a", "b")
    w = SplitKernel(rand_kernel(2, 9), (1, 1))
    with pytest.raises(ValueError, match=r"^split must be a pair of integers, got "):
        BiChaosElement(GRID, {key: w})


def test_element_is_immutable():
    X = rand_bichaos(8)
    for name, value in (("coeffs", {}), ("grid", GridSpec(2.0, 3))):
        with pytest.raises(AttributeError):
            setattr(X, name, value)
    with pytest.raises(AttributeError):
        X.extra = 1
    assert X.splits == ((0, 0), (1, 1), (1, 2), (2, 1))
