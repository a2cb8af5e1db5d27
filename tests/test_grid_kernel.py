import copy
import json
import math
import pickle
import struct
import tracemalloc
from importlib import import_module
from itertools import product

import numpy as np
import pytest
from oracles import permutation_average

from wignerchaos.bichaos import bichaos_from_json, bichaos_to_json, from_split_kernel
from wignerchaos.chaos import ChaosElement, chaos_from_json, chaos_to_json, from_kernel
from wignerchaos.grid_kernel import (
    GridSpec,
    Kernel,
    MemoryCapError,
    SplitKernel,
    adjoint,
    adjoint_split,
    bicontract,
    cell_indicator,
    constant_kernel,
    contract,
    inner,
    is_mirror_symmetric,
    is_symmetric,
    kernel_from_bytes,
    kernel_from_json,
    kernel_to_bytes,
    kernel_to_json,
    kernels_close,
    max_abs_diff,
    norm,
    slice_kernel,
    symmetrize,
    zero_kernel,
)

GRID = GridSpec(1.0, 3)

grid_kernel_module = import_module("wignerchaos.grid_kernel")


def rand(order, cells=3, seed=0, complex_=True):
    rng = np.random.default_rng(seed)
    shape = (cells,) * order
    data = rng.standard_normal(shape)
    if complex_:
        data = data + 1j * rng.standard_normal(shape)
    return Kernel(GridSpec(1.0, cells), order, data)


def test_grid_spec_cell_width():
    assert GridSpec(2.0, 4).cell_width == 0.5
    with pytest.raises(ValueError):
        GridSpec(0.0, 4)
    with pytest.raises(ValueError):
        GridSpec(1.0, 0)
    with pytest.raises(ValueError):
        GridSpec(True, 3)  # a bool is not a length


def test_numpy_scalar_arguments_give_records_that_serialize():
    # GridSpec and the order keep built-in numbers, so json.dumps takes
    # the records of a kernel and of both kinds of element
    grid = GridSpec(np.float32(0.75), np.int64(3))
    f = Kernel(grid, np.int64(2), np.eye(3))
    for write, read, value in (
        (kernel_to_json, kernel_from_json, f),
        (chaos_to_json, chaos_from_json, from_kernel(np.int64(2), f)),
        (bichaos_to_json, bichaos_from_json, from_split_kernel(SplitKernel(f, (1, 1)))),
    ):
        record = write(value)
        assert write(read(json.loads(json.dumps(record)))) == record
    assert type(grid.total_length) is float and type(grid.cells) is int
    assert type(f.order) is int


def test_kernel_construction_and_immutability():
    f = rand(2)
    assert f.data.dtype == np.complex128
    assert f.data.shape == (3, 3)
    with pytest.raises(ValueError):
        f.data[0, 0] = 1.0
    with pytest.raises(AttributeError):
        f.order = 5
    # a second __init__ is refused before it sets anything
    before = f.data
    with pytest.raises(AttributeError):
        f.__init__(GRID, 1, np.zeros(3))
    assert f.data is before and f.order == 2
    assert np.array_equal(f.data, rand(2).data)


def test_copies_and_pickles_are_frozen_equal_kernels():
    f = rand(2, seed=65)
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g.grid == f.grid and g.order == f.order
        assert np.array_equal(g.data, f.data)
        assert not g.data.flags.writeable


def test_kernel_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        Kernel(GRID, 2, np.zeros((3, 4)))
    with pytest.raises(ValueError):
        Kernel(GRID, 1, np.array([1.0, np.inf, 0.0]))
    with pytest.raises(ValueError):
        Kernel(GRID, 1, np.array([1.0, np.nan, 0.0]))
    # flat input of the right total size reshapes
    f = Kernel(GRID, 2, np.arange(9.0))
    assert f.data[2, 2] == 8.0


@pytest.mark.parametrize(
    "entries",
    [
        ["1", "2"],
        [b"1", b"2"],
        np.array(["1", "2"], dtype=object),
        np.array([True, 2.0], dtype=object),
    ],
    ids=["str", "bytes", "object-str", "object-bool"],
)
def test_kernel_refuses_text_entries(entries):
    # np.array(..., dtype=float64) would parse the text as numbers, also
    # text or a bool held in an object array
    with pytest.raises(ValueError, match="must be numbers"):
        Kernel(GridSpec(1.0, 2), 1, entries)


def test_order_zero_kernel_is_scalar():
    c = constant_kernel(GRID, 2.5 + 1j)
    assert c.order == 0
    assert complex(c.data) == 2.5 + 1j
    assert inner(c, c) == pytest.approx(abs(2.5 + 1j) ** 2)
    # a scalar is symmetric iff its imaginary part is within tol * |c|
    assert not is_symmetric(c)
    assert is_symmetric(c, tol=0.5)
    assert is_symmetric(constant_kernel(GRID, -2.5))
    assert is_symmetric(constant_kernel(GRID, 0.0))


def test_arithmetic():
    f, g = rand(2, seed=1), rand(2, seed=2)
    assert np.allclose((f + g).data, f.data + g.data)
    assert np.allclose((f - g).data, f.data - g.data)
    assert np.allclose((2.0 * f).data, 2.0 * f.data)
    assert np.allclose((f * 2.0).data, 2.0 * f.data)
    assert np.allclose((f / 2.0).data, f.data / 2.0)
    assert np.allclose((-f).data, -f.data)
    with pytest.raises(ValueError):
        f + rand(3, seed=3)
    with pytest.raises(ValueError):
        f + rand(2, cells=4, seed=3)


def test_result_dtype_follows_numpy_promotion():
    # real input is stored as float64, anything else as complex128, and each
    # result takes numpy's promotion of its operands
    real, cplx = np.dtype(np.float64), np.dtype(np.complex128)
    for data, want in (
        (np.ones(3, dtype=bool), real),
        (np.arange(3), real),
        (np.ones(3, dtype=np.float32), real),
        ([1.0, 2.0, 3.0], real),
        (np.ones(3, dtype=np.complex64), cplx),
        (np.ones(3) + 0j, cplx),  # the dtype decides, not the values
    ):
        assert Kernel(GRID, 1, data).data.dtype == want
    assert constant_kernel(GRID, 2.0).data.dtype == real
    assert constant_kernel(GRID, 2.0 + 0j).data.dtype == cplx
    assert zero_kernel(GRID, 2).data.dtype == real
    assert cell_indicator(GRID, 1, normalized=True).data.dtype == real
    fr, fc = rand(3, seed=60, complex_=False), rand(3, seed=61)
    assert symmetrize(fr).data.dtype == real
    for f in (fr, fc):
        dtype = f.data.dtype
        assert adjoint(f).data.dtype == dtype
        assert adjoint_split(SplitKernel(f, (1, 2))).kernel.data.dtype == dtype
        assert slice_kernel(f, 2, 1).kernel.data.dtype == dtype
        assert (-f).data.dtype == dtype
        for scalar in (2.0, 2, np.float64(2.0), np.int64(2)):
            assert (f * scalar).data.dtype == (scalar * f).data.dtype == dtype
            assert (f / scalar).data.dtype == dtype
        for scalar in (1j, 2.0 + 0j, np.complex128(2.0)):
            assert (f * scalar).data.dtype == (f / scalar).data.dtype == cplx
    for f, g in product((fr, fc), repeat=2):
        want = real if f is g is fr else cplx
        assert contract(f, g, 1).data.dtype == want
        assert contract(f, g, 0).data.dtype == want
        bi = bicontract(SplitKernel(f, (2, 1)), SplitKernel(g, (1, 2)), 1, 1)
        assert bi.kernel.data.dtype == want
        assert (f + g).data.dtype == (f - g).data.dtype == want
    # binary and JSON records hold complex entries
    assert kernel_from_bytes(kernel_to_bytes(fr)).data.dtype == cplx
    assert kernel_from_json(kernel_to_json(fr)).data.dtype == cplx


def test_scalar_arithmetic_refuses_arrays():
    # internal results are wrapped without a shape check, so an array factor
    # must raise rather than broadcast into a kernel of the wrong shape
    for f in (rand(1, seed=62, complex_=False), rand(1, seed=63)):
        for factor in (np.ones(3), np.ones((3, 3)), [1.0, 2.0, 3.0]):
            with pytest.raises(TypeError):
                f * factor
            with pytest.raises(TypeError):
                f / factor
        with pytest.raises(TypeError):
            np.ones(3) * f
        assert np.array_equal((np.float64(2.0) * f).data, 2.0 * f.data)


def test_memory_cap():
    big = GridSpec(1.0, 2 ** 9)
    with pytest.raises(MemoryCapError):
        zero_kernel(big, 3)  # 2^27 entries
    # the cap error is a ValueError so callers can catch broadly
    assert issubclass(MemoryCapError, ValueError)


def test_memory_cap_holds_for_numpy_integer_sizes():
    # each power wraps around in int64 to a number under the cap
    for cells, order in ((np.int64(3000), 6), (3000, np.int64(6)), (np.int64(300), 8)):
        with pytest.raises(MemoryCapError):
            grid_kernel_module._require_capacity(cells, order)
    with pytest.raises(MemoryCapError):
        zero_kernel(GridSpec(1.0, 3000), np.int64(6))


def test_adjoint_is_involution_and_reverses():
    f = rand(3, seed=4)
    assert kernels_close(adjoint(adjoint(f)), f)
    # f*(t1,t2,t3) = conj(f(t3,t2,t1))
    expected = np.conj(np.transpose(f.data, (2, 1, 0)))
    assert np.array_equal(adjoint(f).data, expected)


def test_mirror_symmetric_iff_self_adjoint():
    f = rand(3, seed=5)
    assert not is_mirror_symmetric(f)
    sym = 0.5 * (f + adjoint(f))
    assert is_mirror_symmetric(sym)
    assert kernels_close(adjoint(sym), sym)


def test_is_symmetric_and_symmetrize():
    f = rand(3, seed=6, complex_=False)
    assert not is_symmetric(f)
    s = symmetrize(f)
    assert is_symmetric(s)
    # symmetrize is a projection
    assert kernels_close(symmetrize(s), s)
    # average over all 6 permutations, spot-checked entrywise
    d = f.data
    manual = sum(
        np.transpose(d, p)
        for p in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    ) / 6.0
    assert np.allclose(s.data, manual)
    # order 6: adjacent swaps detect a single perturbed entry
    s6 = symmetrize(rand(6, cells=2, seed=10, complex_=False))
    assert is_symmetric(s6)
    d6 = s6.data.copy()
    d6[1, 0, 0, 0, 0, 0] += 1e-6
    assert not is_symmetric(Kernel(s6.grid, 6, d6))
    # order 3, antisymmetric under the non-adjacent swap of axes 0 and 2
    # only: that swap moves it by 2, each adjacent swap by 1
    d3 = np.zeros((2, 2, 2))
    d3[0, :, 1], d3[1, :, 0] = 1.0, -1.0
    f3 = Kernel(GridSpec(1.0, 2), 3, d3)
    assert not is_symmetric(f3)
    assert np.max(np.abs(d3 - np.swapaxes(d3, 0, 2))) == 2.0
    # at tol = 1 only the adjacent swaps are tested; the outer swap stays
    # within the documented bound n(n-1)/2 * tol = 3
    assert is_symmetric(f3, tol=1.0)


def test_symmetrize_warns_on_complex_and_accepts_high_order():
    f = rand(2, seed=7)
    with pytest.warns(UserWarning):
        s = symmetrize(f)
    assert np.all(s.data.imag == 0)
    # n(n-1)/2 swapped adds: only the cap bounds the order
    for order in range(9, 13):
        s = symmetrize(rand(order, cells=2, seed=order, complex_=False))
        assert s.data.dtype == np.float64
        assert is_symmetric(s, tol=1e-12)
        assert kernels_close(symmetrize(s), s)


def test_symmetrize_matches_permutation_average():
    # the swaps sum in another order than the n! transposes, so from order 3
    # on the two agree to rounding; up to order 2 they make the same adds
    for order in range(8):
        for cells in (1, 2, 3):
            if cells**order > 5000:
                continue
            for length, complex_ in product((1.0, 7.3), (False, True)):
                data = rand(order, cells, seed=10 * order + cells, complex_=complex_).data
                f = Kernel(GridSpec(length, cells), order, data)
                if complex_:
                    with pytest.warns(UserWarning, match="dropping nonzero imaginary part"):
                        got = symmetrize(f).data
                else:
                    got = symmetrize(f).data
                want = permutation_average(f).data
                assert got.dtype == np.float64
                if order <= 2:
                    assert got.tobytes() == want.tobytes()
                scale = float(np.max(np.abs(f.data.real)))
                assert float(np.max(np.abs(got - want))) <= 1e-12 * scale, (order, cells)


def test_is_symmetric_reads_an_imaginary_part_only_when_there_is_one():
    s = symmetrize(rand(3, seed=11, complex_=False))
    assert s.data.dtype == np.float64 and is_symmetric(s, tol=1e-12)
    as_complex = Kernel(s.grid, 3, s.data.astype(np.complex128))
    assert is_symmetric(as_complex, tol=1e-12)
    assert kernels_close(symmetrize(as_complex), s)  # zero imaginary parts: no warning
    # an imaginary part of 1e-6 * max|f| fails at tol 1e-9 and passes at 1e-3
    scale = float(np.max(np.abs(s.data)))
    tilted = Kernel(s.grid, 3, s.data + 1e-6j * scale)
    assert not is_symmetric(tilted)
    assert is_symmetric(tilted, tol=1e-3)


def test_symmetric_implies_mirror_symmetric_for_real():
    f = symmetrize(rand(4, seed=9, complex_=False))
    assert is_symmetric(f)
    assert is_mirror_symmetric(f)


def test_inner_norm_scaling():
    # inner includes the cell volume h^n
    e = cell_indicator(GRID, 1)
    assert inner(e, e) == pytest.approx(GRID.cell_width)
    u = cell_indicator(GRID, 1, normalized=True)
    assert norm(u) == pytest.approx(1.0)
    assert np.count_nonzero(u.data) == 1
    # True would index the whole array as a boolean mask
    for cell in (True, 1.0, -1, 3):
        with pytest.raises(ValueError):
            cell_indicator(GRID, cell)
    f, g = rand(2, seed=10), rand(2, seed=11)
    assert inner(f, g) == pytest.approx(np.conj(inner(g, f)))


def test_contract_zero_is_tensor_product():
    f, g = rand(1, seed=12), rand(2, seed=13)
    out = contract(f, g, 0)
    assert out.order == 3
    assert np.allclose(out.data, np.multiply.outer(f.data, g.data))


def test_contract_full_is_nested_pairing():
    # p = n = m: pairs f's last var with g's first, inward:
    # <f contract_n g> = h^n sum f(t1..tn) g(tn..t1)
    f, g = rand(3, seed=14), rand(3, seed=15)
    out = contract(f, g, 3)
    assert out.order == 0
    expected = GRID.cell_width ** 3 * np.einsum(
        "abc,cba->", f.data, g.data
    )
    assert complex(out.data) == pytest.approx(expected)


@pytest.mark.parametrize("cells", [2, 3])
def test_full_pairing_matches_the_window_route(cells):
    # the scalar contract(f, g, n) against the window-matrix product that
    # serves every other contraction size, on two different kernels
    grid = GridSpec(2.5, cells)
    rng = np.random.default_rng(50 + cells)
    for n in range(8):
        shape = (cells,) * n
        for complex_ in (False, True):
            parts = [rng.standard_normal((2, *shape)) for _ in range(2)]
            f, g = (Kernel(grid, n, re + 1j * im if complex_ else re) for re, im in parts)
            got = grid_kernel_module._full_pairing(f, g)
            window = grid_kernel_module._window_matrix(g, (n, 0), n, 0)
            want = grid_kernel_module._bicontract_array(f, (n, 0), window, n, 0)
            assert np.asarray(got).dtype == want.dtype, (n, complex_)
            assert abs(got - complex(want)) <= 1e-13 * abs(complex(want)), (n, complex_)


def one_product_pairing(f, g):
    # the full pairing as one product of F with the whole half-reversed
    # copy Gr of g: the single block of _full_pairing
    n, cells = f.order, f.grid.cells
    a, b = n // 2, n - n // 2
    g_perm = (*range(b - 1, -1, -1), *range(n - 1, b - 1, -1))
    Gr = np.transpose(g.data, g_perm).reshape(cells**b, cells**a)
    F = f.data.reshape(cells**a, cells**b)
    return f.grid.cell_width**n * np.einsum("xy,yx->", F, Gr)


def window_pairing(f, g):
    # the window-matrix route, and h^n sum |f[i] g[rev i]|, the size of the
    # terms it sums: a block-wise sum may differ from it by a few roundings
    # of that size, however much the terms cancel
    n = f.order
    window = grid_kernel_module._window_matrix(g, (n, 0), n, 0)
    want = grid_kernel_module._bicontract_array(f, (n, 0), window, n, 0)
    rev = np.transpose(g.data, tuple(range(n - 1, -1, -1)))
    return want, f.grid.cell_width**n * float(np.sum(np.abs(f.data * rev)))


def random_pair(n, cells, complex_, seed):
    grid = GridSpec(2.5, cells)
    rng = np.random.default_rng(seed)
    parts = [rng.standard_normal((2,) + (cells,) * n) for _ in range(2)]
    return [Kernel(grid, n, re + 1j * im if complex_ else re) for re, im in parts]


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("n, cells", [(6, 8), (5, 12), (3, 64), (2, 512)])
def test_blocked_full_pairing_matches_the_window_route(n, cells, complex_):
    # kernels above _PAIRING_BLOCK entries are paired a block of g at a time
    assert cells**n > grid_kernel_module._PAIRING_BLOCK
    f, g = random_pair(n, cells, complex_, seed=60 + n)
    got = grid_kernel_module._full_pairing(f, g)
    want, scale = window_pairing(f, g)
    assert np.asarray(got).dtype == want.dtype
    assert abs(got - complex(want)) <= 1e-13 * scale


@pytest.mark.parametrize("block", [1, 5, 30, 200])
def test_full_pairing_matches_the_window_route_at_any_block_size(block, monkeypatch):
    # small blocks reach every case on small kernels: one row of Gr per
    # block when a row alone is larger, several fixed axes, and runs of a
    # row axis whose last run is short
    monkeypatch.setattr(grid_kernel_module, "_PAIRING_BLOCK", block)
    for n in range(7):
        for cells in (2, 3, 5):
            for complex_ in (False, True):
                f, g = random_pair(n, cells, complex_, seed=70 + n)
                got = grid_kernel_module._full_pairing(f, g)
                want, scale = window_pairing(f, g)
                assert np.asarray(got).dtype == want.dtype, (n, cells)
                assert abs(got - complex(want)) <= 1e-13 * scale, (n, cells, complex_)


def test_full_pairing_of_one_block_is_the_one_product_bit_for_bit():
    # up to _PAIRING_BLOCK entries, one block: the arithmetic of the single
    # product of F and Gr, down to the last bit and the scalar type
    limit = grid_kernel_module._PAIRING_BLOCK
    shapes = [(n, 3) for n in range(8)] + [(17, 2), (4, 19), (2, 362), (1, limit)]
    for n, cells in shapes:
        assert cells**n <= limit
        f, g = random_pair(n, cells, True, seed=80 + n)
        for pair in ((f, g), (f.data.real, g), (f, g.data.real), (f.data.real, g.data.real)):
            x, y = (k if isinstance(k, Kernel) else Kernel(f.grid, n, k) for k in pair)
            got = grid_kernel_module._full_pairing(x, y)
            want = one_product_pairing(x, y)
            assert type(got) is type(want) and got == want, (n, cells)


def test_contract_one_matches_matrix_product():
    f, g = rand(2, seed=16), rand(2, seed=17)
    out = contract(f, g, 1)
    assert np.allclose(out.data, GRID.cell_width * f.data @ g.data)


def test_contract_validation():
    f, g = rand(2, seed=18), rand(3, seed=19)
    with pytest.raises(ValueError):
        contract(f, g, 3)
    with pytest.raises(ValueError):
        contract(f, g, -1)


def test_bicontract_validation():
    f = SplitKernel(rand(3, seed=18), (2, 1))
    g = SplitKernel(rand(3, seed=19), (1, 2))
    assert bicontract(f, g, 1, 1).split == (1, 1)
    for p, r, message in (
        (2, 0, r"^p=2 out of range \[0, 1\]$"),
        (-1, 0, r"^p=-1 out of range \[0, 1\]$"),
        (0, 2, r"^r=2 out of range \[0, 1\]$"),
        (0, -1, r"^r=-1 out of range \[0, 1\]$"),
    ):
        with pytest.raises(ValueError, match=message):
            bicontract(f, g, p, r)


def test_kernel_operators_refuse_numbers_and_kernel_products():
    f = Kernel(GridSpec(1.5, 3), 2, np.ones(9))
    assert repr(f) == "Kernel(order=2, cells=3, T=1.5)"
    for op in (lambda: f + 1, lambda: f - 1, lambda: f * f):
        with pytest.raises(TypeError):
            op()


def test_split_must_match_kernel_order():
    f = rand(3, seed=20)
    assert SplitKernel(f, (1, 2)).split == (1, 2)
    # numpy integers are stored as built-in ints, so the split keys alike
    split = SplitKernel(f, (np.int64(1), np.uint8(2))).split
    assert split == (1, 2) and all(type(x) is int for x in split)
    for split in ((1, 1), (2, 2), (-1, 4), (4, -1), (1.5, 1.5), (True, 2)):
        with pytest.raises(ValueError):
            SplitKernel(f, split)
    for split in (3, (1, 1, 1), [1, 2], None):
        with pytest.raises(ValueError, match="split must be a pair of integers"):
            SplitKernel(f, split)


def test_require_int_messages():
    require_int = grid_kernel_module._require_int
    for bad in (2.5, True, np.bool_(True), "2", None):
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            require_int("n", bad, 0)
    with pytest.raises(ValueError, match=r"^n must be >= 2, got 1$"):
        require_int("n", 1, 2)
    with pytest.raises(ValueError, match=r"^p=3 out of range \[0, 2\]$"):
        require_int("p", 3, 0, 2)
    require_int("n", np.int64(3), 0, 3)
    require_int("k", -(10**30), -math.inf)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_tolerances_must_be_finite_and_nonnegative(tol):
    # a nan bound made every comparison False, so is_symmetric passed this
    # kernel, which is not symmetric
    f = Kernel(GridSpec(1.0, 3), 2, np.arange(9.0))
    message = "must be a finite number >= 0"
    with pytest.raises(ValueError, match="^tol " + message):
        is_symmetric(f, tol)
    with pytest.raises(ValueError, match="^tol " + message):
        is_mirror_symmetric(f, tol)
    with pytest.raises(ValueError, match="^rtol " + message):
        kernels_close(f, f, rtol=tol)
    with pytest.raises(ValueError, match="^atol " + message):
        kernels_close(f, f, atol=tol)


def test_bicontract_separable_factorization():
    # (a (x) b) bicontract_{p,r} (c (x) d) = (a contract_p c) (x) (d contract_r b)
    rng = np.random.default_rng(20)
    for trial in range(100):
        n1, m1, n2, m2 = rng.integers(1, 3, size=4)
        a, b, c, d = (rand(int(o), seed=100 + 4 * trial + i)
                      for i, o in enumerate((n1, m1, n2, m2)))
        f = SplitKernel(contract(a, b, 0), (int(n1), int(m1)))
        g = SplitKernel(contract(c, d, 0), (int(n2), int(m2)))
        for p in range(int(min(n1, n2)) + 1):
            for r in range(int(min(m1, m2)) + 1):
                got = bicontract(f, g, p, r)
                assert got.split == (int(n1 + n2) - 2 * p, int(m1 + m2) - 2 * r)
                left = contract(a, c, p)
                right = contract(d, b, r)
                want = contract(left, right, 0)
                assert kernels_close(got.kernel, want), (trial, p, r)


def test_bicontract_zero_zero_keeps_blocks():
    f = SplitKernel(rand(2, seed=21), (1, 1))
    g = SplitKernel(rand(2, seed=22), (1, 1))
    out = bicontract(f, g, 0, 0)
    # output variable order: f first leg, g first leg, g second leg, f second leg
    expected = np.einsum("ad,bc->abcd", f.kernel.data, g.kernel.data)
    assert np.allclose(out.kernel.data, expected)


def bicontract_by_tensordot(f, g, p, r):
    # the tensordot formula: contract the paired axes in tensordot's own
    # output order (f lead, f trail, g first, g second), then move f's
    # trailing block to the end
    n1, m1 = f.split
    n2, m2 = g.split
    f_axes = list(range(n1 - 1, n1 - p - 1, -1)) + list(range(n1, n1 + r))
    g_axes = list(range(p)) + list(range(n2 + m2 - 1, n2 + m2 - r - 1, -1))
    out = np.tensordot(f.kernel.data, g.kernel.data, axes=(f_axes, g_axes))
    out = out * f.kernel.grid.cell_width ** (p + r)
    n_lead, n_trail, n_free = n1 - p, m1 - r, n2 + m2 - p - r
    src = (
        list(range(n_lead))
        + list(range(n_lead + n_trail, n_lead + n_trail + n_free))
        + list(range(n_lead, n_lead + n_trail))
    )
    return np.transpose(out, src)


def assert_relative_close(got, want, rtol):
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= rtol * scale


@pytest.mark.parametrize("cells", [1, 2, 3])
def test_bicontract_matches_tensordot_formula_on_every_split(cells):
    grid = GridSpec(2.5, cells)
    rng = np.random.default_rng(40 + cells)

    def split_kernel(a, b):
        shape = (cells,) * (a + b)
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return SplitKernel(Kernel(grid, a + b, data), (a, b))

    for n1, m1, n2, m2 in product(range(4), repeat=4):
        f, g = split_kernel(n1, m1), split_kernel(n2, m2)
        for p in range(min(n1, n2) + 1):
            for r in range(min(m1, m2) + 1):
                got = bicontract(f, g, p, r)
                assert got.split == (n1 + n2 - 2 * p, m1 + m2 - 2 * r)
                want = bicontract_by_tensordot(f, g, p, r)
                assert_relative_close(got.kernel.data, want, 1e-13)
        # contract is the bicontraction of the splits (n, 0) and (m, 0)
        fc, gc = SplitKernel(f.kernel, (n1 + m1, 0)), SplitKernel(g.kernel, (n2 + m2, 0))
        for p in range(min(n1 + m1, n2 + m2) + 1):
            got = contract(f.kernel, g.kernel, p).data
            assert_relative_close(got, bicontract_by_tensordot(fc, gc, p, 0), 1e-13)


def complex_embedding(f):
    return Kernel(f.grid, f.order, f.data.astype(np.complex128))


@pytest.mark.parametrize("cells", [1, 2, 3])
def test_real_kernels_match_their_complex_embeddings(cells):
    # the float64 route and the complex128 route of the same real kernels
    grid = GridSpec(2.5, cells)
    rng = np.random.default_rng(70 + cells)

    def split_kernel(a, b):
        return SplitKernel(Kernel(grid, a + b, rng.standard_normal((cells,) * (a + b))), (a, b))

    for n1, m1, n2, m2 in product(range(4), repeat=4):
        f, g = split_kernel(n1, m1), split_kernel(n2, m2)
        fc, gc = (SplitKernel(complex_embedding(w.kernel), w.split) for w in (f, g))
        for p in range(min(n1, n2) + 1):
            for r in range(min(m1, m2) + 1):
                want = bicontract(fc, gc, p, r).kernel.data
                got = bicontract(f, g, p, r).kernel.data
                assert got.dtype == np.float64
                assert_relative_close(got, want, 1e-13)
                # a complex operand promotes the real one
                assert_relative_close(bicontract(f, gc, p, r).kernel.data, want, 1e-13)
        for p in range(min(n1 + m1, n2 + m2) + 1):
            got = contract(f.kernel, g.kernel, p).data
            assert got.dtype == np.float64
            assert_relative_close(got, contract(fc.kernel, gc.kernel, p).data, 1e-13)
    f = Kernel(grid, 3, rng.standard_normal((cells,) * 3))
    assert kernel_to_bytes(f) == kernel_to_bytes(complex_embedding(f))
    assert kernel_to_json(f) == kernel_to_json(complex_embedding(f))


def test_internal_results_are_fresh_frozen_c_arrays():
    f3, g3, f1 = rand(3, seed=41), rand(3, seed=42), rand(1, seed=43)
    s3 = SplitKernel(f3, (2, 1))
    cases = [
        (contract(f3, g3, 1), 4, (f3, g3)),
        (contract(f3, g3, 3), 0, (f3, g3)),
        (bicontract(s3, SplitKernel(g3, (1, 2)), 1, 1).kernel, 2, (f3, g3)),
        (bicontract(s3, SplitKernel(g3, (2, 1)), 0, 0).kernel, 6, (f3, g3)),
        (adjoint(f3), 3, (f3,)),
        (adjoint_split(s3).kernel, 3, (f3,)),
        (slice_kernel(f3, 2, 1).kernel, 2, (f3,)),
        (slice_kernel(f1, 1, 2).kernel, 0, (f1,)),
        (f3 + g3, 3, (f3, g3)),
        (-f3, 3, (f3,)),
        (2.0 * f3, 3, (f3,)),
        (ChaosElement(GRID, {3: f3}) + ChaosElement(GRID, {3: g3}), 3, (f3, g3)),
    ]
    for i, (out, order, inputs) in enumerate(cases):
        if isinstance(out, ChaosElement):
            out = out.coeffs[order]
        data = out.data
        assert out.order == order and data.shape == (3,) * order, i
        assert data.dtype == np.complex128 and data.flags.c_contiguous, i
        assert not data.flags.writeable, i
        assert not any(np.shares_memory(data, k.data) for k in inputs), i


def test_overflowing_contractions_are_refused():
    big = Kernel(GRID, 2, np.full((3, 3), 1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="kernel entries must be finite"):
            contract(big, big, 1)
        with pytest.raises(ValueError, match="kernel entries must be finite"):
            bicontract(SplitKernel(big, (1, 1)), SplitKernel(big, (1, 1)), 1, 0)


def test_memory_cap_fires_before_any_contraction_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("over-cap contraction was started")

    monkeypatch.setattr(grid_kernel_module, "_bicontract_array", forbidden)
    f = zero_kernel(GridSpec(1.0, 2**7), 2)  # 2^14 entries; 2^28 in order 4
    tracemalloc.start()
    try:
        with pytest.raises(MemoryCapError):
            contract(f, f, 0)
        with pytest.raises(MemoryCapError):
            bicontract(SplitKernel(f, (1, 1)), SplitKernel(f, (1, 1)), 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < f.data.nbytes


def test_cell_indicator_refuses_over_cap_before_allocating(monkeypatch):
    # 2**18 cells exceed a cap of 2**16: refused before the 2 MiB array
    monkeypatch.setattr(grid_kernel_module, "MAX_ENTRIES", 2**16)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryCapError):
            cell_indicator(GridSpec(1.0, 2**18), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_adjoint_split_reverses_within_blocks():
    w = SplitKernel(rand(3, seed=23), (2, 1))
    ws = adjoint_split(w)
    assert ws.split == (2, 1)
    expected = np.conj(np.transpose(w.kernel.data, (1, 0, 2)))
    assert np.array_equal(ws.kernel.data, expected)
    assert kernels_close(adjoint_split(ws).kernel, w.kernel)


def test_slice_kernel():
    f = rand(3, seed=24)
    w = slice_kernel(f, 2, 1)
    assert w.split == (1, 1)
    assert np.array_equal(w.kernel.data, f.data[:, 1, :])
    assert slice_kernel(f, 1, 0).split == (0, 2)
    assert slice_kernel(f, 3, 2).split == (2, 0)
    with pytest.raises(ValueError):
        slice_kernel(f, 0, 1)
    with pytest.raises(ValueError):
        slice_kernel(f, 4, 1)
    with pytest.raises(ValueError):
        slice_kernel(f, 1, 3)
    for k, s in ((1, 1.0), (True, 0), (1, True), (1.0, 0)):
        with pytest.raises(ValueError):
            slice_kernel(f, k, s)


def test_max_abs_diff_and_close():
    f = rand(2, seed=25)
    assert max_abs_diff(f, f) == 0.0
    assert kernels_close(f, f)
    h = f + 1e-3 * rand(2, seed=26)
    assert not kernels_close(f, h)
    assert max_abs_diff(f, h) == pytest.approx(1e-3 * np.abs(rand(2, seed=26).data).max())
    # order 0 takes the same path on 0-d arrays
    assert max_abs_diff(constant_kernel(GRID, 1.5), constant_kernel(GRID, -0.25)) == 1.75
    assert max_abs_diff(Kernel(GRID, 0, 3 + 1j), Kernel(GRID, 0, 1j)) == 3.0


@pytest.mark.parametrize("T", [1e-8, 1.0, 1e8, 1e14])
def test_kernels_close_is_scale_invariant(T):
    # unit kernels on a grid of length T have entries of size about 1/T
    grid = GridSpec(T, 3)
    data = [rand(2, seed=seed).data.copy() for seed in (50, 51)]
    data[0][0, 0] = 0.0
    f, g = (Kernel(grid, 2, d) / norm(Kernel(grid, 2, d)) for d in data)
    assert not kernels_close(f, g)
    # a deviation of 1e-13 * max|f| where f vanishes passes only through
    # atol, which must scale with the kernels
    bump = np.zeros((3, 3))
    bump[0, 0] = 1e-13 * np.max(np.abs(f.data))
    assert kernels_close(f, f + Kernel(grid, 2, bump))
    assert not kernels_close(f, f + Kernel(grid, 2, 1e4 * bump))


def test_binary_roundtrip_bit_exact():
    f = rand(4, seed=27)
    buf = kernel_to_bytes(f)
    g = kernel_from_bytes(buf)
    assert g.order == f.order
    assert g.grid == f.grid
    assert np.array_equal(g.data, f.data)
    # bit-exact: serializing again yields identical bytes
    assert kernel_to_bytes(g) == buf


def test_binary_rejects_corrupt_input():
    buf = kernel_to_bytes(rand(2, seed=28))
    with pytest.raises(ValueError):
        kernel_from_bytes(b"XXXX" + buf[4:])
    with pytest.raises(ValueError):
        kernel_from_bytes(buf[:-8])
    with pytest.raises(ValueError, match="^unsupported record version 2$"):
        kernel_from_bytes(buf[:4] + struct.pack("<H", 2) + buf[6:])


def test_binary_rejects_huge_order_header_before_allocating():
    # cells**order for the first header is an integer of 2**62 bits, and one
    # cell with 2**62 axes would need a shape tuple as long: both must be
    # refused from the header alone
    for cells, order in ((2, 2**62), (3, 27), (2**40, 1), (1, 2**62)):
        buf = struct.pack("<4sHdQQ", b"WGKR", 1, 1.0, cells, order) + bytes(16)
        with pytest.raises(MemoryCapError):
            kernel_from_bytes(buf)


def test_binary_rejects_truncated_oversized_and_nonfinite_records():
    buf = kernel_to_bytes(rand(3, cells=2, seed=31))
    header = struct.calcsize("<4sHdQQ")
    bad = [buf[:cut] for cut in range(len(buf))]  # every truncation
    bad.append(buf + bytes(16))  # one entry too many
    for total_length in (math.nan, math.inf, -1.0, 0.0):
        bad.append(struct.pack("<4sHdQQ", b"WGKR", 1, total_length, 2, 3) + buf[header:])
    for entry in (math.nan, math.inf):
        payload = bytearray(buf)
        payload[header + 16 : header + 24] = struct.pack("<d", entry)
        bad.append(bytes(payload))
    for record in bad:
        with pytest.raises(ValueError):
            kernel_from_bytes(record)


def test_json_rejects_malformed_records():
    good = kernel_to_json(rand(2, cells=2, seed=32))
    bad = [{k: v for k, v in good.items() if k != key} for key in good]
    numbered = dict(enumerate(good["re"]))  # numeric keys of the right count
    for key, values in {
        "order": ("2", 2.0, True, None, -1),
        "cells": ("2", 2.0, True, None, 0),
        "total_length": ("1", None, math.nan, math.inf, 0.0, True),
        "re": (good["re"][:-1], good["re"] + [0.0], [[0.0]], "x", {"a": 1}, numbered),
        "im": (good["im"][:1], good["im"] + [0.0], None, numbered),
    }.items():
        bad += [{**good, key: value} for value in values]
    for key in ("re", "im"):
        for entry in (math.nan, math.inf):
            bad.append({**good, key: [entry] + good[key][1:]})
    bad.append(json.loads(json.dumps({**good, "re": [math.nan] * 4})))
    bad += [[], None, "record"]
    for record in bad:
        with pytest.raises(ValueError):
            kernel_from_json(record)


@pytest.mark.parametrize("key", ["re", "im"])
@pytest.mark.parametrize(
    "entries",
    [
        lambda values: [str(v) for v in values],  # a forced float64 read "1.5"
        lambda values: [v > 0 for v in values],
        lambda values: [[v] for v in values],  # nested, of the right size
        lambda values: values[:-1] + [True],  # a forced float64 read 1.0
        lambda values: values[:-1] + [np.bool_(False)],
    ],
    ids=["strings", "bools", "nested", "one_bool", "one_numpy_bool"],
)
def test_json_rejects_entries_that_are_not_a_flat_list_of_numbers(key, entries):
    good = kernel_to_json(rand(2, cells=2, seed=32))
    with pytest.raises(ValueError, match=f"^{key} must be a flat list of numbers"):
        kernel_from_json({**good, key: entries(good[key])})


def _hostile_record():
    # order 10 on 2 cells: 1024 entries, one of them 10,000 characters long,
    # which an inferred dtype sizes every entry by (a 39 MiB array)
    return {
        "total_length": 1.0,
        "cells": 2,
        "order": 10,
        "re": ["x" * 10_000] + ["1"] * 1023,
        "im": [0.0] * 1024,
    }


@pytest.mark.parametrize(
    "read, key",
    [(kernel_from_json, None), (chaos_from_json, "10"), (bichaos_from_json, "5,5")],
    ids=["kernel", "chaos", "bichaos"],
)
def test_json_refuses_text_entries_before_any_array(read, key):
    # directly, and as the one kernel of an element record
    record = _hostile_record()
    if key is not None:
        record = {"total_length": 1.0, "cells": 2, "kernels": {key: record}}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^re must be a flat list of numbers"):
            read(record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_json_reads_an_integer_beyond_int64_and_refuses_one_beyond_float64():
    record = {"total_length": 1.0, "cells": 2, "order": 1, "re": [2**64, 0], "im": [0, 0]}
    assert kernel_from_json(record).data[0] == 1.8446744073709552e19
    for key in ("re", "im"):
        with pytest.raises(ValueError, match="int too large to convert to float"):
            kernel_from_json({**record, key: [10**400, 0]})


def test_json_reads_integer_entries():
    record = {"total_length": 1.0, "cells": 2, "order": 1, "re": [1, -2], "im": [0, 3]}
    assert np.array_equal(kernel_from_json(record).data, [1.0, -2.0 + 3.0j])


def test_json_rejects_huge_order_before_allocating():
    for cells, order in ((2, 2**62), (10**30, 2), (1, 2**62)):
        doc = {
            "total_length": 1.0,
            "cells": cells,
            "order": order,
            "re": [0.0],
            "im": [0.0],
        }
        with pytest.raises(MemoryCapError):
            kernel_from_json(doc)


def test_json_refuses_a_wrong_length_before_reading_the_entries():
    # the lists used to be converted first: a record of 2 cells, order 1
    # and 2**18 entries made two 2 MiB arrays before its length was refused
    entries = [0.0] * 2**18
    message = r"^re and im have \d+ and \d+ entries, expected 2 for order 1 on 2 cells$"
    for re, im in ((entries, entries), ([0.0, 0.0], entries), (entries, [0.0, 0.0])):
        record = {"total_length": 1.0, "cells": 2, "order": 1, "re": re, "im": im}
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                kernel_from_json(record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak


def test_json_roundtrip():
    f = rand(2, seed=30)
    doc = json.loads(json.dumps(kernel_to_json(f)))
    g = kernel_from_json(doc)
    assert g.grid == f.grid
    assert np.array_equal(g.data, f.data)
