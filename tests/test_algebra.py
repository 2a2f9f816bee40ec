"""Unit tests for the Lie algebra / group kernel."""

import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from ym4 import algebra
from ym4.algebra import (
    AlgebraError,
    LieGroupSpec,
    bracket_arr,
    quat_exp,
    quat_mul,
    quat_rotation_matrix,
)
from ym4.grid import Grid4

from oracles import inner_arr, quat_log_coeffs

SU2 = algebra.su2()
AB = algebra.abelian()
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def test_su2_structure_constants_shiped_properties():
    c = SU2.structure_constants
    assert np.max(np.abs(c + np.swapaxes(c, 0, 1))) == 0.0
    assert np.max(np.abs(c + np.swapaxes(c, 1, 2))) == 0.0
    assert SU2.jacobi_residual() <= 1e-14
    assert SU2.is_su2


def test_bad_structure_constants_rejected():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # not antisymmetric in (a, b)
    with pytest.raises(AlgebraError):
        LieGroupSpec("bad", 3, c)
    with pytest.raises(AlgebraError):
        LieGroupSpec("badshape", 3, np.zeros((2, 2, 2)))


def test_non_jacobi_table_rejected():
    # antisymmetric in all indices but scaled inconsistently across triples
    # of a 4-dimensional table: break Jacobi while keeping antisymmetry
    c = np.zeros((7, 7, 7))
    for (a, b, k), s in (((0, 1, 2), 1.0), ((2, 3, 4), 1.0), ((4, 5, 0), 1.0)):
        for i, j, l in ((a, b, k), (b, k, a), (k, a, b)):
            c[i, j, l] = s
            c[j, i, l] = -s
    with pytest.raises(AlgebraError):
        LieGroupSpec("nonjacobi", 7, c)


def test_bracket_su2_basis():
    e1, e2, e3 = np.eye(3)
    assert np.allclose(bracket_arr(SU2, e1, e2), e3)
    x = np.array([0.3, -1.2, 0.7])
    assert np.allclose(bracket_arr(SU2, x, x), 0.0)


def test_bracket_invariance_random_triples():
    rng = np.random.default_rng(1)
    x, y, z = rng.normal(size=(3, 1000, 3))
    lhs = inner_arr(bracket_arr(SU2, x, y), z)
    rhs = inner_arr(x, bracket_arr(SU2, y, z))
    assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_inner_orthonormal_and_antisymmetry():
    assert np.array_equal(inner_arr(np.eye(3), np.eye(3)), np.ones(3))
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(2, 50, 3))
    assert np.max(np.abs(inner_arr(x, bracket_arr(SU2, x, y)))) <= 1e-14


def _quat_to_su2_matrix(q):
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return q[0] * np.eye(2) - 1j * (q[1] * sx + q[2] * sy + q[3] * sz)


def test_exp_matches_matrix_series_oracle():
    # exp(theta e_3) against the 30-term series of exp(-i theta sigma_3 / 2)
    theta = np.pi / 2
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    m = -1j * theta * sz / 2.0
    series = np.zeros((2, 2), dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(30):
        series += term
        term = term @ m / (k + 1)
    got = _quat_to_su2_matrix(quat_exp(np.array([0.0, 0.0, theta])))
    assert np.max(np.abs(got - series)) <= 1e-12


def test_exp_identity_and_inverse():
    assert np.allclose(quat_exp(np.zeros(3)), IDENTITY)
    x = np.array([0.4, -0.2, 0.9])
    prod = quat_mul(quat_exp(x), quat_exp(-x))
    assert np.max(np.abs(prod - IDENTITY)) <= 1e-12


def test_exp_one_parameter_subgroup():
    x = np.array([0.0, 0.7, 0.0])
    two = quat_exp(2.0 * x)
    assert np.max(np.abs(quat_mul(quat_exp(x), quat_exp(x)) - two)) <= 1e-12


def ad(q, x):
    """Ad(q) X on coefficient vectors."""
    return quat_rotation_matrix(q) @ x


def test_adjoint_identity_norm_and_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=3)
    assert np.allclose(ad(IDENTITY, x), x)
    o = quat_exp(rng.normal(size=3))
    assert abs(np.linalg.norm(ad(o, x)) - np.linalg.norm(x)) <= 1e-12
    y = rng.normal(size=3)
    assert abs(inner_arr(ad(o, x), ad(o, y)) - inner_arr(x, y)) <= 1e-12


def test_adjoint_homomorphism():
    rng = np.random.default_rng(4)
    x = rng.normal(size=3)
    o1 = quat_exp(rng.normal(size=3))
    o2 = quat_exp(rng.normal(size=3))
    lhs = ad(quat_mul(o1, o2), x)
    rhs = ad(o1, ad(o2, x))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_adjoint_derivative_is_bracket():
    # Ad(exp(tY))X = X + t[Y,X] + O(t^2): the residual must drop 4x per halving
    rng = np.random.default_rng(5)
    x = rng.normal(size=3)
    y = rng.normal(size=3)
    errs = []
    for t in (1e-2, 5e-3):
        got = ad(quat_exp(t * y), x)
        lin = x + t * bracket_arr(SU2, y, x)
        errs.append(np.linalg.norm(got - lin))
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.0


def test_abelian_brackets_vanish():
    rng = np.random.default_rng(6)
    x, y = rng.normal(size=(2, 10, 3))
    assert np.allclose(bracket_arr(AB, x, y), 0.0)


def test_group_value_renormalization():
    # su(2) group values live in quaternion fields; a drifted field is
    # restored to the group site by site
    g = Grid4(8, 0.5)
    q = np.zeros(g.shape + (4,))
    q[..., 0] = 1.0
    q[..., 1] = 1e-4

    def unitarity_residual(q):
        return float(np.max(np.abs(np.sum(q**2, axis=-1) - 1.0)))

    assert unitarity_residual(q) > 1e-9
    assert unitarity_residual(algebra.quat_normalize(q)) <= 1e-14


def test_load_spec_roundtrip(tmp_path):
    path = tmp_path / "su2.spec"
    c = SU2.structure_constants
    flat = " ".join(str(v) for v in c.ravel())
    path.write_text(f"name = su2file\ndim = 3\nc = {flat}\n")
    spec = algebra.load_spec(path)
    assert spec.dim == 3
    assert spec.is_su2


def test_load_spec_malformed(tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text("name = x\ndim = 3\n")
    with pytest.raises(AlgebraError):
        algebra.load_spec(path)


def test_quat_kernels_roundtrip():
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=(10, 3))
    q = algebra.quat_exp(coeffs)
    assert np.max(np.abs(np.linalg.norm(q, axis=-1) - 1.0)) <= 1e-12
    back = quat_log_coeffs(q)
    assert np.max(np.abs(back - coeffs)) <= 1e-10
    r = algebra.quat_rotation_matrix(q)
    eye = np.einsum("...ij,...kj->...ik", r, r)
    assert np.max(np.abs(eye - np.eye(3))) <= 1e-12


def test_bracket_arr_matches_structure_constants():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 3))
    y = rng.normal(size=(5, 3))
    via_cross = algebra.bracket_arr(SU2, x, y)
    via_table = np.einsum("...a,...b,abk->...k", x, y, SU2.structure_constants)
    assert np.max(np.abs(via_cross - via_table)) <= 1e-13


# -- run_blocks and run_components: the threads of the kernels ----------------


@pytest.fixture
def workers(monkeypatch):
    """Sets the kernel thread count; the next kernel call builds a fresh
    pool of that size."""

    def use(n):
        monkeypatch.setattr(algebra, "_WORKERS", n)
        monkeypatch.setattr(algebra, "_pool", None)

    return use


# threads that run work, by thread count and number of full blocks: one
# for each _BLOCKS_PER_THREAD = 4 blocks, at least one, up to the count
THREADS_USED = {1: {0: 1, 1: 1, 2: 1, 7: 1, 8: 1, 50: 1}, 3: {0: 1, 1: 1, 2: 1, 7: 1, 8: 2, 50: 3}}


@pytest.mark.parametrize("n_workers", [1, 3])
@pytest.mark.parametrize("n_blocks", [0, 1, 2, 7, 8, 50])
def test_run_blocks_runs_every_block_exactly_once(workers, n_workers, n_blocks):
    workers(n_workers)
    seen, calls = [], []

    def work(blocks):
        calls.append(None)
        for b in blocks:
            time.sleep(0.0005)  # the other threads draw meanwhile
            seen.append(b)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        algebra.run_blocks(n_blocks, work, n_blocks * algebra._BLOCK_SITES)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(seen) == list(range(n_blocks))
    assert len(calls) == THREADS_USED[n_workers][n_blocks]


def test_run_blocks_runs_no_more_threads_than_blocks(workers):
    # two large work items, such as the two open faces of a big field
    workers(3)
    calls = []
    algebra.run_blocks(2, lambda blocks: calls.append(list(blocks)), 50 * algebra._BLOCK_SITES)
    assert len(calls) == 2 and sorted(sum(calls, [])) == [0, 1]


def test_run_blocks_runs_on_the_caller_and_the_pool_at_once(workers):
    workers(3)
    # each thread holds its first block until all three hold one, which
    # times out unless three threads run work at the same time
    barrier = threading.Barrier(3, timeout=30)
    ran = {}

    def work(blocks):
        for i, b in enumerate(blocks):
            if i == 0:
                barrier.wait()
            ran[b] = threading.current_thread()

    algebra.run_blocks(50, work, 50 * algebra._BLOCK_SITES)
    assert sorted(ran) == list(range(50))
    assert len(set(ran.values())) == 3 and threading.current_thread() in ran.values()


@pytest.mark.parametrize("raiser", ["caller", "pool"])
def test_run_blocks_raises_only_after_every_call_returns(workers, raiser):
    workers(3)
    caller, lock = threading.current_thread(), threading.Lock()
    raised, returned = [], []

    def work(blocks):
        with lock:
            first = not any(raised) and (threading.current_thread() is caller) == (
                raiser == "caller"
            )
            raised.append(first)
        if first:
            raise RuntimeError("block failed")
        time.sleep(0.2)
        returned.append(None)

    with pytest.raises(RuntimeError, match="block failed"):
        algebra.run_blocks(50, work, 50 * algebra._BLOCK_SITES)
    assert len(returned) == 2


# threads that run a field's components, by the sites of one component in
# blocks: split only from 2 blocks up to the 8 at which run_blocks splits
@pytest.mark.parametrize("blocks, threads", [(1, 1), (2, 3), (7.9, 3), (8, 1), (50, 1)])
def test_run_components_splits_only_fields_too_small_for_blocks(workers, blocks, threads):
    workers(3)
    seen, calls = [], []

    def work(items):
        calls.append(None)
        seen.extend(items)

    algebra.run_components(4, work, int(blocks * algebra._BLOCK_SITES))
    assert sorted(seen) == [0, 1, 2, 3] and len(calls) == threads


def test_a_split_work_item_runs_its_nested_calls_on_its_own_thread(workers, monkeypatch):
    workers(3)
    submitters, lock = [], threading.Lock()
    pool_class = algebra.ThreadPoolExecutor

    class RecordingPool(pool_class):
        def submit(self, fn, *args, **kwargs):
            submitters.append(threading.current_thread())
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(algebra, "ThreadPoolExecutor", RecordingPool)
    # each item holds until all three threads hold one, so every thread
    # runs an item, and each nested call is large enough to split by blocks
    barrier = threading.Barrier(3, timeout=30)
    nested = {}

    def work(items):
        outer = threading.current_thread()
        for i, item in enumerate(items):
            if i == 0:
                barrier.wait()
            ran = set()

            def inner(blocks):
                with lock:
                    ran.add(threading.current_thread())
                for _ in blocks:
                    pass

            algebra.run_blocks(50, inner, 50 * algebra._BLOCK_SITES)
            nested[item] = (outer, ran)

    # a nested call that waited on the pool from a pool thread could wait
    # forever, so the call runs on a thread that is given a time limit
    caller = threading.Thread(
        target=algebra.run_components, args=(6, work, 2 * algebra._BLOCK_SITES), daemon=True
    )
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert sorted(nested) == list(range(6))
    assert all(ran == {outer} for outer, ran in nested.values())
    assert len({outer for outer, _ in nested.values()}) == 3
    assert submitters == [caller] * 2
    # outside a work item the same call splits by blocks again
    algebra.run_blocks(50, lambda blocks: list(blocks), 50 * algebra._BLOCK_SITES)
    assert submitters[2:] == [threading.current_thread()] * 2


def _bracket_at_n24():
    x = np.random.default_rng(0).standard_normal((24,) * 4 + (3,))
    algebra.bracket_arr(SU2, x, x)


def test_a_forked_child_runs_the_blocked_kernels(workers):
    workers(3)
    _bracket_at_n24()
    assert algebra._pool is not None
    child = multiprocessing.get_context("fork").Process(target=_bracket_at_n24)
    child.start()
    child.join(timeout=60)
    try:
        assert not child.is_alive() and child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
