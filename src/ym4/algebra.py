"""Lie algebra / Lie group kernel.

The algebra is described by structure constants c[a,b,c] in an orthonormal
basis, so the inner product of coefficient vectors is the plain Euclidean dot
product and bi-invariance is equivalent to total antisymmetry of c.

The default group is su(2) with basis e_a = -i sigma_a / 2, for which
[e_a, e_b] = eps_{abc} e_c and group elements are unit quaternions.
Fields are coefficient arrays with the algebra index last; the kernels
below act pointwise on any leading shape.

The su(2) bracket runs over blocks of _BLOCK_SITES sites: its nine ufunc
calls finish one block, whose operands stay in cache, before the next
starts, and bracket_arr(..., acc=) adds each block into an accumulator
with no full-size bracket temporary.  run_blocks spreads the blocks of a
large enough call over one thread per usable CPU; numpy releases the
interpreter lock inside each ufunc call, so the blocks run in parallel.
A field too small for that has its components spread instead:
run_components hands the six pairs of a curvature, or the four rows of a
tension, to the same threads.  A block's, or a component's, elements are
written by one thread only and see the same operations in the same order
whichever thread runs it, so the result depends neither on the block size
nor on the thread count or the order in which the work items finish.

Both share one pool and one rule: threads split at one level only.  A
work item runs every call nested in it on its own thread, so a pool thread
never submits to the pool or waits on it, and no call can deadlock.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Optional

import numpy as np

# sites per block of the blocked kernels (the su(2) bracket here, the flat
# stencil pass in grid): 16384 sites of 3 float64 coefficients are 384 KiB
# per operand, so a block's operands and temporaries fit a 2 MiB L2 cache;
# a whole n = 24 field (8 MB per component) does not
_BLOCK_SITES = 16384

# threads that run the blocks of one kernel call, or the components of one
# field (run_components): the caller plus
# _WORKERS - 1 pool threads, one per usable CPU
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
# a thread joins a call only for each this many blocks' worth of sites the
# call covers: handing work to a pool thread costs about as much as a block
# on a small host, so an n = 16 field (4 blocks) ran slower on two threads
# and an n = 20 field (10 blocks) faster
_BLOCKS_PER_THREAD = 4
# run_components splits a field's components over threads when one
# component covers at least this many blocks but too few for run_blocks to
# split its kernels (n = 14 to 18 at the real block size): a component
# there is long enough to pay for the hand-over, which an n = 8 one is not
# (a tension took 6.5-7.0 ms on two threads against 3.9-5.5 ms on one, on
# a 2-CPU host), and an n = 12 one gained nothing end to end
_SPLIT_MIN_BLOCKS = 2
_pool: Optional[ThreadPoolExecutor] = None
# .busy: this thread runs a work item, so calls nested in it stay on it
_item = threading.local()

# largest entry of the antisymmetry and Jacobi defects LieGroupSpec accepts
SPEC_TOL = 1e-12


def _drop_pool() -> None:
    # a forked child has none of the parent's pool threads; a pool carried
    # over would queue work that never runs
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def run_blocks(n_blocks: int, work: Callable[[Iterator[int]], None], sites: int) -> None:
    """Run work(blocks) on the calling thread and on pool threads, all
    drawing from one iterator over range(n_blocks), so each block index is
    handled exactly once, by whichever thread is free (next on a range
    iterator is atomic under the interpreter lock).  The call covers sites
    sites; it runs on one thread per _BLOCKS_PER_THREAD * _BLOCK_SITES of
    them, but on no more threads than _WORKERS or n_blocks.  work must
    write disjoint elements for different indices; the calls it makes run
    on its own thread (the one-level rule).  Returns, or re-raises the
    first error, only after every call has returned, so no thread writes
    into an output after the kernel has."""
    _run(n_blocks, work, min(_WORKERS, n_blocks, sites // (_BLOCKS_PER_THREAD * _BLOCK_SITES)))


def run_components(n_items: int, work: Callable[[Iterator[int]], None], sites: int) -> None:
    """work(items) over the n_items components of a field, each of sites
    sites.  A component of _SPLIT_MIN_BLOCKS blocks or more, but of fewer
    than the 2 * _BLOCKS_PER_THREAD that let run_blocks split a kernel on
    it, is a work item as a block is in run_blocks: the components are
    spread over up to _WORKERS threads, and the kernels each one calls run
    on its thread (with n_items = 1, all on the calling thread).  Otherwise
    work runs as a plain loop, and its kernels split by blocks as they may."""
    if _SPLIT_MIN_BLOCKS * _BLOCK_SITES <= sites < 2 * _BLOCKS_PER_THREAD * _BLOCK_SITES:
        _run(n_items, work, min(_WORKERS, n_items))
    else:
        work(iter(range(n_items)))


def _run(n_items: int, work: Callable[[Iterator[int]], None], threads: int) -> None:
    """work(items) on threads threads drawing from one iterator over
    range(n_items).  Each is a work item: the calls nested in it run on its
    thread, as does a whole call made from inside another work item."""
    global _pool
    items = iter(range(n_items))
    if getattr(_item, "busy", False):
        work(items)
        return
    if threads < 2:
        _work_item(work, items)
        return
    if _pool is None:
        _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="ym4-blocks")
    futures = [_pool.submit(_work_item, work, items) for _ in range(threads - 1)]
    try:
        _work_item(work, items)
    finally:
        wait(futures)
    for fut in futures:
        fut.result()


def _work_item(work: Callable[[Iterator[int]], None], items: Iterator[int]) -> None:
    _item.busy = True
    try:
        work(items)
    finally:
        _item.busy = False


class AlgebraError(ValueError):
    """Raised for invalid structure constants or a malformed spec file."""


def _su2_structure_constants() -> np.ndarray:
    c = np.zeros((3, 3, 3))
    for a, b, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[a, b, k] = 1.0
        c[b, a, k] = -1.0
    return c


@dataclass(frozen=True)
class LieGroupSpec:
    """Structure constants of a compact Lie algebra in an orthonormal basis."""

    name: str
    dim: int
    structure_constants: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.structure_constants, dtype=float)
        if c.shape != (self.dim, self.dim, self.dim):
            raise AlgebraError(
                f"structure constants must be ({self.dim},)*3, got {c.shape}"
            )
        object.__setattr__(self, "structure_constants", c)
        self.validate()

    def validate(self) -> None:
        c = self.structure_constants
        if np.max(np.abs(c + np.swapaxes(c, 0, 1))) > SPEC_TOL:
            raise AlgebraError("structure constants not antisymmetric in (a,b)")
        # total antisymmetry <=> bi-invariance of the Euclidean inner product
        if np.max(np.abs(c + np.swapaxes(c, 1, 2))) > SPEC_TOL:
            raise AlgebraError("structure constants not totally antisymmetric")
        if self.jacobi_residual() > SPEC_TOL:
            raise AlgebraError("Jacobi identity violated")

    @cached_property
    def is_su2(self) -> bool:
        return self.dim == 3 and np.allclose(
            self.structure_constants, _su2_structure_constants()
        )

    def jacobi_residual(self) -> float:
        """Max of sum_m c[a,b,m] c[m,k,l] + cyclic in (a,b,k); 0 for a Lie algebra."""
        c = self.structure_constants
        j = (
            np.einsum("abm,mkl->abkl", c, c)
            + np.einsum("bkm,mal->abkl", c, c)
            + np.einsum("kam,mbl->abkl", c, c)
        )
        return float(np.max(np.abs(j)))


def su2() -> LieGroupSpec:
    """The shipped default: su(2) with e_a = -i sigma_a / 2."""
    return LieGroupSpec("su2", 3, _su2_structure_constants())


def abelian() -> LieGroupSpec:
    """All-zero brackets in three dimensions; the linear (Maxwell-type)
    contrast group."""
    return LieGroupSpec("abelian3", 3, np.zeros((3, 3, 3)))


def load_spec(path) -> LieGroupSpec:
    """Load a group spec from a key-value text file.

    Expected keys: ``name``, ``dim`` and ``c`` (flat, row-major list of
    dim^3 floats, whitespace- or comma-separated, may span multiple
    continuation lines that start with whitespace).
    """
    entries = {}
    key = None
    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if line[0].isspace() and key is not None:
                entries[key] += " " + line.strip()
                continue
            if "=" not in line:
                raise AlgebraError(f"malformed line in group spec: {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            entries[key] = val.strip()
    for req in ("name", "dim", "c"):
        if req not in entries:
            raise AlgebraError(f"group spec missing key {req!r}")
    dim = int(entries["dim"])
    flat = [float(tok) for tok in entries["c"].replace(",", " ").split()]
    if len(flat) != dim**3:
        raise AlgebraError(f"expected {dim**3} structure constants, got {len(flat)}")
    c = np.array(flat).reshape(dim, dim, dim)
    return LieGroupSpec(entries["name"], dim, c)


# -- quaternion kernels (vectorized; leading axes arbitrary) -----------------


def quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product; quaternion components on the last axis."""
    pw, px, py, pz = (p[..., i] for i in range(4))
    qw, qx, qy, qz = (q[..., i] for i in range(4))
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        ],
        axis=-1,
    )


def quat_conj(q: np.ndarray) -> np.ndarray:
    out = q.copy()
    out[..., 1:] *= -1.0
    return out


def quat_normalize(q: np.ndarray) -> np.ndarray:
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_exp(coeffs: np.ndarray) -> np.ndarray:
    """exp of the algebra element with the given su(2) coefficients.

    e_a corresponds to the quaternion (i, j, k)_a / 2, so exp(c . e) is the
    unit quaternion (cos(|c|/2), sin(|c|/2) c_hat / 1) with vector part
    sin(|c|/2) * c / |c|.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    theta = np.linalg.norm(coeffs, axis=-1, keepdims=True)
    half = 0.5 * theta
    # sin(x)/x, stable at 0
    sinc = np.where(theta > 1e-30, np.sin(half) / np.where(theta > 1e-30, theta, 1.0), 0.5)
    w = np.cos(half)
    return np.concatenate([w, coeffs * sinc], axis=-1)


def quat_rotation_matrix(q: np.ndarray) -> np.ndarray:
    """SO(3) matrix rotating algebra coefficients: Ad(q).

    Output shape ``q.shape[:-1] + (3, 3)``.
    """
    w, x, y, z = (q[..., i] for i in range(4))
    r = np.empty(q.shape[:-1] + (3, 3))
    r[..., 0, 0] = 1 - 2 * (y * y + z * z)
    r[..., 0, 1] = 2 * (x * y - w * z)
    r[..., 0, 2] = 2 * (x * z + w * y)
    r[..., 1, 0] = 2 * (x * y + w * z)
    r[..., 1, 1] = 1 - 2 * (x * x + z * z)
    r[..., 1, 2] = 2 * (y * z - w * x)
    r[..., 2, 0] = 2 * (x * z - w * y)
    r[..., 2, 1] = 2 * (y * z + w * x)
    r[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return r


# -- vectorized algebra on coefficient arrays --------------------------------


def bracket_arr(
    spec: LieGroupSpec, x: np.ndarray, y: np.ndarray, acc: Optional[np.ndarray] = None
) -> np.ndarray:
    """Pointwise bracket of coefficient arrays (algebra axis last); the
    leading axes broadcast.  With acc, [x, y] is added into acc, which is
    returned, and no full-size bracket is built."""
    if spec.is_su2:
        return _cross3(x, y, acc)
    b = np.einsum("...a,...b,abk->...k", x, y, spec.structure_constants)
    if acc is None:
        return b
    acc += b
    return acc


def _cross3(x: np.ndarray, y: np.ndarray, acc: Optional[np.ndarray] = None) -> np.ndarray:
    """np.cross(x, y) of 3-vectors, bit for bit: component k is x_i y_j minus
    x_j y_i, each product rounded, as np.cross computes it, but without its
    copies of both inputs.  The sites run in blocks of _BLOCK_SITES rows,
    spread by run_blocks, so each block's operands stay in cache across the
    nine ufunc calls; with acc, each block's bracket is added into acc (one
    rounding per element, as acc += bracket would)."""
    dtype = np.result_type(x, y)
    if x.shape == y.shape:
        # the common case: nothing to broadcast, so reshape x and y directly
        shape = x.shape
        x2, y2 = x.reshape(-1, 3), y.reshape(-1, 3)
    else:
        shape = np.broadcast_shapes(x.shape, y.shape)
        x2 = np.broadcast_to(x, shape).reshape(-1, 3)
        y2 = np.broadcast_to(y, shape).reshape(-1, 3)
    # the reshapes copy only a broadcast or non-contiguous operand
    out = np.empty(shape, dtype=dtype) if acc is None else acc
    o2 = out.reshape(-1, 3, copy=False)
    step = _BLOCK_SITES
    rows = min(len(o2), step)

    def work(blocks):
        # one temporary (and accumulation buffer) per thread
        tmp = np.empty(rows, dtype=dtype)
        buf = None if acc is None else np.empty((rows, 3), dtype=dtype)
        for b in blocks:
            block = slice(b * step, (b + 1) * step)
            xb, yb, ob = x2[block], y2[block], o2[block]
            tb = tmp[: len(ob)]
            cb = ob if buf is None else buf[: len(ob)]
            for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                np.multiply(xb[:, i], yb[:, j], out=cb[:, k])
                np.multiply(xb[:, j], yb[:, i], out=tb)
                cb[:, k] -= tb
            if buf is not None:
                ob += cb

    run_blocks(-(-len(o2) // step), work, len(o2))
    return out

