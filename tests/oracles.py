"""Reference helpers the unit tests check ym4's kernels against.

They are plain numpy restatements of textbook definitions, kept beside the
tests because no part of ym4 needs them.
"""

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from ym4 import algebra, data, morawetz, spectral
from ym4.gaugefield import GaugeTransformField, covariant_derivative, pair_component
from ym4.workbench import snapshot


def inner_arr(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pointwise inner product of coefficient arrays (algebra axis last)."""
    return np.einsum("...a,...a->...", x, y)


def quat_log_coeffs(q: np.ndarray) -> np.ndarray:
    """Inverse of quat_exp: algebra coefficients of a unit quaternion."""
    q = np.asarray(q, dtype=float)
    w = np.clip(q[..., :1], -1.0, 1.0)
    v = q[..., 1:]
    vn = np.linalg.norm(v, axis=-1, keepdims=True)
    theta = 2.0 * np.arctan2(vn, w)
    scale = np.where(vn > 1e-30, theta / np.where(vn > 1e-30, vn, 1.0), 2.0)
    return v * scale


def radius_about(grid, center) -> np.ndarray:
    """Distance of each site of grid from the point center."""
    r2 = np.zeros(grid.shape)
    for j in range(1, 5):
        r2 += (grid.coordinate_field(j) - center[j - 1]) ** 2
    return np.sqrt(r2)


def identity_transform(grid, spec) -> GaugeTransformField:
    """The gauge transformation equal to the group identity at every site."""
    q = np.zeros(grid.shape + (4,))
    q[..., 0] = 1.0
    return GaugeTransformField(grid, spec, q)


def laplacian(grid, f: np.ndarray) -> np.ndarray:
    """Sum_j partial_j partial_j f with the grid's derivative, summed in
    order j = 1..4 onto zeros."""
    out = np.zeros_like(f)
    for j in range(1, 5):
        out += grid.partial(grid.partial(f, j), j)
    return out


def q_bilinear_oracle(g, spec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Independent physical-space evaluation of spectral.q_bilinear.

    For every pair of source sites (y, z) and output site x, the double
    Fourier sum collapses to translated convolution kernels; here it is
    evaluated mode pair by mode pair with explicit exponentials, no FFTs
    and no rolls, as a cross-check oracle.  O(n^8 d); n <= 6 advised.
    """
    spectral._check_small_grid(g)
    n = g.n
    d = spec.dim
    # explicit DFT
    sites = g.coords1d()
    kap = g.wavenumbers1d()
    phase = np.exp(-1j * np.outer(kap, sites))  # (mode, site)

    def dft4(f):
        out = f.astype(complex)
        for ax in range(4):
            out = np.moveaxis(np.tensordot(phase, out, axes=(1, ax)), 0, ax)
        return out / n**4

    def idft4(fhat):
        out = fhat
        conj = np.conj(phase).T  # (site, mode)
        for ax in range(4):
            out = np.moveaxis(np.tensordot(conj, out, axes=(1, ax)), 0, ax)
        return np.real(out)

    Ahat = np.stack([dft4(A[l]) for l in range(4)])
    Bhat = np.stack([dft4(B[l]) for l in range(4)])
    s2 = -g.laplace_symbol()
    # honest quadruple loop over mode pairs; the activity cut is relative
    # (DFT round-off populates every mode at ~1e-16 of the peak)
    cut_a = 1e-13 * max(float(np.max(np.abs(Ahat))), 1e-300)
    cut_b = 1e-13 * max(float(np.max(np.abs(Bhat))), 1e-300)
    chat = np.zeros(g.shape + (d,), dtype=complex)
    idxs = list(np.ndindex(g.shape))
    for xi in idxs:
        amp_a = Ahat[(slice(None),) + xi]
        if np.max(np.abs(amp_a)) < cut_a:
            continue
        for eta in idxs:
            amp_b = Bhat[(slice(None),) + eta]
            if np.max(np.abs(amp_b)) < cut_b:
                continue
            m = spectral.q_symbol_value(np.asarray(s2[xi]), np.asarray(s2[eta]))
            if m == 0.0:
                continue
            zeta = tuple((xi[i] + eta[i]) % n for i in range(4))
            val = np.zeros(d, dtype=complex)
            for l in range(4):
                val += algebra.bracket_arr(spec, amp_a[l], amp_b[l])
            chat[zeta] += m * val
    return idft4(chat)


def lp_block_sups(F) -> list:
    """spectral.lp_block_sups with each component transformed alone: the
    components are stacked, each is forward-transformed, and each block
    inverse-transforms every component before reading the pointwise norm."""
    g = F.grid
    blocks = spectral.make_blocks(g)
    stack = F.f if F.e is None else np.concatenate([F.f, F.e], axis=0)
    stack_hat = [g.fft(c) for c in stack]
    block = np.empty_like(stack)
    rows = []
    for k in range(blocks.k_min, blocks.k_max + 1):
        w = blocks.window(k)[..., None]
        for c, c_hat in enumerate(stack_hat):
            block[c] = np.real(g.ifft(c_hat * w))
        pointwise = np.sqrt(np.einsum("c...a,c...a->...", block, block))
        rows.append((k, 2.0 ** (-2 * k) * float(np.max(pointwise))))
    return rows


def bpst(grid, center, lam: float, orientation: int) -> np.ndarray:
    """The coefficients of data.bpst built on the full grid: four coordinate
    fields, and one numerator summed onto zeros per (j, b); no input checks."""
    eta = data.thooft_symbols()
    x = [grid.coordinate_field(j) - center[j - 1] for j in range(1, 5)]
    if orientation < 0:
        x[3] = -x[3]
    r2 = sum(c**2 for c in x)
    denom = r2 + lam**2
    a = np.zeros((4,) + grid.shape + (3,))
    for j in range(4):
        for b in range(3):
            num = np.zeros(grid.shape)
            for nu in range(4):
                if eta[b, j, nu] != 0.0:
                    num += eta[b, j, nu] * x[nu]
            a[j, ..., b] = 2.0 * num / denom
    if orientation < 0:
        a[3] = -a[3]
    return a


def band_limited_field(grid, rng, k_band: int, shape_tail, window: bool = True) -> np.ndarray:
    """The full-grid form of data._band_limited_field: the noise outside the
    band is zeroed on the whole grid, which np.fft.ifftn transforms; the
    cosine window is built here, in place of being passed in."""
    n = grid.n
    freqs = np.fft.fftfreq(n, d=1.0 / n)  # integer frequencies
    idx = np.abs(freqs) <= k_band
    noise = rng.normal(size=grid.shape + shape_tail) + 1j * rng.normal(
        size=grid.shape + shape_tail
    )
    sel = np.ones(grid.shape, dtype=bool)
    for j in range(1, 5):
        shape = [1, 1, 1, 1]
        shape[grid.axis(j)] = n
        sel &= np.broadcast_to(idx.reshape(shape), grid.shape)
    sel_f = sel.reshape(grid.shape + (1,) * len(shape_tail))
    fhat = np.where(sel_f, noise, 0.0)
    raw = np.real(np.fft.ifftn(fhat, axes=(0, 1, 2, 3)))
    raw /= np.max(np.abs(raw))
    if not window:
        raw -= raw.mean(axis=(0, 1, 2, 3), keepdims=True)
        return raw
    r = grid.radius()
    r1 = grid.extent / 4.0
    r0 = 0.55 * r1
    prof = np.clip((r - r0) / (r1 - r0), 0.0, 1.0)
    window = np.where(prof >= 1.0, 0.0, np.cos(0.5 * np.pi * prof) ** 2)
    window = window.reshape(grid.shape + (1,) * len(shape_tail))
    c = np.sum(window * raw, axis=(0, 1, 2, 3), keepdims=True) / np.sum(window)
    return window * (raw - c)


def linearized_rhs(B: np.ndarray, a_s, F_s) -> np.ndarray:
    """tangent.linearized_rhs with each D_j B_k - D_k B_j built where it is
    used, twice per pair."""
    out = np.zeros_like(B)
    for k in range(1, 5):
        acc = out[k - 1]
        for j in range(1, 5):
            if j == k:
                continue
            acc += algebra.bracket_arr(a_s.spec, B[j - 1], pair_component(F_s.f, j, k))
            g_jk = covariant_derivative(a_s, B[k - 1], j) - covariant_derivative(
                a_s, B[j - 1], k
            )
            acc += covariant_derivative(a_s, g_jk, j)
    return out


def write_snapshot_whole(path, arr, grid, spec, kind: int, time: float = 0.0) -> None:
    """snapshot.write_snapshot with the payload built in one piece: the form
    index moved inside the spatial indices by one moveaxis copy, written and
    checksummed whole."""
    comps = arr.shape[0]
    head = snapshot._HEADER.pack(
        snapshot.MAGIC, snapshot.VERSION, snapshot.group_id(spec), grid.n, grid.h, kind, comps, time
    )
    payload = np.ascontiguousarray(np.moveaxis(arr, 0, 4), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(struct.pack("<I", zlib.crc32(head) & 0xFFFFFFFF))
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


@dataclass
class NullFrame:
    """Per-site radial direction, tangential triad, and validity mask."""

    nhat: np.ndarray  # (4, ...)
    tangent: np.ndarray  # (3, 4, ...)
    mask: np.ndarray  # (...) bool, True where r >= 2h


def null_frame(x: np.ndarray, h: float) -> NullFrame:
    """Null frame at sites with coordinates x (4, ...) relative to the center.

    The tangential triad comes from Gram-Schmidt on the coordinate axes
    with the axis of largest |nhat| component dropped; sites with r < 2h
    are masked out.
    """
    r = np.sqrt(np.einsum("j...,j...->...", x, x))
    mask = r >= 2.0 * h - 1e-12
    nhat = x / np.where(r > 0.0, r, 1.0)

    drop = np.argmax(np.abs(nhat), axis=0)
    tangent = np.zeros((3,) + x.shape)
    for m in range(4):
        sel = drop == m
        if not np.any(sel):
            continue
        axes = [ax for ax in range(4) if ax != m]
        prev = [nhat[:, sel]]  # list of (4, nsel) unit vectors
        for slot, ax in enumerate(axes):
            v = np.zeros((4, int(sel.sum())))
            v[ax] = 1.0
            for u in prev:
                v -= np.einsum("js,js->s", u, v) * u
            v /= np.sqrt(np.einsum("js,js->s", v, v))
            prev.append(v)
            tangent[slot, :, sel] = v.T
    return NullFrame(nhat, tangent, mask)


def null_components(e: np.ndarray, f: np.ndarray, frame: NullFrame):
    """(alpha, alphabar, varrho, sigma) of (e, f) in the frame, unmasked."""
    b = morawetz._contract(frame.nhat, f)  # b_k = nhat^j f_{jk}
    alpha = np.einsum("ak...,k...c->a...c", frame.tangent, e + b)
    alphabar = np.einsum("ak...,k...c->a...c", frame.tangent, e - b)
    varrho = -np.einsum("k...,k...c->...c", frame.nhat, e)
    # sigma_ab = f_{jk} e_a^j e_b^k for tangent pairs (1,2), (1,3), (2,3)
    f_on_tangent = [morawetz._contract(frame.tangent[a], f) for a in range(2)]
    sigma = np.stack(
        [
            np.einsum("k...,k...c->...c", frame.tangent[b], f_on_tangent[a])
            for a, b in ((0, 1), (0, 2), (1, 2))
        ]
    )
    return alpha, alphabar, varrho, sigma
