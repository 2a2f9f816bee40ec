"""Periodic 4D grid infrastructure.

Fields are plain numpy arrays with spatial shape (n, n, n, n), stored
site-major with x4 slowest and x1 fastest; coordinate axis j (1..4) lives on
numpy axis 4 - j.  Lie-algebra-valued fields append the algebra index as a
trailing axis.  Coordinates run over [-L/2, L/2) with L = n*h.

Derivative backends:
  - "stencil4": fourth-order central differences (default).  The central
    formula (8 (f[+1] - f[-1]) - (f[+2] - f[-2])) / (12 h) runs over the
    flat array, where a shift of one plane along any axis is a contiguous
    slice, into one output buffer; only the two planes at each face are
    then recomputed, wrapped (periodic) or one-sided (open).  The flat pass
    runs in blocks of algebra._BLOCK_SITES sites, so a block's four shifted
    operands, its temporary and its output stay in cache across the four
    ufunc calls; algebra.run_blocks spreads the blocks of a large field
    over one thread per usable CPU.  The open faces are fixed up only after
    the whole flat pass, which writes face sites of the other axes, as two
    work items (low face, high face) on the same threads; they are not
    blocked, since the one-sided tensordot's BLAS rounding depends on the
    operand layout it is given.  Each face's five planes are gathered into
    a contiguous plane-major (5, K, plane) operand, with each plane viewed
    as one np.void element so the gather copies whole planes (for axis 1 a
    plane is a single site's three components, which an element-wise
    strided copy handles slowly).  Each site is written by one thread and
    sees the same operations in the same order as the textbook form, so
    results do not depend on this layout, the block size or the thread
    count.
  - "spectral": exact i*kappa Fourier symbol with the Nyquist mode zeroed;
    used by the small-grid symbol checks where stencil symbols are not
    additive across frequency pairs.

Boundary modes:
  - "periodic" (default): wrap-around stencils, FFT machinery available.
    scipy.fft is imported by the first transform (fft_backend), or by the
    CLI when the config's grid is periodic, never when ym4 loads or a grid
    is built: the import takes about 0.4 s, most of it scipy.special, and
    open-grid runs, which never transform, never load it.
  - "open": one-sided fourth-order stencils at the box faces, for sampled
    whole-space fields that do not close up across the seam; spectral
    operations are unavailable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra

# scipy.fft worker count is pinned so reductions and transforms are
# bitwise reproducible regardless of the requested thread budget
_FFT_WORKERS = 1


def fft_backend():
    """scipy.fft, imported on the first call."""
    import scipy.fft

    return scipy.fft


class GridError(ValueError):
    pass


def _stencil4(fp1, fm1, fp2, fm2, denom, out=None):
    """(8 (fp1 - fm1) - (fp2 - fm2)) / denom, rounded step by step in that
    order, into out (allocated when not given) with one temporary."""
    out = np.subtract(fp1, fm1, out=out)
    out *= 8.0
    out -= np.subtract(fp2, fm2)
    out /= denom
    return out


@dataclass(frozen=True)
class Grid4:
    """Uniform 4D grid, n points per axis, spacing h."""

    n: int
    h: float
    boundary: str = "periodic"
    deriv: str = "stencil4"

    def __post_init__(self):
        if self.n < 8 or self.n % 2:
            raise GridError("n must be even and >= 8")
        if not 0.0 < self.h < np.inf:
            raise GridError(f"h must be finite and positive, got {self.h!r}")
        if self.boundary not in ("periodic", "open"):
            raise GridError(f"unknown boundary mode {self.boundary!r}")
        if self.deriv not in ("stencil4", "spectral"):
            raise GridError(f"unknown derivative mode {self.deriv!r}")
        if self.deriv == "spectral" and self.boundary != "periodic":
            raise GridError("spectral derivatives require a periodic grid")

    @classmethod
    def window(cls, n: int, h: float) -> "Grid4":
        """The grid of a window of n sites per axis cut from a larger
        field, whose derivatives are read only at sites at least two planes
        inside its faces.  Either face fix-up leaves those sites alone; the
        window is periodic because the wrapped fix-up is the cheaper one.
        It is never transformed."""
        return cls(n, h)

    @property
    def extent(self) -> float:
        return self.n * self.h

    @property
    def shape(self) -> tuple:
        return (self.n,) * 4

    def axis(self, j: int) -> int:
        """Numpy axis carrying coordinate direction j (1..4)."""
        if j not in (1, 2, 3, 4):
            raise GridError(f"axis must be 1..4, got {j}")
        return 4 - j

    def coords1d(self) -> np.ndarray:
        return np.arange(self.n) * self.h - self.extent / 2.0

    def coordinate_field(self, j: int) -> np.ndarray:
        """Coordinate x_j as a full (n,n,n,n) array."""
        c = self.coords1d()
        shape = [1, 1, 1, 1]
        shape[self.axis(j)] = self.n
        return np.broadcast_to(c.reshape(shape), self.shape).copy()

    def radius(self) -> np.ndarray:
        """Distance of each site from the origin."""
        r2 = np.zeros(self.shape)
        for j in range(1, 5):
            r2 += self.coordinate_field(j) ** 2
        return np.sqrt(r2)

    # -- Fourier machinery --------------------------------------------------

    def _require_periodic(self, what: str) -> None:
        if self.boundary != "periodic":
            raise GridError(f"{what} requires a periodic grid")

    def fft(self, f: np.ndarray) -> np.ndarray:
        self._require_periodic("fft")
        return fft_backend().fftn(f, axes=(0, 1, 2, 3), workers=_FFT_WORKERS)

    def ifft(self, fhat: np.ndarray) -> np.ndarray:
        self._require_periodic("ifft")
        return fft_backend().ifftn(fhat, axes=(0, 1, 2, 3), workers=_FFT_WORKERS)

    def wavenumbers1d(self) -> np.ndarray:
        """kappa values in FFT order for one axis."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    def deriv_symbol1d(self) -> np.ndarray:
        """Imaginary part of the first-derivative symbol per mode, one axis.

        stencil4: s(kappa) = (8 sin(kappa h) - sin(2 kappa h)) / (6h); this
        vanishes at Nyquist.  spectral: kappa itself, Nyquist zeroed (the
        Nyquist derivative sign is ambiguous on a real grid).
        """
        kappa = self.wavenumbers1d()
        if self.deriv == "stencil4":
            kh = kappa * self.h
            s = (8.0 * np.sin(kh) - np.sin(2.0 * kh)) / (6.0 * self.h)
            # sin(pi) evaluates to ~1e-16, not 0; snap the Nyquist entry so
            # zero-symbol guards (inverse Laplacian, deflation) engage exactly.
            s[self.n // 2] = 0.0
            return s
        s = kappa.copy()
        s[self.n // 2] = 0.0
        return s

    def deriv_symbol(self, j: int) -> np.ndarray:
        """Broadcastable (along the j-axis) symbol array for direction j."""
        s = self.deriv_symbol1d()
        shape = [1, 1, 1, 1]
        shape[self.axis(j)] = self.n
        return s.reshape(shape)

    def laplace_symbol(self) -> np.ndarray:
        """Symbol of the discrete Laplacian Sum_j partial_j partial_j (<= 0)."""
        s = self.deriv_symbol1d()
        out = np.zeros(self.shape)
        for j in range(1, 5):
            shape = [1, 1, 1, 1]
            shape[self.axis(j)] = self.n
            out = out - (s**2).reshape(shape)
        return out

    # -- derivatives --------------------------------------------------------

    def partial(self, f: np.ndarray, j: int) -> np.ndarray:
        """d f / d x_j; extra trailing axes (algebra index) pass through."""
        ax = self.axis(j)
        if self.deriv == "spectral":
            sym = self.deriv_symbol(j)
            if f.ndim > 4:
                sym = sym.reshape(sym.shape + (1,) * (f.ndim - 4))
            return np.real(self.ifft(self.fft(f) * (1j * sym)))
        f = np.ascontiguousarray(f)
        out = np.empty_like(f, dtype=np.result_type(f, 1.0))
        # one plane along axis ax is `plane` flat elements; the sites within
        # two planes of either face get wrong neighbours here and are
        # overwritten below
        plane, m = math.prod(f.shape[ax + 1 :]), f.shape[ax]
        flat, oflat = f.reshape(-1), out.reshape(-1)
        # output element 2 plane + s reads f at s, s + plane, s + 3 plane and
        # s + 4 plane; the pass runs in blocks of _BLOCK_SITES sites
        per_site = math.prod(f.shape[4:])
        step = algebra._BLOCK_SITES * per_site
        inner = f.size - 4 * plane

        def flat_pass(blocks):
            for b in blocks:
                s = b * step
                e = min(s + step, inner)
                _stencil4(
                    flat[s + 3 * plane : e + 3 * plane],
                    flat[s + plane : e + plane],
                    flat[s + 4 * plane : e + 4 * plane],
                    flat[s:e],
                    12.0 * self.h,
                    oflat[s + 2 * plane : e + 2 * plane],
                )

        algebra.run_blocks(-(-inner // step), flat_pass, inner // per_site)
        f3, o3 = f.reshape(-1, m, plane), out.reshape(-1, m, plane)
        if self.boundary == "periodic":
            # planes -4 .. 3 give the wrapped outputs at planes -2, -1, 0, 1
            ring = np.concatenate([f3[:, -4:], f3[:, :4]], axis=1)
            wrapped = _stencil4(ring[:, 3:7], ring[:, 1:5], ring[:, 4:], ring[:, :4], 12.0 * self.h)
            o3[:, -2:], o3[:, :2] = wrapped[:, :2], wrapped[:, 2:]
        else:
            # one-sided stencils on the five planes at each face, each face
            # gathered plane-major, as tensordot would gather it; the low
            # and the high face are two work items over ten planes of sites
            c0 = np.array([-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -0.25]) / self.h
            c1 = np.array([-0.25, -5.0 / 6.0, 1.5, -0.5, 1.0 / 12.0]) / self.h
            # each plane viewed as one np.void element, so a face is gathered
            # by whole-plane copies, not element by element
            fv = f3.view(np.dtype((np.void, plane * f3.itemsize)))[..., 0]

            def gather(planes):
                return np.ascontiguousarray(planes.T).view(f3.dtype).reshape(5, -1, plane)

            def faces(sides):
                for high in sides:
                    if high:
                        hi = gather(fv[:, :-6:-1])
                        o3[:, -1] = -np.tensordot(c0, hi, axes=(0, 0))
                        o3[:, -2] = -np.tensordot(c1, hi, axes=(0, 0))
                    else:
                        lo = gather(fv[:, :5])
                        o3[:, 0] = np.tensordot(c0, lo, axes=(0, 0))
                        o3[:, 1] = np.tensordot(c1, lo, axes=(0, 0))

            algebra.run_blocks(2, faces, 10 * f.size // (m * per_site))
        return out

    def divergence(self, v: np.ndarray) -> np.ndarray:
        """Sum_j partial_j v_j of a 4-vector field (4, n,n,n,n, ...), summed
        in order j = 1..4 onto zeros."""
        out = np.zeros(v.shape[1:])
        for j in range(1, 5):
            out += self.partial(v[j - 1], j)
        return out

    def laplace_inverse(self, f: np.ndarray) -> np.ndarray:
        """Spectral inverse of the discrete Laplacian of f minus its mean.

        Modes where the discrete symbol vanishes (the mean and, for the
        stencil backend, pure Nyquist combinations) are set to zero, so
        applying Sum_j partial_j partial_j to the result reproduces f minus
        exactly those modes.
        """
        self._require_periodic("laplace_inverse")
        f = f - f.mean(axis=(0, 1, 2, 3), keepdims=True)
        sym = self.laplace_symbol()
        if f.ndim > 4:
            sym = sym.reshape(sym.shape + (1,) * (f.ndim - 4))
        inv = np.where(sym != 0.0, sym, 1.0)
        fhat = self.fft(f) / inv
        fhat = np.where(sym != 0.0, fhat, 0.0)
        return np.real(self.ifft(fhat))

    # -- reductions ---------------------------------------------------------

    def integrate(self, f: np.ndarray) -> float:
        """h^4 * Sum over sites (numpy pairwise sum: deterministic)."""
        return float(np.sum(f) * self.h**4)

    def l2norm(self, f: np.ndarray) -> float:
        """L2(dx) norm; trailing component axes are summed in quadrature."""
        return float(np.sqrt(np.sum(np.asarray(f) ** 2) * self.h**4))
