"""Yang-Mills heat flow: gradient-flow integrators, caloric machinery.

The flow is ds a_i = D^l f_{li} (the "local" form, whose s-component of the
evolved connection is zero), optionally augmented with the parabolic gauge
term D_i(div a).  _step, explicit midpoint RK2 within the stability budget
ds <= 0.2 h^2, is the one heat-flow step: each stage builds one curvature
for the tension.  coevolve marches a field V along the flow as a rider on
that step, each stage's curvature shared with V's right-hand side (tangent
supplies them), so its background is run_heat's state to the byte.
Working set: a step holds the connection, its midpoint stage and the
curvature and tension being built (a rider adds V and its stage); run_heat
adds one curvature and the diagnostics, and its peak allocation does not
grow with the number of steps (tests/test_working_set.py bounds it in
connection-sized arrays).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import algebra, gaugefield
from .errors import BlowUpError
from .gaugefield import (
    ConnectionField,
    CurvatureField,
    FieldError,
    GaugeTransformField,
    curvature,
    curvature_tension,
    energy_density,
    gauge_transform,
)
from .stepping import axpy, march

STABILITY_FACTOR = 0.2  # max ds / h^2 for the explicit fourth-order stencil
FLATNESS_TOL = 1e-2  # max |F|_2 of a connection flat_trivialize accepts


@dataclass
class HeatParams:
    ds: float
    s_max: float
    integrator: str = "rk2"  # the only one
    stop_F_tol: float = 1e-6
    sample_stride: int = 1

    def __post_init__(self):
        if self.integrator != "rk2":
            raise ValueError(f"unknown integrator {self.integrator!r} (only 'rk2')")
        if not (0.0 < self.ds < np.inf and 0.0 < self.s_max < np.inf):
            raise ValueError("ds and s_max must be finite and positive")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")

    def check_stability(self, h: float) -> None:
        if self.ds > STABILITY_FACTOR * h * h * (1.0 + 1e-12):
            raise ValueError(
                f"ds = {self.ds} exceeds the stability budget {STABILITY_FACTOR}*h^2"
            )


@dataclass
class HeatTrajectory:
    s_samples: List[float] = field(default_factory=list)
    energy_series: List[float] = field(default_factory=list)
    tension_l2_series: List[float] = field(default_factory=list)
    caloric_size_series: List[float] = field(default_factory=list)
    dissipation_series: List[float] = field(default_factory=list)
    terminal: Optional[ConnectionField] = None
    reached_tolerance: bool = False
    tail_flagged: bool = False

    @property
    def caloric_size_accum(self) -> float:
        return self.caloric_size_series[-1] if self.caloric_size_series else 0.0

    @property
    def dissipation_accum(self) -> float:
        return self.dissipation_series[-1] if self.dissipation_series else 0.0


def _flow_rhs(a: ConnectionField, F: CurvatureField, de_turck: bool) -> np.ndarray:
    rhs = curvature_tension(a, F)
    if de_turck:
        div_a = a.grid.divergence(a.a)
        for i in range(1, 5):
            rhs[i - 1] += gaugefield.covariant_derivative(a, div_a, i)
    return rhs


def _step(a: ConnectionField, ds: float, de_turck: bool = False, rider=None):
    """One explicit midpoint step of the heat flow.  Each stage builds one
    curvature, frees it before the next stage builds its own, and hands it
    to the tension.  With rider = (V, rhs), the same curvature also goes to
    rhs(V, a, F), V takes the coupled midpoint update of ds V = rhs(V, a, F)
    and (a, V) is returned."""
    F = curvature(a)
    mid = ConnectionField(a.grid, a.spec, axpy(0.5 * ds, _flow_rhs(a, F, de_turck), a.a))
    if rider is not None:
        V, rhs = rider
        V_mid = axpy(0.5 * ds, rhs(V, a, F), V)
    del F
    F = curvature(mid)
    new = axpy(ds, _flow_rhs(mid, F, de_turck), a.a)
    if rider is not None:
        V = axpy(ds, rhs(V_mid, mid, F), V)
    if not (np.all(np.isfinite(new)) and (rider is None or np.all(np.isfinite(V)))):
        raise BlowUpError("heat step produced non-finite values", last_state=a)
    new = ConnectionField(a.grid, a.spec, new)
    return new if rider is None else (new, V)


def coevolve(a: ConnectionField, V: np.ndarray, p: HeatParams, rhs):
    """Yield (a_s, V_s) at every step boundary, s = 0 included, of the heat
    flow with V riding each step (see _step)."""
    p.check_stability(a.grid.h)
    states = march((a, V), lambda av: _step(av[0], p.ds, rider=(av[1], rhs)), p.ds, p.s_max)
    for _, state, _ in states:
        yield state


def run_heat(
    a: ConnectionField,
    p: HeatParams,
    de_turck: bool = False,
    observer=None,
) -> HeatTrajectory:
    """Integrate the heat flow to s_max or until |F|_inf <= stop_F_tol.

    Accumulates the energy series, the caloric-size integral of |F|^3 and
    the dissipation integral of |tension|^2 by the trapezoid rule in s.
    ``observer(step_index, s, a, F)``, when given, is called at every step.
    A non-finite connection, energy, |F|^3 integral or dissipation rate is
    a blow-up; the partial trajectory, ending at the last finite state, is
    attached to the error.  Once the loop starts only it holds a, as the
    last finite state until step 1's state is checked, so a is freed
    before step 2 unless the caller or the observer keeps it.
    """
    g = a.grid
    traj = HeatTrajectory()

    def diagnostics(state, F):
        dens = energy_density(F)
        energy = g.integrate(dens)
        i3 = g.integrate(dens**1.5)
        tension = curvature_tension(state, F)
        # dE/ds = -2 |tension|^2 for E = sum_{i<j} |f_ij|^2; record the
        # dissipation rate with that factor so the accumulated dissipation
        # equals the energy drop exactly in the continuum limit.
        tension_sq = g.integrate(np.einsum("k...a,k...a->...", tension, tension))
        f_inf = float(np.sqrt(np.max(dens)))
        return energy, i3, 2.0 * tension_sq, f_inf

    p.check_stability(g.h)
    caloric_accum = 0.0
    diss_accum = 0.0
    prev = None
    states = march(a, lambda a: _step(a, p.ds, de_turck), p.ds, p.s_max)
    del a
    try:
        for k, state, last in states:
            s = k * p.ds
            F = curvature(state)
            energy, i3_k, diss_k, f_inf = diagnostics(state, F)
            if not np.all(np.isfinite((energy, i3_k, diss_k))):
                raise BlowUpError(f"heat flow energy not finite at s = {s:.6g}", last_state=prev)
            if observer is not None:
                observer(k, s, state, F)
            if k > 0:
                caloric_accum += 0.5 * p.ds * (i3 + i3_k)
                diss_accum += 0.5 * p.ds * (diss + diss_k)
            i3, diss = i3_k, diss_k
            stop = k > 0 and f_inf <= p.stop_F_tol
            if k % p.sample_stride == 0 or last or stop:
                traj.s_samples.append(s)
                traj.energy_series.append(energy)
                traj.tension_l2_series.append(float(np.sqrt(0.5 * diss)))
                traj.caloric_size_series.append(caloric_accum)
                traj.dissipation_series.append(diss_accum)
            if stop:
                traj.reached_tolerance = True
                break
            prev = state
            del F  # no later step reads it
    except BlowUpError as err:
        err.partial = traj
        traj.terminal = err.last_state
        raise
    traj.terminal = state
    traj.tail_flagged = f_inf > p.stop_F_tol
    return traj


def flat_trivialize(a_flat: ConnectionField) -> GaugeTransformField:
    """Solve partial_j O = O a_j along lattice paths from the box corner.

    Path order: x1 sweep on the corner line, then x2, x3, x4, each sweep
    extending the previous slab.  Each edge step is a fourth-order Magnus
    exponential built from two Gauss-point samples of a_j (obtained by
    spectral interpolation along the sweep axis):

        Omega = (h/2)(A1 + A2) + (sqrt(3) h^2 / 12) [A2, A1].

    The returned O satisfies a_j = O^{-1} partial_j O up to O(h^4) +
    holonomy, and O(corner) = Id.

    The input must have |F|_2 <= FLATNESS_TOL, and its path-dependence
    (plaquette) residual is checked against a tolerance scaled by h^2 and
    the sizes of a and F; non-flat or holonomy-contaminated inputs fail
    here instead of silently producing a path-dependent answer.
    """
    if not a_flat.spec.is_su2:
        raise FieldError("flat trivialization implemented for su(2) fields")
    g = a_flat.grid
    F = curvature(a_flat)
    f_l2 = float(np.linalg.norm(F.f)) * g.h**2
    if f_l2 > FLATNESS_TOL:
        raise FieldError(f"input not flat: |F|_2 = {f_l2:.3e} > {FLATNESS_TOL:.3e}")

    h = g.h
    q = np.zeros(g.shape + (4,))
    q[..., 0] = 1.0
    gauss_lo = (0.5 - np.sqrt(3.0) / 6.0) * h
    gauss_hi = (0.5 + np.sqrt(3.0) / 6.0) * h

    def axis_shift(f, j, delta):
        """Sample f at x + delta along axis j by spectral interpolation."""
        ax = g.axis(j)
        kappa = g.wavenumbers1d()
        phase = np.exp(1j * kappa * delta)
        phase[g.n // 2] = np.cos(kappa[g.n // 2] * delta)  # keep output real
        shape = [1] * f.ndim
        shape[ax] = g.n
        fhat = np.fft.fft(f, axis=ax) * phase.reshape(shape)
        return np.real(np.fft.ifft(fhat, axis=ax))

    def sweep(qarr, j):
        """Extend along coordinate axis j by right-multiplied Magnus steps."""
        ax = g.axis(j)
        comp = a_flat.a[j - 1]
        a1 = np.moveaxis(axis_shift(comp, j, gauss_lo), ax, 0)
        a2 = np.moveaxis(axis_shift(comp, j, gauss_hi), ax, 0)
        brk = algebra.bracket_arr(a_flat.spec, a2, a1)
        omega = 0.5 * h * (a1 + a2) + (np.sqrt(3.0) * h * h / 12.0) * brk
        qm = np.moveaxis(qarr, ax, 0)
        step = algebra.quat_exp(omega)
        for i in range(1, g.n):
            qm[i] = algebra.quat_mul(qm[i - 1], step[i - 1])
            if i % 64 == 0:
                qm[i] = algebra.quat_normalize(qm[i])
        return np.moveaxis(qm, 0, ax)

    # sweep order: the x1 corner line, then slabs in x2, x3, x4
    for j in (1, 2, 3, 4):
        q = sweep(q, j)
    q = algebra.quat_normalize(q)
    O = GaugeTransformField(g, a_flat.spec, q)

    # Newton refinement against the lattice derivative: the path integral is
    # accurate to O(h^4) in the continuum sense, but the transformed field is
    # measured with the grid stencil, so absorb the discrete-gradient part of
    # the leftover into O.  Each pass solves the flat Poisson problem
    # lap psi = div(G(O) a) and left-composes exp(psi).
    if g.boundary == "periodic":
        for _ in range(3):
            div_b = g.divergence(gauge_transform(a_flat, O).a)
            psi = g.laplace_inverse(div_b)
            q = algebra.quat_mul(algebra.quat_exp(psi), O.q)
            O = GaugeTransformField(g, a_flat.spec, algebra.quat_normalize(q))

    resid = _plaquette_residual(a_flat)
    amax = float(np.max(np.abs(a_flat.a)))
    f_inf = float(np.sqrt(np.max(energy_density(F))))
    path_tol = 100.0 * h * h * max(1.0, amax) ** 2 + 100.0 * h * h * f_inf + 1e-8
    if resid > path_tol:
        raise FieldError(
            f"path-dependence residual {resid:.3e} exceeds {path_tol:.3e} "
            "(non-integrable input or torus holonomy)"
        )
    return O


def _plaquette_residual(a: ConnectionField) -> float:
    """Max group distance between the two orderings of each coordinate plaquette."""
    g = a.grid
    h = g.h
    worst = 0.0
    for i, j in gaugefield.PAIRS:
        axi, axj = g.axis(i), g.axis(j)
        ai, aj = a.a[i - 1], a.a[j - 1]
        # midpoint-sampled steps along each edge of the (i, j) plaquette
        si = algebra.quat_exp(h * 0.5 * (ai + np.roll(ai, -1, axis=axi)))
        sj = algebra.quat_exp(h * 0.5 * (aj + np.roll(aj, -1, axis=axj)))
        sj_at_i = np.roll(sj, -1, axis=axi)
        si_at_j = np.roll(si, -1, axis=axj)
        path_a = algebra.quat_mul(si, sj_at_i)
        path_b = algebra.quat_mul(sj, si_at_j)
        worst = max(worst, float(np.max(np.abs(path_a - path_b))))
    return worst


def caloric_project(a: ConnectionField, p: HeatParams):
    """Gauge-transform a into its caloric representative.

    Runs the heat flow to its flat terminal connection, trivializes the
    terminal as O^{-1} partial O, and applies that O to the initial
    connection; the result re-flows to (numerically) zero.
    Returns (caloric connection, gauge transform, trajectory).
    """
    traj = run_heat(a, p)
    O = flat_trivialize(traj.terminal)
    a_cal = gauge_transform(a, O)
    return a_cal, O, traj


def caloric_divergence(a_caloric: ConnectionField) -> tuple:
    """(|div a|_2, |a|_2^2): the generalized-Coulomb smallness measure.

    For caloric connections the divergence is quadratic in the amplitude;
    the second entry is the natural quadratic comparison scale.
    """
    g = a_caloric.grid
    return g.l2norm(g.divergence(a_caloric.a)), g.l2norm(a_caloric.a) ** 2
