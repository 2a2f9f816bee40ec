"""Linearized heat flow, tangent-space membership, div-curl decomposition.

A tangent direction b at a connection a is certified by co-evolving a under
the heat flow and b under the linearized flow

    ds B_k = [B^j, F_{jk}] + D^j (D_j B_k - D_k B_j)

and checking that B decays.  The div-curl decomposition e = b - D a0 is
produced from the electric parabolic flow

    ds E_j = Lap_A E_j + 2 [F_j^l, E_l],     E(0) = e,

with a0 = Integral_0^{s_max} D^l E_l(s) ds accumulated by the trapezoid
rule along the co-evolution (in the flat case this reproduces the Helmholtz
potential -Lap^{-1} div e, so b is the divergence-free part of e).
The pair (a, V) takes one explicit midpoint step of the coupled system per
step, each stage building one curvature that the heat tension and the
linear rhs share.  Working set: a step holds a, V, their midpoint stages
and one curvature; the electric pass is freed before the tangent pass, and
linearized_rhs holds up to four of its six D_j B_k - D_k B_j pairs at once
(tests/test_working_set.py bounds div_curl_decompose's peak allocation in
connection-sized arrays).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from . import algebra
from .errors import BlowUpError
from .gaugefield import (
    ConnectionField,
    CurvatureField,
    covariant_derivative,
    covariant_divergence,
    curvature,
    curvature_tension,
    pair_component,
)
from .heatflow import HeatParams
from .stepping import axpy, march, step_count


@dataclass
class TangentVector:
    """Candidate tangent direction b at a caloric base connection."""

    base: ConnectionField
    b: np.ndarray  # (4, n, n, n, n, d)
    tangent_residual: float = field(default=np.nan)


@dataclass
class CaloricDataSet:
    """Caloric-gauge initial data (a, b) with its temporal potential a0."""

    a: ConnectionField
    b: TangentVector
    a0: np.ndarray  # (n, n, n, n, d)
    tail_flagged: bool = False


def linearized_rhs(B: np.ndarray, a_s: ConnectionField, F_s: CurvatureField) -> np.ndarray:
    """Derivative of the heat-flow tension D^j F_{jk} in the direction B:
    ds B_k = [B^j, F_{jk}] + D^j (D_j B_k - D_k B_j).

    g_jk = D_j B_k - D_k B_j = -g_kj is built once per pair, at its first
    use (output k, j > k: the term is -D_j g_kj), and released after its
    second (output j); negation is exact, so this is bitwise the sum with
    each g_jk built where it is used."""
    out = np.zeros_like(B)
    g = {}
    for k in range(1, 5):
        acc = out[k - 1]
        for j in range(1, 5):
            if j == k:
                continue  # D_k (D_k B_k - D_k B_k) = 0
            acc += algebra.bracket_arr(a_s.spec, B[j - 1], pair_component(F_s.f, j, k))
            if j > k:
                g[k, j] = covariant_derivative(a_s, B[j - 1], k) - covariant_derivative(
                    a_s, B[k - 1], j
                )
                acc -= covariant_derivative(a_s, g[k, j], j)
            else:
                acc += covariant_derivative(a_s, g.pop((j, k)), j)
    return out


def electric_rhs(E: np.ndarray, a_s: ConnectionField, F_s: CurvatureField) -> np.ndarray:
    out = np.zeros_like(E)
    for j in range(1, 5):
        acc = out[j - 1]
        for l in range(1, 5):
            acc += covariant_derivative(a_s, covariant_derivative(a_s, E[j - 1], l), l)
            if l != j:
                acc += 2.0 * algebra.bracket_arr(
                    a_s.spec, pair_component(F_s.f, j, l), E[l - 1]
                )
    return out


def _coevolve(a: ConnectionField, V: np.ndarray, p: HeatParams, rhs):
    """March the pair (a, V) by the explicit midpoint rule of the coupled
    system ds a = tension(a), ds V = rhs(V, a, F(a)).

    Yields (a_s, V_s) at every step boundary including s = 0.  Each stage
    builds one curvature, shared by the tension and rhs, so the update of a
    is heatflow's RK2 step operation for operation and a_s is run_heat's
    state to the byte.  The same step serves every background, the zero
    connection included.
    """
    p.check_stability(a.grid.h)

    def step(pair):
        a, V = pair
        F = curvature(a)
        mid = ConnectionField(a.grid, a.spec, axpy(0.5 * p.ds, curvature_tension(a, F), a.a))
        V_mid = axpy(0.5 * p.ds, rhs(V, a, F), V)
        del F
        F = curvature(mid)
        new = axpy(p.ds, curvature_tension(mid, F), a.a)
        V = axpy(p.ds, rhs(V_mid, mid, F), V)
        if not (np.all(np.isfinite(new)) and np.all(np.isfinite(V))):
            raise BlowUpError("co-evolved flow produced non-finite values")
        return ConnectionField(a.grid, a.spec, new), V

    for _, pair, _ in march((a, V), step, p.ds, p.s_max):
        yield pair


def _flat_mode_factors(g, p: HeatParams):
    """Per-mode RK2 amplification and trapezoid weight on a zero background.

    On a zero background both co-evolved flows are constant-coefficient and
    diagonal in Fourier space, so one RK2 step is multiplication by
    g(lam) = 1 - lam*ds + (lam*ds)^2/2 per eigenvalue lam of the (positive)
    spatial operator, and the trapezoid sum of N iterates collapses to the
    geometric sum ds*(1/2 + g + ... + g^{N-1} + g^N/2).  Returns
    (lam, g^N, trapezoid weight) with lam = -laplace symbol.
    """
    p.check_stability(g.h)
    n_steps = step_count(p.ds, p.s_max)
    lam = -g.laplace_symbol()
    x = lam * p.ds
    gfac = 1.0 - x + 0.5 * x * x
    g_n = gfac**n_steps
    denom = np.where(gfac != 1.0, 1.0 - gfac, 1.0)
    trapz = p.ds * np.where(
        gfac != 1.0,
        0.5 * (1.0 + g_n) + (gfac - g_n) / denom,
        float(n_steps),
    )
    return lam, g_n, trapz


def _flat_tangent_terminal(b: np.ndarray, g, p: HeatParams) -> np.ndarray:
    """Terminal value of the co-evolved linearized flow on a zero background.

    The flow symbol is -(lam I - s s^T): the gradient part of each mode is
    frozen and the orthogonal part contracts by g(lam) per step.
    """
    lam, g_n, _ = _flat_mode_factors(g, p)
    bhat = [g.fft(b[j - 1]) for j in range(1, 5)]
    syms = [g.deriv_symbol(j)[..., None] for j in range(1, 5)]
    s_dot_b = sum(s * bh for s, bh in zip(syms, bhat))
    lam_e = lam[..., None]
    safe = np.where(lam_e > 0.0, lam_e, 1.0)
    g_n_e = g_n[..., None]
    out = np.empty_like(b)
    for j in range(1, 5):
        par = syms[j - 1] * s_dot_b / safe
        term = np.where(lam_e > 0.0, par + g_n_e * (bhat[j - 1] - par), bhat[j - 1])
        out[j - 1] = np.real(g.ifft(term))
    return out


def tangent_residual(
    b: np.ndarray, a: ConnectionField, p: HeatParams, fast_flat: bool = True
) -> float:
    """|B(s_max)|_2 / |b|_2 after co-evolving the linearized flow.

    With fast_flat (default) a zero background is marched mode-wise in
    Fourier space; this evaluates the very same RK2 iteration in closed
    form and agrees with the step loop to round-off.
    """
    g = a.grid
    b_norm = g.l2norm(b)
    if b_norm == 0.0:
        return 0.0
    if fast_flat and not a.a.any() and a.grid.boundary == "periodic":
        return g.l2norm(_flat_tangent_terminal(b, g, p)) / b_norm
    for _, V in _coevolve(a, b, p, linearized_rhs):
        pass
    return g.l2norm(V) / b_norm


def div_curl_decompose(
    a: ConnectionField, e: np.ndarray, p: HeatParams, fast_flat: bool = True
) -> CaloricDataSet:
    """Decompose e = b - D a0 through the dynamic heat flow.

    Co-evolves the background and the electric field, accumulates
    a0 = Integral D^l E_l ds (trapezoid), sets b_j = e_j + D_j a0, and
    fills the tangent residual of b.  The tail flag records whether the
    electric field had decayed below stop_F_tol by s_max.

    With fast_flat (default) a zero background is handled mode-wise in
    Fourier space, evaluating the identical RK2 + trapezoid iteration in
    closed form (the flow is constant-coefficient and diagonal there);
    results agree with the step loop to round-off at any step count.
    """
    g = a.grid
    a0, terminal_E_l2 = _electric_pass(a, e, p, fast_flat)
    b = np.empty_like(e)
    for j in range(1, 5):
        b[j - 1] = e[j - 1] + covariant_derivative(a, a0, j)
    tv = TangentVector(a, b)
    tv.tangent_residual = tangent_residual(b, a, p, fast_flat=fast_flat)
    e_scale = max(g.l2norm(e), 1e-300)
    tail = terminal_E_l2 / e_scale > p.stop_F_tol
    return CaloricDataSet(a, tv, a0, tail_flagged=tail)


def _electric_pass(a: ConnectionField, e: np.ndarray, p: HeatParams, fast_flat: bool) -> tuple:
    """(a0, |E(s_max)|_2) from the electric flow co-evolved with a; the
    pass's states and fields are freed when it returns."""
    g = a.grid
    if fast_flat and not a.a.any() and g.boundary == "periodic":
        _, g_n, trapz = _flat_mode_factors(g, p)
        ehat = [g.fft(e[j - 1]) for j in range(1, 5)]
        div_hat = sum(
            1j * g.deriv_symbol(j)[..., None] * eh for j, eh in zip(range(1, 5), ehat)
        )
        a0 = np.real(g.ifft(trapz[..., None] * div_hat))
        g_n_e = g_n[..., None]
        return a0, g.l2norm(np.stack([np.real(g.ifft(g_n_e * eh)) for eh in ehat]))
    a0 = np.zeros(g.shape + (a.spec.dim,))
    prev_div = None
    for a_s, E in _coevolve(a, e, p, electric_rhs):
        div_E = covariant_divergence(a_s, E)
        if prev_div is not None:
            a0 += 0.5 * p.ds * (prev_div + div_E)
        prev_div = div_E
    return a0, g.l2norm(E)
