"""The one fixed-step time loop shared by the heat and wave flows, and the
in-place update their stages are built with."""

from __future__ import annotations

import numpy as np


def step_count(dt: float, t_end: float) -> int:
    """Number of steps of size dt that reach t_end (the last may overshoot
    by less than one step; a ratio within 1e-12 of an integer rounds down)."""
    return int(np.ceil(t_end / dt - 1e-12))


def march(state, step, dt: float, t_end: float):
    """Yield (k, state_k, last) for k = 0 .. n = step_count(dt, t_end), where
    state_0 = state, state_k = step(state_{k-1}) and last is k == n."""
    n_steps = step_count(dt, t_end)
    yield 0, state, n_steps == 0
    for k in range(1, n_steps + 1):
        state = step(state)
        yield k, state, k == n_steps


def axpy(c: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y + c * x built in x's buffer, which it overwrites: the same IEEE
    operations as that expression, without its temporaries."""
    x *= c
    x += y
    return x
