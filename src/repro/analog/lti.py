"""Linear time-invariant state-space systems with exact ZOH stepping.

The loop filter of the PLL (and any other linear analog sub-block) is
described behaviourally as a state-space system

.. math:: \\dot x = A x + B u, \\qquad y = C x + D u

and advanced one solver step at a time with the *matrix exponential*
discretisation, which is exact for piecewise-constant inputs.  The
discretised pair ``(Ad, Bd)`` is cached per timestep so the refinement
windows around injection pulses stay cheap.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
from scipy.linalg import expm

from ..core.errors import SimulationError


class LTISystem:
    """A SISO/MIMO continuous-time LTI system stepped at discrete times.

    :param a: state matrix (n x n).
    :param b: input matrix (n x m).
    :param c: output matrix (p x n).
    :param d: feedthrough matrix (p x m), default zeros.
    :param x0: initial state, default zeros.
    :param cache_size: number of per-dt discretisations retained.
    """

    def __init__(self, a, b, c, d=None, x0=None, cache_size=64):
        self.a = np.atleast_2d(np.asarray(a, dtype=float))
        self.b = np.atleast_2d(np.asarray(b, dtype=float))
        if self.b.shape[0] != self.a.shape[0]:
            self.b = self.b.reshape(self.a.shape[0], -1)
        self.c = np.atleast_2d(np.asarray(c, dtype=float))
        n = self.a.shape[0]
        m = self.b.shape[1]
        p = self.c.shape[0]
        if self.a.shape != (n, n):
            raise SimulationError(f"A must be square, got {self.a.shape}")
        if self.c.shape[1] != n:
            raise SimulationError(
                f"C has {self.c.shape[1]} columns for {n} states"
            )
        self.d = (
            np.zeros((p, m))
            if d is None
            else np.atleast_2d(np.asarray(d, dtype=float))
        )
        self.x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
        if self.x.shape != (n,):
            raise SimulationError(f"x0 must have shape ({n},)")
        self._cache = OrderedDict()
        self._cache_size = cache_size
        #: True when the elementwise SISO fast path applies (see
        #: :meth:`step_siso`).
        self.siso_fast = n <= 2 and m == 1 and p == 1
        self._siso_cache = {}

    @property
    def n_states(self):
        """Number of state variables."""
        return self.a.shape[0]

    @property
    def n_inputs(self):
        """Number of inputs."""
        return self.b.shape[1]

    def discretize(self, dt):
        """Exact ZOH pair ``(Ad, Bd)`` for timestep ``dt`` (cached).

        Computed with one matrix exponential of the augmented matrix
        ``[[A, B], [0, 0]]``, which is valid even for singular ``A``
        (pure integrators, like a charge-pump capacitor).
        """
        key = float(dt)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            return cached
        n = self.n_states
        m = self.n_inputs
        augmented = np.zeros((n + m, n + m))
        augmented[:n, :n] = self.a * dt
        augmented[:n, n:] = self.b * dt
        phi = expm(augmented)
        pair = (phi[:n, :n], phi[:n, n:])
        self._cache[key] = pair
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return pair

    def step(self, u, dt):
        """Advance the state by ``dt`` with input ``u`` held constant.

        Returns the output vector *after* the step.  ``dt = 0`` returns
        the current output without advancing.
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if dt > 0:
            ad, bd = self.discretize(dt)
            self.x = ad @ self.x + bd @ u
        return self.c @ self.x + self.d @ u

    # -- elementwise SISO fast path ---------------------------------------

    def _siso_coeffs(self, dt):
        """Unpacked ``(Ad, Bd)`` scalars for the fast path (cached)."""
        key = float(dt)
        cached = self._siso_cache.get(key)
        if cached is None:
            ad, bd = self.discretize(dt)
            if self.n_states == 1:
                cached = (ad[0, 0].item(), 0.0, 0.0, 0.0,
                          bd[0, 0].item(), 0.0)
            else:
                cached = (ad[0, 0].item(), ad[0, 1].item(),
                          ad[1, 0].item(), ad[1, 1].item(),
                          bd[0, 0].item(), bd[1, 0].item())
            self._siso_cache[key] = cached
        return cached

    def step_siso(self, u, dt):
        """Fast-path :meth:`step` for 1- and 2-state SISO systems.

        Semantically ``step([u], dt)[0]``, but computed with explicit
        scalar expressions instead of BLAS matvecs.  That skips numpy
        dispatch on the kernel's hottest block, and — more importantly
        — makes the update *elementwise reproducible*: evaluating the
        same expressions with ``u`` (and the promoted state rows) as
        ``(k,)`` arrays in ensemble mode produces bitwise-identical
        per-variant results, a guarantee BLAS gemv/gemm kernels do not
        give (they reassociate/fuse the dot products).

        ``u`` may be a float (scalar simulation) or a ``(k,)`` array
        (ensemble simulation with :attr:`x` promoted to ``(n, k)``);
        the return matches.  Only valid when :attr:`siso_fast`.
        """
        x = self.x
        if self.n_states == 1:
            x0 = x[0]
            if dt > 0:
                a00, _a01, _a10, _a11, b0, _b1 = self._siso_coeffs(dt)
                x0 = a00 * x0 + b0 * u
                x[0] = x0
            y = self.c[0, 0] * x0
        else:
            x0 = x[0]
            x1 = x[1]
            if dt > 0:
                a00, a01, a10, a11, b0, b1 = self._siso_coeffs(dt)
                nx0 = a00 * x0 + a01 * x1 + b0 * u
                nx1 = a10 * x0 + a11 * x1 + b1 * u
                x[0] = nx0
                x[1] = nx1
                x0 = nx0
                x1 = nx1
            y = self.c[0, 0] * x0 + self.c[0, 1] * x1
        d00 = self.d[0, 0]
        if d00 != 0.0:
            y = y + d00 * u
        return y

    def output_siso(self, u=0.0):
        """Fast-path :meth:`output` for 1- and 2-state SISO systems."""
        x = self.x
        if self.n_states == 1:
            y = self.c[0, 0] * x[0]
        else:
            y = self.c[0, 0] * x[0] + self.c[0, 1] * x[1]
        d00 = self.d[0, 0]
        if d00 != 0.0:
            y = y + d00 * u
        return y

    def promote_state(self, k):
        """Widen the state to ``(n_states, k)`` for ensemble stepping.

        Every column starts as a copy of the current state, so all
        variants share the restored checkpoint exactly.
        """
        if self.x.ndim == 1:
            self.x = np.repeat(self.x.reshape(-1, 1), k, axis=1)

    def output(self, u=None):
        """Current output without advancing the state."""
        if u is None:
            u = np.zeros(self.n_inputs)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return self.c @ self.x + self.d @ u

    def state_dict(self):
        """State-vector capture for checkpoint/restore.

        The discretisation cache is deliberately excluded: it maps
        timestep to constant matrices, so it stays valid (and warm)
        across restores.
        """
        return {"x": self.x.copy()}

    def load_state_dict(self, state):
        """Restore a capture made by :meth:`state_dict`."""
        self.x = state["x"].copy()

    def reset(self, x0=None):
        """Reset the state (to zeros or a given vector)."""
        if x0 is None:
            self.x = np.zeros(self.n_states)
        else:
            x0 = np.asarray(x0, dtype=float)
            if x0.shape != (self.n_states,):
                raise SimulationError(
                    f"x0 must have shape ({self.n_states},), got {x0.shape}"
                )
            self.x = x0.copy()

    def dc_gain(self):
        """Steady-state output per unit DC input (requires stable A).

        :raises SimulationError: when A is singular (a pure
            integrator has no finite DC gain), including numerically
            singular matrices like the PI loop filter's.
        """
        if np.linalg.cond(self.a) > 1e12:
            raise SimulationError(
                "DC gain undefined: A is singular (system has a pure "
                "integrator)"
            )
        try:
            return self.c @ np.linalg.solve(-self.a, self.b) + self.d
        except np.linalg.LinAlgError as exc:
            raise SimulationError(
                "DC gain undefined: A is singular (system has a pure "
                "integrator)"
            ) from exc


def single_pole(gain, pole_hz, x0=None):
    """First-order low-pass: ``H(s) = gain / (1 + s / (2*pi*pole_hz))``."""
    w = 2.0 * np.pi * pole_hz
    return LTISystem(a=[[-w]], b=[[w * gain]], c=[[1.0]], x0=x0)


def integrator(gain=1.0, x0=None):
    """Pure integrator: ``H(s) = gain / s``."""
    return LTISystem(a=[[0.0]], b=[[gain]], c=[[1.0]], x0=x0)
