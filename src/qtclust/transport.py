"""Damped quantum transport: wave functions in Laplace space and their phases."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGapError, ParameterError
from .spectral import EigenSystem, GapReport

UNDERFLOW_FLOOR = 1e-300

S_RULES = ("first_gap", "avg_gap", "explicit")


@dataclass(frozen=True)
class LaplaceParams:
    """Rule for choosing the damping rate s of the transform.

    ``first_gap`` and ``avg_gap`` scale the corresponding spectral gap by
    ``multiplier``; ``explicit`` uses ``multiplier`` verbatim as s.
    """

    rule: str = "avg_gap"
    multiplier: float = 1.2

    def __post_init__(self):
        if self.rule not in S_RULES:
            raise ParameterError(f"rule must be one of {S_RULES}, got {self.rule!r}")
        if not (np.isfinite(self.multiplier) and self.multiplier > 0.0):
            raise ParameterError("multiplier must be a positive finite number")


def select_s(gaps: GapReport, params: LaplaceParams) -> float:
    """Resolve the damping rate from gap diagnostics and a selection rule."""
    if params.rule == "explicit":
        return float(params.multiplier)
    gap = gaps.first_gap if params.rule == "first_gap" else gaps.avg_gap
    if not gap > 0.0:
        raise DegenerateGapError(
            f"{params.rule} is zero (disconnected graph?); "
            "pass LaplaceParams(rule='explicit', multiplier=s) instead"
        )
    return float(params.multiplier * gap)


def laplace_amplitudes(eig: EigenSystem, init_nodes, s: float) -> np.ndarray:
    """Laplace-space amplitudes for several start nodes, one column per node.

    Column k solves (s I + i H) psi = e_{init_nodes[k]} through the spectral
    sum.  The complex weights W = modes[init] / (s + i E) are laid out as
    interleaved real and imaginary columns, so one real GEMM of ``modes``
    against them yields the m x len(init_nodes) complex result in place,
    without casting the real ``modes`` to complex.
    """
    m = eig.size
    init = np.asarray(init_nodes)
    if init.ndim != 1 or init.dtype.kind not in "iu":
        raise ParameterError("init_nodes must be a one-dimensional integer array")
    if init.size and not (0 <= init.min() and init.max() < m):
        raise ParameterError(f"init nodes must be in [0, {m}), got {init.min()} to {init.max()}")
    if not (np.isfinite(s) and s > 0.0):
        raise ParameterError("s must be a positive finite number")
    weights = eig.modes[init, :] / (s + 1j * eig.energies)
    amplitudes = (eig.modes @ np.ascontiguousarray(weights.T).view(float)).view(complex)
    tiny = np.abs(amplitudes) < UNDERFLOW_FLOOR
    if tiny.any():
        # cancellation hit the subnormal range: redo those dot products with
        # exact accumulation so the recovered phase is meaningful
        for i, k in zip(*np.nonzero(tiny)):
            re = math.fsum((eig.modes[i, :] * weights[k].real).tolist())
            im = math.fsum((eig.modes[i, :] * weights[k].imag).tolist())
            amplitudes[i, k] = complex(re, im)
    return amplitudes


def phase_field(amplitudes: np.ndarray) -> np.ndarray:
    """Complex arguments in (-pi, pi] of one field of amplitudes, or of a block with one field per row.

    One warning per call names the number of amplitudes below ``UNDERFLOW_FLOOR``.
    """
    amp = np.asarray(amplitudes, dtype=complex)
    n_tiny = int(np.count_nonzero(np.abs(amp) < UNDERFLOW_FLOOR))
    if n_tiny:
        warnings.warn(
            f"{n_tiny} amplitude(s) underflowed; their phases are unreliable",
            RuntimeWarning,
            stacklevel=2,
        )
    phases = np.angle(amp)
    phases[phases <= -np.pi] = np.pi
    return phases
