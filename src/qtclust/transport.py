"""Damped quantum transport: wave functions in Laplace space and their phases."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGapError, ParameterError
from .spectral import EigenSystem, GapReport

UNDERFLOW_FLOOR = 1e-300
_TINY = float(np.finfo(float).tiny)

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
    without casting the real ``modes`` to complex.  As on the solve route,
    an entry that cancels below ``UNDERFLOW_FLOOR`` keeps its rounding, and
    :func:`phase_field` flags it.
    """
    init = _start_nodes(init_nodes, eig.size)
    _check_s(s)
    weights = eig.modes[init, :] / (s + 1j * eig.energies)
    return (eig.modes @ np.ascontiguousarray(weights.T).view(float)).view(complex)


def spectral_source(eig: EigenSystem, s: float):
    """Amplitude source of the spectral sum, for ``ensemble.run_qtc``.

    ``source(init_nodes, width)`` yields the amplitudes of each block of at
    most ``width`` start nodes in turn, one :func:`laplace_amplitudes` GEMM
    per block.
    """

    def blocks(init_nodes, width):
        for lo in range(0, len(init_nodes), width):
            yield laplace_amplitudes(eig, init_nodes[lo : lo + width], s)

    return blocks


def solve_source(hamiltonian: np.ndarray, s: float):
    """Amplitude source of one complex LU solve, for ``ensemble.run_qtc``.

    A = s I + i H is built here and H is not kept, so H can be freed before
    the solve (:func:`pipeline.amplitude_source` frees it on return).
    ``source(init_nodes, width)`` solves A psi = E, with one unit column of
    E per start node, when its first block is asked for: A is factored once
    for all start nodes, and the blocks of at most ``width`` start nodes are
    column slices of that one result.
    """
    _check_s(s)
    h = np.asarray(hamiltonian, dtype=float)
    m = h.shape[0]
    a = h * 1j
    a.flat[:: m + 1] += s

    def blocks(init_nodes, width):
        init = _start_nodes(init_nodes, m)
        rhs = np.zeros((m, init.size), dtype=complex)
        rhs[init, np.arange(init.size)] = 1.0
        amplitudes = np.linalg.solve(a, rhs)
        for lo in range(0, init.size, width):
            yield amplitudes[:, lo : lo + width]

    return blocks


def _start_nodes(init_nodes, m: int) -> np.ndarray:
    """``init_nodes`` as a one-dimensional integer array of nodes in [0, m); ``ParameterError`` otherwise."""
    init = np.asarray(init_nodes)
    if init.ndim != 1 or init.dtype.kind not in "iu":
        raise ParameterError("init_nodes must be a one-dimensional integer array")
    if init.size and not (0 <= init.min() and init.max() < m):
        raise ParameterError(f"init nodes must be in [0, {m}), got {init.min()} to {init.max()}")
    return init


def _check_s(s: float) -> None:
    """``ParameterError`` unless s is a finite number no smaller than the smallest normal float.

    From that bound up every spectral weight modes / (s + iE) is finite; a
    subnormal s overflows them.
    """
    if not (np.isfinite(s) and s >= _TINY):
        raise ParameterError(f"s must be a finite number of at least {_TINY!r}, got {s!r}")


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
