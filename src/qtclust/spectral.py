"""Eigendecomposition of the walk generator and spectral-gap diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, ParameterError
from .graph import _check_symmetric, _readonly

# eigenvalues this close to zero are the analytic zero modes of a connected graph
CLAMP_TOL = 1e-10
# a spectral jump by this factor separates collective cluster modes from intra-cluster excitations
GAP_FACTOR = 10.0


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and orthonormal eigenvectors of a symmetric matrix.

    Column n of ``modes`` pairs with ``energies[n]``.  Signs are fixed so the
    largest-magnitude entry of each column is positive, which makes repeated
    decompositions of the same matrix reproducible.
    """

    energies: np.ndarray
    modes: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        v = np.asarray(self.modes, dtype=float)
        if e.ndim != 1 or v.shape != (e.size, e.size):
            raise InputError("energies must be length m and modes m x m")
        object.__setattr__(self, "energies", _readonly(e))
        object.__setattr__(self, "modes", _readonly(v))

    @property
    def size(self) -> int:
        return self.energies.size


@dataclass(frozen=True)
class GapReport:
    """Gap diagnostics of an ascending spectrum.

    ``first_gap`` is E1 - E0, ``avg_gap`` the mean low-band spacing
    (E_{q-1} - E0) / (q-1), ``next_ratio`` the jump E_q / E_{q-1} just above
    the band, and ``low_count`` the mode count below the highest spectral
    jump that clears the counting threshold.
    """

    first_gap: float
    avg_gap: float
    next_ratio: float
    low_count: int


def eigendecompose(matrix: np.ndarray) -> EigenSystem:
    """Full dense decomposition of a symmetric matrix.

    The matrix goes to ``np.linalg.eigh`` as it is, and eigh reads only its
    lower triangle.  The upper triangle must match within 1e-10, so for
    exactly symmetric input (every ``GraphBundle.hamiltonian``) this is the
    decomposition of ``(H + H^T) / 2`` bit for bit, without that m x m copy.

    Eigenvalues within ``CLAMP_TOL`` of zero are snapped to exactly zero: for
    a connected similarity graph the ground energy is zero analytically, and
    downstream gap ratios should not see rounding noise there.
    """
    h = np.asarray(matrix, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 1:
        raise InputError("matrix must be square")
    if not np.isfinite(h).all():
        raise InputError("matrix contains non-finite entries")
    _check_symmetric(h, 1e-10, "matrix is not symmetric within 1e-10")
    try:
        energies, modes = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed to converge: {exc}") from None
    energies = energies.copy()
    energies[np.abs(energies) < CLAMP_TOL] = 0.0
    cols = np.arange(modes.shape[1])
    anchor = np.abs(modes).argmax(axis=0)
    signs = np.sign(modes[anchor, cols])
    signs[signs == 0.0] = 1.0
    return EigenSystem(energies=energies, modes=modes * signs)


def gap_stats(eig: EigenSystem, q: int) -> GapReport:
    """Gap diagnostics for a putative q-cluster decomposition."""
    m = eig.size
    if not 2 <= q <= m:
        raise ParameterError(f"q must be between 2 and {m}, got {q}")
    e = eig.energies
    first_gap = float(e[1] - e[0])
    avg_gap = float((e[q - 1] - e[0]) / (q - 1))
    next_ratio = float(e[q] / max(e[q - 1], CLAMP_TOL)) if q < m else 0.0
    return GapReport(
        first_gap=first_gap,
        avg_gap=avg_gap,
        next_ratio=next_ratio,
        low_count=count_low_energy(eig),
    )


def count_low_energy(eig: EigenSystem) -> int:
    """Number of low-energy modes, i.e. putative well-separated clusters.

    Counts the modes below the highest spectral jump whose ratio
    E_k / max(E_{k-1}, tol) still reaches ``GAP_FACTOR``; returns 1 when no
    jump does.
    """
    if eig.size < 2:
        raise ParameterError("need at least two eigenvalues")
    e = eig.energies
    ratios = e[1:] / np.maximum(e[:-1], CLAMP_TOL)
    hits = np.nonzero(ratios >= GAP_FACTOR)[0]
    return int(hits[-1]) + 1 if hits.size else 1
