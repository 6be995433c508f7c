"""Eigendecomposition and low spectrum of the walk generator, and spectral-gap diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, ParameterError
from .graph import _check_symmetric, _readonly

# eigenvalues this close to zero are the analytic zero modes of a connected graph
CLAMP_TOL = 1e-10
# a spectral jump by this factor separates collective cluster modes from intra-cluster excitations
GAP_FACTOR = 10.0
# block Lanczos: a Ritz pair has converged at a residual ||H x - theta x|| this small; a new
# direction is kept when its singular value exceeds _RANK_TOL times its block's scale; the start
# block has at least _MIN_BLOCK columns
LANCZOS_TOL = 1e-10
_RANK_TOL = 1e-10
_MIN_BLOCK = 8


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and orthonormal eigenvectors of a symmetric matrix.

    Column n of ``modes`` pairs with ``energies[n]``.  A column's sign is
    whatever the solver returned: the spectral sum, the P, S and JSD kernels
    and the spectral embedding's k-means give the same bits either way.
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


def _symmetric_matrix(matrix) -> np.ndarray:
    """``matrix`` as a finite square float array symmetric within 1e-10; ``InputError`` otherwise."""
    h = np.asarray(matrix, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 1:
        raise InputError("matrix must be square")
    if not np.isfinite(h).all():
        raise InputError("matrix contains non-finite entries")
    _check_symmetric(h, 1e-10, "matrix is not symmetric within 1e-10")
    return h


def _clamped(energies: np.ndarray) -> np.ndarray:
    """Snap eigenvalues within ``CLAMP_TOL`` of zero to exactly zero, in place."""
    energies[np.abs(energies) < CLAMP_TOL] = 0.0
    return energies


def eigendecompose(matrix: np.ndarray) -> EigenSystem:
    """Full dense decomposition of a symmetric matrix.

    The matrix goes to ``np.linalg.eigh`` as it is, and eigh reads only its
    lower triangle.  The upper triangle must match within 1e-10, so for
    exactly symmetric input (every ``GraphBundle.hamiltonian``) this is the
    decomposition of ``(H + H^T) / 2`` bit for bit, without that m x m copy.

    Eigenvalues within ``CLAMP_TOL`` of zero are snapped to exactly zero: for
    a connected similarity graph the ground energy is zero analytically, and
    downstream gap ratios should not see rounding noise there.  The modes are
    eigh's, C-contiguous and with no sign convention, so no m x m copy is made.
    """
    h = _symmetric_matrix(matrix)
    try:
        energies, modes = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed to converge: {exc}") from None
    return EigenSystem(energies=_clamped(energies), modes=modes)


def low_energies(matrix: np.ndarray, k: int) -> np.ndarray:
    """The k lowest eigenvalues of a symmetric matrix, ascending, without any eigenvector.

    Block Lanczos (Golub & Underwood 1977) with full reorthogonalization.
    The start block holds max(k, 8) Gaussian columns from a fixed seed, so a
    rerun gives the same bits, and an eigenvalue of multiplicity up to k is
    found as often as it occurs.  Each step multiplies the newest block by H
    and keeps only the directions the basis does not already hold (see
    :func:`_new_directions`).  The Rayleigh-Ritz values of the basis are
    taken whenever it has grown by a quarter since the last time, so their
    cost stays a fixed multiple of the last one, and not before the basis
    has grown past the start block: a random start block can hold some
    eigenvectors of a cluster of low energies but not others, and its Ritz
    pairs then pass the residual test with a low energy left out.  The
    images H V are kept next to the basis V, so H is read once per step and
    never for a residual, at the cost of a second array the size of the
    basis.  The run stops when each of the k lowest has a residual
    ||H x - theta x|| of at most ``LANCZOS_TOL`` or when the basis spans the
    whole space; if the basis stops growing before that, ``NumericError``.
    Checked and clamped like :func:`eigendecompose`.
    """
    return _low_energies(_symmetric_matrix(matrix), k)


def _low_energies(h: np.ndarray, k: int) -> np.ndarray:
    """:func:`low_energies` of an H that ``_symmetric_matrix`` has already checked."""
    m = h.shape[0]
    if not 1 <= k <= m:
        raise ParameterError(f"k must be between 1 and {m}, got {k}")
    basis = np.empty((m, 0))
    images = np.empty((m, 0))  # H V, so that a Ritz residual reads no H
    projected = np.empty((0, 0))  # V^T H V, lower triangle only: eigh reads no other entry
    block = _new_directions(np.random.default_rng(0).standard_normal((m, min(m, max(k, _MIN_BLOCK)))), basis)
    check = block.shape[1] + 1
    while block.shape[1]:
        product = h @ block
        basis = np.hstack([basis, block])
        images = np.hstack([images, product])
        projected = np.block([[projected, np.zeros((projected.shape[0], block.shape[1]))], [product.T @ basis]])
        if basis.shape[1] >= check or basis.shape[1] == m:
            ritz, residual = _ritz_pairs(images, basis, projected, k)
            if basis.shape[1] == m or (residual <= LANCZOS_TOL).all():
                return _clamped(ritz)
            check = basis.shape[1] * 5 // 4
        block = _new_directions(product, basis)
    ritz, residual = _ritz_pairs(images, basis, projected, k)
    if (residual <= LANCZOS_TOL).all():
        return _clamped(ritz)
    raise NumericError(
        f"block Lanczos stalled at {basis.shape[1]} of {m} directions with a Ritz residual "
        f"of {residual.max():.3g} above {LANCZOS_TOL}"
    )


def _ritz_pairs(images: np.ndarray, basis: np.ndarray, projected: np.ndarray, k: int):
    """The k lowest Rayleigh-Ritz values of H on the orthonormal ``basis`` and their residuals ||H x - theta x||.

    With x = V y, H x is ``images`` y, where ``images`` holds H V, so H is not read again.
    """
    ritz, vectors = np.linalg.eigh(projected)
    y = vectors[:, :k]
    return ritz[:k], np.linalg.norm(images @ y - (basis @ y) * ritz[:k], axis=0)


def _new_directions(block: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the part of span(block) that ``basis`` does not already hold.

    The block is projected off the orthonormal ``basis`` once; an SVD then
    drops the directions whose singular values do not exceed ``_RANK_TOL``
    times the largest column norm of the block, which is rounding left by
    the projection.  Dividing by a small singular value magnifies what the
    projection left along the basis, so the kept directions are projected
    once more and orthonormalized by QR.
    """
    scale = np.linalg.norm(block, axis=0).max()
    block = block - basis @ (basis.T @ block)
    u, sv, _ = np.linalg.svd(block, full_matrices=False)
    u = u[:, sv > _RANK_TOL * scale]
    u -= basis @ (basis.T @ u)
    return np.linalg.qr(u)[0]


def gap_stats(energies: np.ndarray, q: int) -> GapReport:
    """Gap diagnostics for a putative q-cluster decomposition of an ascending energy array.

    The array may be the whole spectrum or its lowest part, e_0..e_q as
    :func:`low_energies` gives it; ``low_count`` counts within that array.
    """
    e = np.asarray(energies, dtype=float)
    m = e.size
    if not 2 <= q <= m:
        raise ParameterError(f"q must be between 2 and {m}, got {q}")
    first_gap = float(e[1] - e[0])
    avg_gap = float((e[q - 1] - e[0]) / (q - 1))
    next_ratio = float(e[q] / max(e[q - 1], CLAMP_TOL)) if q < m else 0.0
    return GapReport(
        first_gap=first_gap,
        avg_gap=avg_gap,
        next_ratio=next_ratio,
        low_count=count_low_energy(e),
    )


def count_low_energy(energies: np.ndarray) -> int:
    """Number of low-energy modes, i.e. putative well-separated clusters, of an ascending energy array.

    Counts the modes below the highest spectral jump whose ratio
    E_k / max(E_{k-1}, tol) still reaches ``GAP_FACTOR``; returns 1 when no
    jump does.
    """
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1 or e.size < 2:
        raise ParameterError("need at least two eigenvalues")
    ratios = e[1:] / np.maximum(e[:-1], CLAMP_TOL)
    hits = np.nonzero(ratios >= GAP_FACTOR)[0]
    return int(hits[-1]) + 1 if hits.size else 1
