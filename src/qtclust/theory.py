"""Tight-binding validation stack: cluster orbitals, projected resolvents,
and closed-form two-level / double-well tunneling phases.

These are the analytic oracles the transport phases are checked against:
well-separated clusters behave like coupled macroscopic orbitals, and the
arguments of the projected resolvent predict the per-cluster phase plateaus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvalidBlockError, NumericError, ParameterError
from .graph import _readonly
from .transport import _check_s

BORN_ORDERS = (1, 2, 3)


def cluster_orbitals(hamiltonian: np.ndarray, partition: np.ndarray) -> np.ndarray:
    """Ground state of each principal block, embedded with zeros elsewhere.

    Returns the read-only m x q orbital matrix, one column per cluster.
    Each block of a degree-normalized Laplacian has a nonnegative ground
    state; a block whose ground state mixes signs (negative couplings) is
    rejected since it cannot serve as a cluster orbital.
    """
    h = np.asarray(hamiltonian, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InputError("hamiltonian must be square")
    labels = np.asarray(partition, dtype=int)
    m = h.shape[0]
    if labels.shape != (m,):
        raise ParameterError("partition must assign one label per node")
    if labels.min() < 0:
        raise ParameterError("labels must be nonnegative")
    q = int(labels.max()) + 1
    if q < 2:
        raise ParameterError("need at least two clusters")
    counts = np.bincount(labels, minlength=q)
    if (counts == 0).any():
        missing = int(np.nonzero(counts == 0)[0][0])
        raise ParameterError(f"partition class {missing} is empty")
    phi = np.zeros((m, q))
    for mu in range(q):
        idx = np.nonzero(labels == mu)[0]
        block = h[np.ix_(idx, idx)]
        _, vecs = np.linalg.eigh(block)
        ground = vecs[:, 0]
        if ground[np.abs(ground).argmax()] < 0.0:
            ground = -ground
        if ground.min() < -1e-8:
            raise InvalidBlockError(
                f"block {mu} ground state has mixed signs and is not a valid orbital"
            )
        ground = np.maximum(ground, 0.0)
        ground /= np.sqrt((ground * ground).sum())
        phi[idx, mu] = ground
    return _readonly(phi)


def tight_binding(hamiltonian: np.ndarray, orbitals: np.ndarray) -> np.ndarray:
    """Project the generator onto the orbital subspace.

    Returns the read-only q x q tight-binding matrix: the onsite energies on
    its diagonal, the couplings between clusters off it.
    """
    phi = np.asarray(orbitals, dtype=float)
    h = phi.T @ np.asarray(hamiltonian, dtype=float) @ phi
    return _readonly((h + h.T) / 2.0)


def resolvent_exact(tb: np.ndarray, s: float) -> np.ndarray:
    """(i s - h)^{-1} of the tight-binding matrix h, shifted so its ground energy, the dominant pole, is zero."""
    _check_s(s)
    h = np.asarray(tb, dtype=float)
    q = h.shape[0]
    shifted = h - np.linalg.eigvalsh(h)[0] * np.eye(q)
    try:
        return np.linalg.inv(1j * s * np.eye(q) - shifted)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"resolvent inversion failed: {exc}") from None


def born_expansion(tb: np.ndarray, s: float, order: int) -> np.ndarray:
    """Tunneling-path expansion of the resolvent up to ``order`` powers of the coupling.

    The onsite energies are the diagonal of the tight-binding matrix ``tb``
    and the coupling v is the rest.  Partial sums of g0 + g0 v g0 +
    g0 v g0 v g0 + ... evaluated at z = i s with the same ground-energy shift
    as the exact resolvent.  Divergence for strong coupling shows up as a
    large residual rather than an error.
    """
    if order not in BORN_ORDERS:
        raise ParameterError(f"order must be one of {BORN_ORDERS}, got {order}")
    _check_s(s)
    h = np.asarray(tb, dtype=float)
    onsite = np.diag(h) - np.linalg.eigvalsh(h)[0]
    g0 = 1.0 / (1j * s - onsite)
    total = np.diag(g0)
    term = np.diag(g0)
    v_g0 = (h - np.diag(np.diag(h))) * g0[None, :]
    for _ in range(order):
        term = term @ v_g0
        total = total + term
    return total


def predicted_phases(resolvent: np.ndarray) -> np.ndarray:
    """Per-cluster phase predictions arg(i g) in (-pi, pi]; NaN marks zero entries."""
    g = np.asarray(resolvent, dtype=complex)
    if not np.isfinite(g).all():
        raise InputError("resolvent contains non-finite entries")
    out = np.angle(1j * g)
    out[out <= -np.pi] = np.pi
    out[g == 0.0] = np.nan
    return out


def two_level_phases(gap: float, s: float) -> tuple[float, float]:
    """Closed-form phases of a symmetric two-cluster system with level splitting ``gap``.

    Returns (same-cluster, cross-cluster) phases; their difference
    pi/2 - arctan(gap / 2s) grows with s and saturates at pi/2.
    """
    _check_s(s)
    if not (np.isfinite(gap) and gap >= 0.0):
        raise ParameterError("gap must be nonnegative and finite")
    theta_same = math.atan(gap / (2.0 * s)) - math.atan(gap / s)
    theta_cross = math.pi / 2.0 - math.atan(gap / s)
    return theta_same, theta_cross


@dataclass(frozen=True)
class InstantonParams:
    """Double-well tunneling parameters: ``separation`` ell and ``quartic`` lambda.

    The quartic well lambda (x^2 - ell^2)^2 has harmonic frequency
    2 ell sqrt(2 lambda) at each minimum; tunneling events of density
    sqrt(frequency^3 / 2 pi quartic) exp(-frequency^3 / 12 quartic) split the
    degenerate ground state by 2 frequency density.
    """

    separation: float
    quartic: float

    def __post_init__(self):
        if not (self.separation > 0.0 and self.quartic > 0.0):
            raise ParameterError("separation and quartic must be positive")

    @classmethod
    def from_frequency(cls, frequency: float, quartic: float) -> "InstantonParams":
        if not (frequency > 0.0 and quartic > 0.0):
            raise ParameterError("frequency and quartic must be positive")
        return cls(frequency / (2.0 * math.sqrt(2.0 * quartic)), quartic)

    @property
    def frequency(self) -> float:
        """Harmonic frequency at each minimum."""
        return 2.0 * self.separation * math.sqrt(2.0 * self.quartic)

    @property
    def density(self) -> float:
        """Density of tunneling events."""
        frequency = self.frequency
        # the exponent overflows for vanishing quartic coupling; exp then
        # underflows to zero and the gap closes, which is the correct limit
        barrier = frequency**3 / (12.0 * self.quartic)
        if barrier > 700.0:
            return 0.0
        return math.sqrt(frequency**3 / (2.0 * math.pi * self.quartic)) * math.exp(-barrier)

    @property
    def gap(self) -> float:
        """Ground-state splitting produced by tunneling."""
        return 2.0 * self.frequency * self.density


def instanton_phases(params: InstantonParams, s: float) -> tuple[float, float]:
    """Phases of the Laplace-transformed double-well transition amplitudes.

    Must coincide with ``two_level_phases`` evaluated at the tunneling gap.
    """
    _check_s(s)
    gap = params.gap
    if gap == 0.0:
        return 0.0, math.pi / 2.0
    prefactor = 0.5 * math.sqrt(params.frequency / math.pi)
    # 1/s +- 1/(s + i gap) over the common denominator; the subtraction is
    # done symbolically so tiny gaps do not cancel catastrophically
    denom = s * (s + 1j * gap)
    stay = prefactor * (2.0 * s + 1j * gap) / denom
    hop = prefactor * (1j * gap) / denom
    return float(np.angle(stay)), float(np.angle(hop))
