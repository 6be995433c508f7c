"""Damped quantum transport: wave functions in Laplace space and their phases."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGapError, NumericError, ParameterError
from .graph import _tile_rows
from .spectral import GapReport, _symmetric_matrix

UNDERFLOW_FLOOR = 1e-300
_TINY = float(np.finfo(float).tiny)
# width of the block columns of the LDL^T in solve_source
_LDLT_BLOCK = 256

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


def solve_source(hamiltonian: np.ndarray, s: float):
    """Amplitude source of one complex symmetric LDL^T solve, for ``ensemble.run_qtc``.

    H must be square, finite and symmetric within 1e-10 (``InputError``
    otherwise), because the factorization reads one triangle of A = s I + i H,
    and is meant to be positive semidefinite, as a normalized Laplacian is:
    the factorization does not pivot (see :func:`_ldlt_in_place`).
    H is copied into one complex m x m buffer, in which A overwrites H
    (:func:`_solve_source`); the caller's H is not kept.  The source may
    be called once: ``source(init_nodes, width)`` factors A in place
    (:func:`_ldlt_in_place`) and returns an iterator over the amplitudes of
    the blocks of at most ``width`` start nodes.  It solves A psi = E, one
    unit column of E per start node, in chunks of ``_LDLT_BLOCK`` start
    nodes rounded down to a multiple of ``width`` (at least one block), so
    the factors and one chunk are live at a time; the factors are freed
    with the iterator.  A second call raises ``ParameterError``, and a chunk
    with a non-finite amplitude ``NumericError``.
    """
    return _solve_source(_buffer_holding(_symmetric_matrix(hamiltonian)), s)


def _halves(a: np.ndarray):
    """The first and the second float64 m x m half of the C-contiguous complex m x m buffer ``a``.

    H goes into the second half, where :func:`_solve_source` expands it
    into A = s I + i H; until then the first half is free for scratch.
    """
    m = a.shape[0]
    flat = a.reshape(-1).view(float)
    return flat[: m * m].reshape(m, m), flat[m * m :].reshape(m, m)


def _buffer_holding(h: np.ndarray) -> np.ndarray:
    """A new complex m x m buffer whose second half (:func:`_halves`) holds a copy of the m x m H."""
    a = np.empty(h.shape, dtype=complex)
    _halves(a)[1][...] = h
    return a


def _solve_source(a: np.ndarray, s: float):
    """:func:`solve_source` of the buffer ``a`` whose second half (:func:`_halves`) holds a checked H.

    A = s I + i H overwrites H in ``a``, with the bits of ``h * 1j``, one
    ascending row tile at a time.  Row tile [lo, hi) of A ends at float
    2 m hi <= m^2 + m hi, where the rows of H not yet read begin, so a tile
    overwrites only rows of H already read, and its own, which numpy's
    ufunc overlap handling copies before it writes (the last tiles).  A
    worker thread writing a later tile could overwrite rows another worker
    has not read, so the tiles run on the calling thread.
    """
    _check_s(s)
    m = a.shape[0]
    h = _halves(a)[1]
    step = _tile_rows(m)
    for lo in range(0, m, step):
        np.multiply(h[lo : lo + step], 1j, out=a[lo : lo + step])
    a.flat[:: m + 1] += s

    def blocks(init_nodes, width):
        nonlocal a
        if a is None:
            raise ParameterError("a solve source yields its amplitudes once; build a new source")
        init = _start_nodes(init_nodes, m)
        factors, a = a, None
        with np.errstate(over="ignore", invalid="ignore"):
            _ldlt_in_place(factors)
        return _solved_blocks(factors, init, width, s)

    return blocks


def _solved_blocks(factors: np.ndarray, init: np.ndarray, width: int, s: float):
    """Amplitudes of the start nodes ``init`` in blocks of at most ``width``, solved a chunk of blocks at a time."""
    m = factors.shape[0]
    chunk = max(width, _LDLT_BLOCK // width * width)
    for lo in range(0, init.size, chunk):
        nodes = init[lo : lo + chunk]
        amplitudes = np.zeros((m, nodes.size), dtype=complex)
        amplitudes[nodes, np.arange(nodes.size)] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            _ldlt_solve(factors, amplitudes)
        if not np.isfinite(amplitudes).all():
            raise NumericError(f"the amplitudes at s={s!r} are not finite")
        yield from (amplitudes[:, k : k + width] for k in range(0, nodes.size, width))


def _ldlt_in_place(a: np.ndarray) -> None:
    """Overwrite the complex symmetric A = s I + i H with its block LDL^T factors, reading A's lower triangle only.

    Block column k (columns k0:k1 of ``_LDLT_BLOCK``, the last one ragged)
    ends up holding D_k^-1 in its diagonal block and S = L D below it, and
    L[k+1:, k]^T = D_k^-1 S[k+1:, k]^T goes into the block row right of the
    diagonal block.  The factorization is left-looking: one GEMM subtracts
    S[k:, :k] L[k, :k]^T from block column k, whose top block is then D_k.
    No pivoting is needed.  The Hermitian part of A is s I > 0, and so is
    that of every Schur complement, so no D_k is singular; with A's real part
    positive definite and its imaginary part positive semidefinite,
    elimination without pivoting has growth factor at most 3 (Higham 1998,
    Math. Comp. 67:1591).
    """
    m = a.shape[0]
    for k0 in range(0, m, _LDLT_BLOCK):
        k1 = min(k0 + _LDLT_BLOCK, m)
        col = a[k0:, k0:k1]
        col -= a[k0:, :k0] @ a[:k0, k0:k1]
        d = np.tril(col[: k1 - k0])
        d += np.tril(d, -1).T
        col[: k1 - k0] = d_inv = np.linalg.inv(d)
        a[k0:k1, k1:] = d_inv @ col[k1 - k0 :].T


def _ldlt_solve(factors: np.ndarray, x: np.ndarray) -> None:
    """Overwrite x with A^-1 x, given the factors of A from :func:`_ldlt_in_place`; one GEMM per block and sweep."""
    m = factors.shape[0]
    starts = range(0, m, _LDLT_BLOCK)
    for k0 in starts:  # y_k = D_k^-1 (x_k - S[k, :k] y[:k])
        k1 = min(k0 + _LDLT_BLOCK, m)
        x[k0:k1] -= factors[k0:k1, :k0] @ x[:k0]
        x[k0:k1] = factors[k0:k1, k0:k1] @ x[k0:k1]
    for k0 in reversed(starts):  # x_k = y_k - L[k+1:, k]^T x[k+1:]
        k1 = min(k0 + _LDLT_BLOCK, m)
        x[k0:k1] -= factors[k0:k1, k1:] @ x[k1:]


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

    From that bound up every spectral weight 1 / (s + iE) is finite; a
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
