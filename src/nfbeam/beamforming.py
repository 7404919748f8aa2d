"""Data-phase beamforming: single-user rate and multi-user regularized
zero-forcing on channel vectors and matrices, which the caller builds.

The precoder applies RZF with regularizer M sigma^2 to the N x M matrix
of the channels it serves (from estimated or true positions) and rescales
to unit total power. Rates are evaluated against the true channels.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularChannelError
from .numerics import adjoint_product, vdot


def _check_users(H: np.ndarray) -> None:
    n, m = H.shape
    if not 1 <= m <= n:
        raise ValueError(f"{m} users on {n} antennas; need 1 to {n}")


def single_user_rate(h: np.ndarray, v: np.ndarray, sigma2: float) -> float:
    """R = log2(1 + |h^H v|^2 / sigma^2) for a unit-norm beam v."""
    snr = abs(vdot(h, v)) ** 2 / sigma2 if sigma2 > 0 else math.inf
    return math.log2(1.0 + snr) if math.isfinite(snr) else math.inf


def multiuser_precode(H_hat: np.ndarray, sigma2: float) -> np.ndarray:
    """Regularized zero-forcing on the N x M channel matrix H_hat.

    Returns the N x M matrix V ~ H (H^H H + M sigma^2 I)^{-1}, formed by
    a linear solve rather than an inverse and rescaled to unit total
    power; column u serves user u. With M = 1 this reduces to a scaled
    matched filter.
    """
    _check_users(H_hat)
    m = H_hat.shape[1]
    gram = adjoint_product(H_hat, H_hat) + m * sigma2 * np.eye(m)
    try:
        V = np.linalg.solve(gram, H_hat.conj().T).conj().T  # H gram^{-1}, as gram is Hermitian
    except np.linalg.LinAlgError as exc:
        raise SingularChannelError(f"regularized Gram matrix is singular: {exc}") from exc
    # numpy's sum, not a BLAS dot (numerics.DOT_BLOCK), so the bits hold at any thread count
    norm = math.sqrt((V.real**2 + V.imag**2).sum())
    if not np.isfinite(norm) or norm == 0:
        raise SingularChannelError("precoder collapsed; duplicate estimated positions?")
    return V * (1.0 / norm)


def multiuser_rate(H: np.ndarray, V: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-user SINR rates R_u with the N x M true channels H under the
    N x M precoder V, from the one product |H^H V|^2: user u's signal is
    the power received through column u, its interference the power
    through every other user's column."""
    _check_users(H)
    if V.shape != H.shape:
        raise ValueError(f"precoder of shape {V.shape} for channels of shape {H.shape}")
    rx = np.abs(adjoint_product(H, V)) ** 2
    signal = np.diagonal(rx)
    interference = rx.sum(axis=1) - signal
    return np.log2(1.0 + signal / (interference + sigma2))
