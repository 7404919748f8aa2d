"""Data-phase beamforming: single-user rate and multi-user regularized
zero-forcing from (estimated or true) user positions.

The multi-user precoder reconstructs each user's channel from its
position label and applies RZF with regularizer M sigma^2, then rescales
to unit total power. Rates are always evaluated against the true
channels.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .channel import ArrayConfig, PolarPoint, los_channel
from .errors import SingularChannelError


def single_user_rate(cfg: ArrayConfig, p: PolarPoint, v: np.ndarray, sigma2: float) -> float:
    """R = log2(1 + |h^H v|^2 / sigma^2) for a unit-norm beam v."""
    h = los_channel(cfg, p)
    snr = abs(np.vdot(h, v)) ** 2 / sigma2 if sigma2 > 0 else math.inf
    return math.log2(1.0 + snr) if math.isfinite(snr) else math.inf


def multiuser_precode(cfg: ArrayConfig, positions: Sequence[PolarPoint],
                      sigma2: float) -> np.ndarray:
    """Regularized zero-forcing on channels rebuilt from position labels.

    Returns the N x M matrix V ~ H (H^H H + M sigma^2 I)^{-1}, rescaled
    to unit total power; column u serves user u. With M = 1 this reduces
    to a scaled matched filter.
    """
    if len(positions) == 0:
        raise ValueError("need at least one user")
    if len(positions) > cfg.n_antennas:
        raise ValueError(f"{len(positions)} users exceed {cfg.n_antennas} antennas")
    H = np.column_stack([los_channel(cfg, p) for p in positions])
    m = H.shape[1]
    gram = H.conj().T @ H + m * sigma2 * np.eye(m)
    try:
        V = H @ np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularChannelError(f"regularized Gram matrix is singular: {exc}") from exc
    norm = np.linalg.norm(V)
    if not np.isfinite(norm) or norm == 0:
        raise SingularChannelError("precoder collapsed; duplicate estimated positions?")
    return V * (1.0 / norm)


def multiuser_rate(cfg: ArrayConfig, users: Sequence[PolarPoint],
                   V: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-user SINR rates R_u with true channels under the N x M
    precoder V; interference is the power received from every other
    user's column."""
    if V.shape[1] != len(users):
        raise ValueError(f"precoder has {V.shape[1]} columns for {len(users)} users")
    rates = np.empty(len(users))
    for u, p in enumerate(users):
        h = los_channel(cfg, p)
        rx = np.abs(h.conj() @ V) ** 2
        signal = rx[u]
        interference = rx.sum() - signal
        rates[u] = math.log2(1.0 + signal / (interference + sigma2))
    return rates
