"""Generators for the seven benchmark simulation settings.

Settings 1-4 have linear (or close-to-linear) center/radius relationships,
5-7 nonlinear ones; setting 7 has five predictor intervals. Each setting is
a pure function of (id, n, seed): identical arguments give bit-identical
frames. Frames keep the generated center/radius values as drawn; response
radii are never clamped, so settings whose error mean is negative can emit
rows with a negative response radius (see frame.coherence_report).

Dataset-level hyper-draws (the intercept/scale draws of settings 3 and 4)
happen once per generated frame, before the per-row draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnknownSettingError
from .frame import IntervalFrame
from .rng import stream

SETTING_IDS = (1, 2, 3, 4, 5, 6, 7)

# gamma draws use shape-scale; recorded here so results stay auditable
GAMMA_PARAMETERIZATION = "shape-scale"


@dataclass(frozen=True)
class SimSetting:
    """One simulated dataset request: setting id, size, seed."""

    id: int
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.id not in SETTING_IDS:
            raise UnknownSettingError(f"setting id must be in 1..7, got {self.id}")
        if self.n < 2:
            raise UnknownSettingError(f"need n >= 2 rows, got {self.n}")


def _norm_cdf(x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    from scipy.special import ndtr  # imported here: it doubles the start-up of every ivf command

    return ndtr((x - mu) / sigma)


def simulate(setting: SimSetting) -> IntervalFrame:
    """Draw one dataset for the given setting."""
    rng = stream("simulate", setting.id, setting.n, setting.seed)
    n = setting.n
    sid = setting.id

    if sid == 1:
        xc = rng.normal(5.0, 2.0, n)
        xr = rng.uniform(0.5, 1.5, n)
        eps_c = rng.normal(0.0, 2.0, n)
        eps_r = rng.normal(0.5, 0.3, n)
        yc = 2.0 * xc + 5.0 + eps_c
        yr = 2.0 * xr + eps_r
    elif sid == 2:
        xc = rng.uniform(0.0, 20.0, n)
        xr = rng.uniform(10.0, 11.0, n)
        eps_c = rng.normal(0.0, 5.0, n)
        eps_r = rng.normal(-15.0, 0.5, n)
        yc = 2.0 * xc + 5.0 + eps_c
        yr = 2.0 * xr + eps_r
    elif sid == 3:
        eta = rng.uniform(0.0, 4.0)
        sigma = rng.uniform(3.0, 4.0)
        theta = rng.uniform(0.0, 2.0) * 50.0 / n  # (n/50) * theta ~ U(0, 2)
        xc = rng.normal(5.0, 5.0, n)
        xr = rng.uniform(10.0, 15.0, n)
        eps_c = rng.normal(-5.0, sigma, n)
        eps_r = rng.normal(-15.0, 1.0, n)
        yc = 10.0 * xc + 20.0 * xr + eta + eps_c
        yr = 2.0 * xr + theta + eps_r
    elif sid == 4:
        var_c = rng.uniform(15.0, 20.0)
        var_r = rng.uniform(0.0, 1.0)
        xc = rng.normal(5.0, 0.9, n)
        xr = rng.normal(5.0, 10.0, n)
        eps_c = rng.normal(0.0, np.sqrt(var_c), n)
        eps_r = rng.normal(1.0, np.sqrt(var_r), n)
        yc = 0.22 * np.exp(xc) + eps_c
        yr = _norm_cdf(xr, 2.0, 2.0) + eps_r
    elif sid == 5:
        xc = rng.normal(5.0, 2.0, n)
        xr = rng.uniform(0.5, 1.5, n)
        eps_c = rng.normal(0.0, 0.5, n)
        eps_r = rng.normal(0.0, 0.2, n)
        yc = 6.0 + 4.0 * np.sin(0.25 * np.pi * xc) + eps_c
        yr = xr + 0.5 + eps_r
    elif sid == 6:
        xc = rng.normal(5.0, 2.0, n)
        xr = rng.uniform(0.25, 0.5, n)
        eps_c = rng.normal(0.0, 0.5, n)
        eps_r = rng.normal(0.0, 0.1, n)
        yc = 6.0 + 2.0 * xr + np.sin(0.253 * np.pi * xc) + eps_c
        yr = np.abs(-0.3 * xc * xr + 0.5) + eps_r
    else:
        return _simulate_setting7(rng, n)

    return IntervalFrame(("x1",), xc[:, None], xr[:, None], yc, yr)


def _simulate_setting7(rng: np.random.Generator, n: int) -> IntervalFrame:
    xc = np.column_stack(
        [
            rng.normal(5.0, 3.0, n),
            rng.beta(0.5, 0.5, n),
            rng.normal(10.0, 3.5, n),
            rng.uniform(0.5, 1.5, n),
            rng.normal(8.0, 3.5, n),
        ]
    )
    u1 = rng.uniform(0.0, 0.5, n)
    u2 = rng.uniform(0.0, 0.5, n)
    tau1 = rng.normal(0.0, 0.2, n)
    tau2 = rng.normal(0.0, 0.2, n)
    v1 = u1 + np.exp(-0.5 * rng.gamma(3.0, 2.0, n) + tau1)
    v2 = u2 + np.exp(-0.5 * rng.beta(1.0, 3.0, n) + tau2)
    xr = np.column_stack(
        [
            2.0 * v1 / (1.0 + v1),
            3.0 * v2 / (1.0 + v2),
            rng.normal(10.0, 3.0, n),
            rng.uniform(2.5, 3.5, n),
            rng.beta(2.0, 5.0, n),
        ]
    )
    eps_c = rng.normal(0.0, 1.0, n)
    eps_r = rng.normal(-3.0, 0.15, n)
    c = xc
    yc = (
        (c[:, 0] + c[:, 0] ** 2) * (c[:, 1] + c[:, 1] ** 2)
        - (c[:, 2] + c[:, 2] ** 2) * (c[:, 3] + c[:, 3] ** 2)
        - c[:, 4]
        + eps_c
    )
    r = xr
    yr = r[:, 1] ** 2 / 5.0 + 0.1 * r[:, 2] - 5.0 * (r[:, 0] * r[:, 3] + r[:, 4]) + 4.0 + eps_r
    names = tuple(f"x{i}" for i in range(1, 6))
    return IntervalFrame(names, xc, xr, yc, yr)
