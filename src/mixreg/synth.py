"""Synthetic measurement ensembles used by the recovery experiments.

Two ensembles are produced, both noiseless and both built around standard
basis coefficient vectors ``beta_p = e_p``:

* the *aperture* ensemble: per class, half the measurement vectors are
  ``vhat_p + Q_p x`` for ball samples ``x`` of radius ``alpha`` and the other
  half are the mirrored ``vhat_p - Q_p x``, where ``Q_p`` spans the
  complement of the class direction.  The pairing makes every class exactly
  balanced, and each point's separation ratio equals ``||x||``.
* the *imbalance* ensemble (three classes, per-class size ``4 d``, aperture
  fixed at 0.2): classes one and two are generated as above; class three is
  generated symmetric and then every row is shifted by ``Q_3 w`` for a single
  sphere sample ``w`` of radius ``tau``, which moves its balance residual to
  exactly ``tau``.

Randomness comes from the counter-based Philox generator with one stream per
class derived from ``(seed, class index)``, so datasets are reproducible
across platforms and classes can be generated independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError
from .geometry import orthonormal_complement_bases, weighted_directions
from .model import Dataset, MixtureModel

__all__ = ["Sim1Config", "Sim2Config", "sample_ball", "sample_sphere", "gen_sim1", "gen_sim2"]

SIM1_ALPHA_MAX = 0.75
SIM2_ALPHA = 0.2
SIM2_TAU_MAX = 0.062


@dataclass(frozen=True)
class Sim1Config:
    """Aperture ensemble: k classes of n_per_class points in dimension d."""

    k: int
    d: int
    n_per_class: int
    alpha: float
    seed: int

    def __post_init__(self):
        if self.k < 2:
            raise DataValidationError("aperture ensemble requires k >= 2")
        if self.d < self.k:
            raise DataValidationError("standard-basis components require d >= k")
        if self.n_per_class < 2 or self.n_per_class % 2:
            raise DataValidationError("n_per_class must be even (mirrored halves)")
        if not 0.0 <= self.alpha <= SIM1_ALPHA_MAX:
            raise DataValidationError(f"alpha must lie in [0, {SIM1_ALPHA_MAX}]")
        if self.seed < 0:
            raise DataValidationError("seed must be nonnegative")


@dataclass(frozen=True)
class Sim2Config:
    """Imbalance ensemble in dimension d with class-three shift tau; fixed
    k = 3 classes of 4 d points each and aperture 0.2 (``SIM2_ALPHA``)."""

    d: int
    tau: float
    seed: int

    def __post_init__(self):
        if self.d < 3:
            raise DataValidationError("imbalance ensemble requires d >= 3")
        if not 0.0 <= self.tau <= SIM2_TAU_MAX:
            raise DataValidationError(f"tau must lie in [0, {SIM2_TAU_MAX}]")
        if self.seed < 0:
            raise DataValidationError("seed must be nonnegative")


def _class_rng(seed: int, class_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(class_index,))
    return np.random.Generator(np.random.Philox(ss))


def _gaussian(dim: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """A standard normal vector of length ``dim >= 1`` and its nonzero norm."""
    g = rng.standard_normal(dim)
    norm = math.sqrt(g.dot(g))  # what np.linalg.norm computes for a vector
    while norm == 0.0:  # probability zero, but keep the sample well defined
        g = rng.standard_normal(dim)
        norm = math.sqrt(g.dot(g))
    return g, norm


def sample_ball(dim: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample from the closed Euclidean ball of the given radius."""
    if dim < 0 or radius < 0:
        raise DataValidationError("dimension and radius must be nonnegative")
    if dim == 0:
        return np.zeros(0)
    g, norm = _gaussian(dim, rng)
    r = radius * rng.random() ** (1.0 / dim)  # rng.uniform() is 0 + 1 * random()
    return (r / norm) * g


def sample_sphere(dim: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample from the sphere of the given radius (exact norm)."""
    if dim < 1:
        raise DataValidationError("sphere sampling requires dim >= 1")
    if radius < 0:
        raise DataValidationError("radius must be nonnegative")
    g, norm = _gaussian(dim, rng)
    return (radius / norm) * g


def _generate(
    k: int, d: int, n_per_class: int, alpha: float, seed: int, tau: float | None = None
) -> tuple[Dataset, MixtureModel]:
    """``k`` mirrored classes of ``n_per_class`` points of aperture ``alpha``;
    with ``tau``, class three is shifted by one sphere sample of that radius."""
    model = MixtureModel(np.eye(d)[:k], np.full(k, n_per_class))
    features = []
    directions = weighted_directions(model)
    for p, (v, Q) in enumerate(zip(directions, orthonormal_complement_bases(directions))):
        rng = _class_rng(seed, p)
        vhat = v / np.linalg.norm(v)
        xs = np.stack([sample_ball(d - 1, alpha, rng) for _ in range(n_per_class // 2)])
        shifts = xs @ Q.T
        rows = np.vstack([vhat + shifts, vhat - shifts])
        if p == 2 and tau is not None:
            w = sample_sphere(d - 1, tau, rng)
            rows = rows + Q @ w
            # the shift is orthogonal to v, so no projection sign can flip
            assert np.all(rows @ v > 0.0)
        features.append(rows)
    feats = np.vstack(features)
    labels = np.repeat(np.arange(k), n_per_class)
    responses = np.einsum("ij,ij->i", feats, model.betas[labels])
    return Dataset(feats, responses, labels), model


def gen_sim1(cfg: Sim1Config) -> tuple[Dataset, MixtureModel]:
    """Generate the aperture ensemble; balanced by construction."""
    return _generate(cfg.k, cfg.d, cfg.n_per_class, cfg.alpha, cfg.seed)


def gen_sim2(cfg: Sim2Config) -> tuple[Dataset, MixtureModel]:
    """Generate the imbalance ensemble; class three is shifted by one shared
    sphere sample so its balance residual equals ``tau`` exactly."""
    return _generate(3, cfg.d, 4 * cfg.d, SIM2_ALPHA, cfg.seed, cfg.tau)
