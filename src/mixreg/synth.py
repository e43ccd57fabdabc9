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


@dataclass(frozen=True)
class Sim2Config:
    """Imbalance ensemble: k = 3, n_per_class = 4 d, aperture 0.2, shift tau."""

    d: int
    tau: float
    seed: int

    def __post_init__(self):
        if self.d < 3:
            raise DataValidationError("imbalance ensemble requires d >= 3")
        if not 0.0 <= self.tau <= SIM2_TAU_MAX:
            raise DataValidationError(f"tau must lie in [0, {SIM2_TAU_MAX}]")

    @property
    def k(self) -> int:
        return 3

    @property
    def n_per_class(self) -> int:
        return 4 * self.d

    @property
    def alpha(self) -> float:
        return SIM2_ALPHA


def _class_rng(seed: int, class_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(class_index,))
    return np.random.Generator(np.random.Philox(ss))


def sample_ball(dim: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample from the closed Euclidean ball of the given radius."""
    if dim < 0 or radius < 0:
        raise DataValidationError("dimension and radius must be nonnegative")
    if dim == 0:
        return np.zeros(0)
    g = rng.standard_normal(dim)
    norm = math.sqrt(g.dot(g))  # what np.linalg.norm computes for a vector
    while norm == 0.0:  # probability zero, but keep the sample well defined
        g = rng.standard_normal(dim)
        norm = math.sqrt(g.dot(g))
    r = radius * rng.random() ** (1.0 / dim)  # rng.uniform() is 0 + 1 * random()
    return (r / norm) * g


def sample_sphere(dim: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample from the sphere of the given radius (exact norm)."""
    if dim < 1:
        raise DataValidationError("sphere sampling requires dim >= 1")
    if radius < 0:
        raise DataValidationError("radius must be nonnegative")
    g = rng.standard_normal(dim)
    norm = math.sqrt(g.dot(g))
    while norm == 0.0:
        g = rng.standard_normal(dim)
        norm = math.sqrt(g.dot(g))
    return (radius / norm) * g


def _standard_model(k: int, d: int, n_per_class: int) -> MixtureModel:
    betas = np.eye(d)[:k]
    return MixtureModel(betas, np.full(k, n_per_class))


def _mirrored_rows(vhat: np.ndarray, Q: np.ndarray, xs: np.ndarray) -> np.ndarray:
    shifts = xs @ Q.T
    return np.vstack([vhat + shifts, vhat - shifts])


def _generate(cfg, tau: float | None = None) -> tuple[Dataset, MixtureModel]:
    """Mirrored classes for either config; with ``tau``, class three is
    shifted by one shared sphere sample of that radius."""
    model = _standard_model(cfg.k, cfg.d, cfg.n_per_class)
    half = cfg.n_per_class // 2
    features = []
    directions = weighted_directions(model)
    for p, (v, Q) in enumerate(zip(directions, orthonormal_complement_bases(directions))):
        rng = _class_rng(cfg.seed, p)
        vhat = v / np.linalg.norm(v)
        xs = np.stack([sample_ball(cfg.d - 1, cfg.alpha, rng) for _ in range(half)])
        rows = _mirrored_rows(vhat, Q, xs)
        if p == 2 and tau is not None:
            w = sample_sphere(cfg.d - 1, tau, rng)
            rows = rows + Q @ w
            # the shift is orthogonal to v, so no projection sign can flip
            assert np.all(rows @ v > 0.0)
        features.append(rows)
    feats = np.vstack(features)
    labels = np.repeat(np.arange(cfg.k), cfg.n_per_class)
    responses = np.einsum("ij,ij->i", feats, model.betas[labels])
    return Dataset(feats, responses, labels), model


def gen_sim1(cfg: Sim1Config) -> tuple[Dataset, MixtureModel]:
    """Generate the aperture ensemble; balanced by construction."""
    return _generate(cfg)


def gen_sim2(cfg: Sim2Config) -> tuple[Dataset, MixtureModel]:
    """Generate the imbalance ensemble; class three is shifted by one shared
    sphere sample so its balance residual equals ``tau`` exactly."""
    return _generate(cfg, cfg.tau)
