"""Synthetic dataset generators with known ground-truth structure.

The paper evaluates on image classifiers whose data (MNIST/CIFAR-scale) and
frameworks (PyTorch/TensorFlow) are unavailable in this environment, so we
substitute procedurally generated datasets that preserve the properties the
method depends on:

* a meaningful notion of *density* over the input space (so an operational
  profile exists and can be estimated),
* class structure learnable by small networks (so adversarial examples are
  perturbations near decision boundaries, not label noise), and
* controllable class priors (so the mismatch between balanced training data
  and a skewed operational profile — the paper's central motivation — can be
  dialled in exactly).

Two families are provided: low-dimensional geometric benchmarks (Gaussian
clusters, two moons, concentric rings) and image-like benchmarks (glyph digits
and shape scenes) rendered on small grids.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import RngLike, clip01, ensure_rng
from ..exceptions import ConfigurationError, DataError
from .dataset import Dataset


# --------------------------------------------------------------------------- #
# low-dimensional geometric benchmarks
# --------------------------------------------------------------------------- #
def make_gaussian_clusters(
    num_samples: int = 1000,
    num_classes: int = 4,
    num_features: int = 2,
    cluster_std: float = 0.06,
    class_priors: Optional[Sequence[float]] = None,
    rng: RngLike = None,
) -> Dataset:
    """Gaussian blobs, one per class, placed on a circle inside ``[0, 1]^d``.

    Parameters
    ----------
    num_samples:
        Total number of samples to draw.
    num_classes:
        Number of blobs/classes.
    num_features:
        Dimensionality of the input space (first two axes carry the circle,
        remaining axes are small-noise nuisance dimensions).
    cluster_std:
        Standard deviation of each blob.
    class_priors:
        Optional class prior used when drawing labels; uniform by default.
        This is how a ground-truth operational profile is injected.
    rng:
        Seed or generator.
    """
    if num_samples <= 0:
        raise ConfigurationError("num_samples must be positive")
    if num_classes < 2:
        raise ConfigurationError("num_classes must be >= 2")
    if num_features < 2:
        raise ConfigurationError("num_features must be >= 2")
    if cluster_std <= 0:
        raise ConfigurationError("cluster_std must be positive")
    generator = ensure_rng(rng)
    priors = _normalise_priors(class_priors, num_classes)

    angles = 2 * np.pi * np.arange(num_classes) / num_classes
    centers = np.full((num_classes, num_features), 0.5)
    centers[:, 0] = 0.5 + 0.3 * np.cos(angles)
    centers[:, 1] = 0.5 + 0.3 * np.sin(angles)

    labels = generator.choice(num_classes, size=num_samples, p=priors)
    noise = generator.normal(0.0, cluster_std, size=(num_samples, num_features))
    x = clip01(centers[labels] + noise)
    return Dataset(
        x,
        labels,
        num_classes,
        class_names=[f"cluster-{i}" for i in range(num_classes)],
        name="gaussian-clusters",
    )


def make_two_moons(
    num_samples: int = 1000,
    noise: float = 0.05,
    class_priors: Optional[Sequence[float]] = None,
    rng: RngLike = None,
) -> Dataset:
    """Two interleaving half circles in ``[0, 1]^2`` (binary classification)."""
    if num_samples <= 1:
        raise ConfigurationError("num_samples must be at least 2")
    if noise < 0:
        raise ConfigurationError("noise must be non-negative")
    generator = ensure_rng(rng)
    priors = _normalise_priors(class_priors, 2)
    labels = generator.choice(2, size=num_samples, p=priors)
    t = generator.random(num_samples) * np.pi
    x = np.empty((num_samples, 2))
    upper = labels == 0
    x[upper, 0] = np.cos(t[upper])
    x[upper, 1] = np.sin(t[upper])
    x[~upper, 0] = 1.0 - np.cos(t[~upper])
    x[~upper, 1] = 0.5 - np.sin(t[~upper])
    x += generator.normal(0.0, noise, size=x.shape)
    # map from roughly [-1, 2] x [-0.6, 1.1] into [0, 1]^2
    x[:, 0] = (x[:, 0] + 1.2) / 3.4
    x[:, 1] = (x[:, 1] + 0.8) / 2.1
    return Dataset(
        clip01(x), labels, 2, class_names=["upper-moon", "lower-moon"], name="two-moons"
    )


def make_concentric_rings(
    num_samples: int = 1000,
    num_rings: int = 3,
    ring_width: float = 0.03,
    class_priors: Optional[Sequence[float]] = None,
    rng: RngLike = None,
) -> Dataset:
    """Concentric rings around the centre of ``[0, 1]^2``, one class per ring."""
    if num_rings < 2:
        raise ConfigurationError("num_rings must be >= 2")
    if ring_width <= 0:
        raise ConfigurationError("ring_width must be positive")
    generator = ensure_rng(rng)
    priors = _normalise_priors(class_priors, num_rings)
    labels = generator.choice(num_rings, size=num_samples, p=priors)
    radii = 0.1 + 0.35 * (labels + 1) / num_rings
    radii = radii + generator.normal(0.0, ring_width, size=num_samples)
    angles = generator.random(num_samples) * 2 * np.pi
    x = np.stack(
        [0.5 + radii * np.cos(angles), 0.5 + radii * np.sin(angles)], axis=1
    )
    return Dataset(
        clip01(x),
        labels,
        num_rings,
        class_names=[f"ring-{i}" for i in range(num_rings)],
        name="concentric-rings",
    )


# --------------------------------------------------------------------------- #
# image-like benchmarks
# --------------------------------------------------------------------------- #
_GLYPH_TEMPLATES: Dict[int, List[str]] = {
    0: [
        "..####..",
        ".#....#.",
        "#......#",
        "#......#",
        "#......#",
        "#......#",
        ".#....#.",
        "..####..",
    ],
    1: [
        "...##...",
        "..###...",
        "...##...",
        "...##...",
        "...##...",
        "...##...",
        "...##...",
        ".######.",
    ],
    2: [
        ".#####..",
        "#.....#.",
        "......#.",
        ".....#..",
        "...##...",
        "..#.....",
        ".#......",
        "########",
    ],
    3: [
        ".#####..",
        "......#.",
        "......#.",
        "..####..",
        "......#.",
        "......#.",
        "......#.",
        ".#####..",
    ],
    4: [
        "....##..",
        "...#.#..",
        "..#..#..",
        ".#...#..",
        "########",
        ".....#..",
        ".....#..",
        ".....#..",
    ],
    5: [
        "########",
        "#.......",
        "#.......",
        "######..",
        "......#.",
        "......#.",
        "#.....#.",
        ".#####..",
    ],
    6: [
        "..####..",
        ".#......",
        "#.......",
        "######..",
        "#.....#.",
        "#.....#.",
        "#.....#.",
        ".#####..",
    ],
    7: [
        "########",
        "......#.",
        ".....#..",
        "....#...",
        "...#....",
        "..#.....",
        "..#.....",
        "..#.....",
    ],
    8: [
        ".#####..",
        "#.....#.",
        "#.....#.",
        ".#####..",
        "#.....#.",
        "#.....#.",
        "#.....#.",
        ".#####..",
    ],
    9: [
        ".#####..",
        "#.....#.",
        "#.....#.",
        ".######.",
        "......#.",
        "......#.",
        ".....#..",
        ".####...",
    ],
}

_SHAPE_NAMES = ("circle", "square", "triangle", "cross")


def _normalise_priors(
    class_priors: Optional[Sequence[float]], num_classes: int
) -> np.ndarray:
    if class_priors is None:
        return np.full(num_classes, 1.0 / num_classes)
    priors = np.asarray(class_priors, dtype=float)
    if priors.shape != (num_classes,):
        raise DataError(
            f"class_priors must have length {num_classes}, got shape {priors.shape}"
        )
    if np.any(priors < 0) or priors.sum() <= 0:
        raise DataError("class_priors must be non-negative and sum to a positive value")
    return priors / priors.sum()


def _template_to_array(template: List[str]) -> np.ndarray:
    rows = [[1.0 if ch == "#" else 0.0 for ch in line] for line in template]
    return np.asarray(rows, dtype=float)


def _place_glyph(
    glyph: np.ndarray,
    image_size: int,
    shift: Tuple[int, int],
) -> np.ndarray:
    image = np.zeros((image_size, image_size), dtype=float)
    gh, gw = glyph.shape
    top = (image_size - gh) // 2 + shift[0]
    left = (image_size - gw) // 2 + shift[1]
    top = min(max(top, 0), image_size - gh)
    left = min(max(left, 0), image_size - gw)
    image[top : top + gh, left : left + gw] = glyph
    return image


def make_glyph_digits(
    num_samples: int = 2000,
    image_size: int = 12,
    num_classes: int = 10,
    noise: float = 0.08,
    max_shift: int = 2,
    intensity_jitter: float = 0.15,
    class_priors: Optional[Sequence[float]] = None,
    rng: RngLike = None,
) -> Dataset:
    """Procedurally rendered digit-like glyph images (MNIST stand-in).

    Each sample is an ``image_size x image_size`` grayscale image containing
    one of ten 8x8 digit glyph templates, randomly shifted, intensity-jittered
    and corrupted with Gaussian pixel noise, then flattened to a feature row.
    """
    if not 2 <= num_classes <= 10:
        raise ConfigurationError("num_classes must be between 2 and 10 for glyph digits")
    if image_size < 8:
        raise ConfigurationError("image_size must be at least 8 to hold the glyphs")
    if num_samples <= 0:
        raise ConfigurationError("num_samples must be positive")
    if noise < 0 or intensity_jitter < 0 or max_shift < 0:
        raise ConfigurationError("noise, intensity_jitter and max_shift must be non-negative")
    generator = ensure_rng(rng)
    priors = _normalise_priors(class_priors, num_classes)
    glyphs = {label: _template_to_array(_GLYPH_TEMPLATES[label]) for label in range(num_classes)}

    labels = generator.choice(num_classes, size=num_samples, p=priors)
    images = np.zeros((num_samples, image_size * image_size), dtype=float)
    max_feasible_shift = min(max_shift, (image_size - 8) // 2) if image_size > 8 else 0
    for i, label in enumerate(labels):
        shift = (
            int(generator.integers(-max_feasible_shift, max_feasible_shift + 1)),
            int(generator.integers(-max_feasible_shift, max_feasible_shift + 1)),
        )
        image = _place_glyph(glyphs[int(label)], image_size, shift)
        intensity = 1.0 - generator.random() * intensity_jitter
        image = image * intensity
        image = image + generator.normal(0.0, noise, size=image.shape)
        images[i] = image.ravel()
    np.clip(images, 0.0, 1.0, out=images)
    return Dataset(
        images,
        labels,
        num_classes,
        class_names=[str(d) for d in range(num_classes)],
        image_shape=(1, image_size, image_size),
        name="glyph-digits",
    )


def _render_shape(
    shape: str, image_size: int, center: Tuple[float, float], radius: float
) -> np.ndarray:
    yy, xx = np.mgrid[0:image_size, 0:image_size]
    cy, cx = center
    image = np.zeros((image_size, image_size), dtype=float)
    if shape == "circle":
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2
    elif shape == "square":
        mask = (np.abs(yy - cy) <= radius) & (np.abs(xx - cx) <= radius)
    elif shape == "triangle":
        mask = (yy >= cy - radius) & (yy <= cy + radius)
        half_width = (yy - (cy - radius)) / 2.0
        mask &= np.abs(xx - cx) <= half_width
    elif shape == "cross":
        bar = max(1.0, radius / 2.5)
        vertical = (np.abs(xx - cx) <= bar) & (np.abs(yy - cy) <= radius)
        horizontal = (np.abs(yy - cy) <= bar) & (np.abs(xx - cx) <= radius)
        mask = vertical | horizontal
    else:  # pragma: no cover - guarded by caller
        raise ConfigurationError(f"unknown shape {shape!r}")
    image[mask] = 1.0
    return image


def make_shape_scenes(
    num_samples: int = 2000,
    image_size: int = 14,
    noise: float = 0.08,
    class_priors: Optional[Sequence[float]] = None,
    rng: RngLike = None,
) -> Dataset:
    """Images containing a single geometric shape (circle/square/triangle/cross).

    A lightweight stand-in for object-recognition workloads (e.g. traffic-sign
    shapes in the autonomous-driving scenarios the paper motivates).
    """
    if image_size < 8:
        raise ConfigurationError("image_size must be at least 8")
    if num_samples <= 0:
        raise ConfigurationError("num_samples must be positive")
    if noise < 0:
        raise ConfigurationError("noise must be non-negative")
    generator = ensure_rng(rng)
    num_classes = len(_SHAPE_NAMES)
    priors = _normalise_priors(class_priors, num_classes)
    labels = generator.choice(num_classes, size=num_samples, p=priors)
    images = np.zeros((num_samples, image_size * image_size), dtype=float)
    for i, label in enumerate(labels):
        radius = generator.uniform(image_size * 0.18, image_size * 0.3)
        margin = radius + 1
        cy = generator.uniform(margin, image_size - margin)
        cx = generator.uniform(margin, image_size - margin)
        image = _render_shape(_SHAPE_NAMES[int(label)], image_size, (cy, cx), radius)
        intensity = generator.uniform(0.7, 1.0)
        image = image * intensity + generator.normal(0.0, noise, size=image.shape)
        images[i] = clip01(image).ravel()
    return Dataset(
        images,
        labels,
        num_classes,
        class_names=list(_SHAPE_NAMES),
        image_shape=(1, image_size, image_size),
        name="shape-scenes",
    )


_GENERATORS = {
    "gaussian-clusters": make_gaussian_clusters,
    "two-moons": make_two_moons,
    "concentric-rings": make_concentric_rings,
    "glyph-digits": make_glyph_digits,
    "shape-scenes": make_shape_scenes,
}


def make_dataset(name: str, **kwargs) -> Dataset:
    """Create a synthetic dataset by name (see :data:`available_datasets`)."""
    if name not in _GENERATORS:
        raise ConfigurationError(
            f"unknown dataset {name!r}; expected one of {sorted(_GENERATORS)}"
        )
    return _GENERATORS[name](**kwargs)


def available_datasets() -> List[str]:
    """Names accepted by :func:`make_dataset`."""
    return sorted(_GENERATORS)


__all__ = [
    "make_gaussian_clusters",
    "make_two_moons",
    "make_concentric_rings",
    "make_glyph_digits",
    "make_shape_scenes",
    "make_dataset",
    "available_datasets",
]
