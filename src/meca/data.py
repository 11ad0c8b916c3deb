"""Dataset provisioning: synthetic domain-shift generators, IDX ingestion,
and CSV import/export.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    BadParamsError,
    CountMismatchError,
    EmptyDatasetError,
    ParseError,
    TruncatedFileError,
)
from .network import LabeledBatch, UnlabeledBatch

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

BLOB_RADIUS = 4.0


@dataclass
class Dataset:
    """Column-wise inputs with optional one-hot labels."""

    inputs: np.ndarray            # (d0, n)
    labels: np.ndarray | None     # (n, K) one-hot, or None
    domain_tag: str = ""

    @property
    def n(self) -> int:
        return self.inputs.shape[1]

    @property
    def dim(self) -> int:
        return self.inputs.shape[0]

    def as_labeled_batch(self) -> LabeledBatch:
        if self.labels is None:
            raise BadParamsError(f"dataset {self.domain_tag!r} has no labels")
        return LabeledBatch(self.inputs, self.labels)

    def as_unlabeled_batch(self) -> UnlabeledBatch:
        return UnlabeledBatch(self.inputs)


@dataclass(frozen=True)
class ShiftSpec:
    """Affine domain shift: rotate the first two coordinates, scale,
    translate, then add isotropic Gaussian noise."""

    rotation_deg: float = 0.0
    translation: tuple[float, ...] = ()
    scale: float = 1.0
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.scale <= 0.0:
            raise BadParamsError(f"scale must be > 0, got {self.scale}")
        if self.noise_sigma < 0.0:
            raise BadParamsError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


IDENTITY_SHIFT = ShiftSpec()

# Desk-scale stand-in for a real covariate shift: strong enough that a
# source-only model visibly degrades, weak enough that alignment recovers it.
ROTATED_BLOBS_SHIFT = ShiftSpec(
    rotation_deg=30.0, translation=(1.0, -1.0), scale=1.3, noise_sigma=0.2
)
MOONS_SHIFT = ShiftSpec(
    rotation_deg=25.0, translation=(0.7, -0.7), scale=1.2, noise_sigma=0.15
)


def one_hot(classes: np.ndarray, k: int) -> np.ndarray:
    labels = np.zeros((classes.size, k))
    labels[np.arange(classes.size), classes] = 1.0
    return labels


def gen_blobs(k_classes: int, per_class: int, dim: int, seed: int) -> Dataset:
    """Gaussian blobs with class means on a circle of radius 4 in the first
    two coordinates and unit isotropic noise everywhere; deterministic per seed.
    """
    if k_classes < 2:
        raise BadParamsError(f"need k_classes >= 2, got {k_classes}")
    if dim < 2:
        raise BadParamsError(f"need dim >= 2, got {dim}")
    if per_class < 1:
        raise BadParamsError(f"need per_class >= 1, got {per_class}")
    rng = np.random.default_rng(seed)
    n = k_classes * per_class
    classes = np.repeat(np.arange(k_classes), per_class)
    angles = 2.0 * np.pi * classes / k_classes
    means = np.zeros((dim, n))
    means[0] = BLOB_RADIUS * np.cos(angles)
    means[1] = BLOB_RADIUS * np.sin(angles)
    inputs = means + rng.standard_normal((dim, n))
    return Dataset(inputs, one_hot(classes, k_classes), domain_tag="blobs")


def gen_moons(per_class: int, dim: int, seed: int) -> Dataset:
    """Two interleaving half-circles of radius 4 in the first two coordinates,
    unit noise in the remaining ones.
    """
    if dim < 2:
        raise BadParamsError(f"need dim >= 2, got {dim}")
    if per_class < 1:
        raise BadParamsError(f"need per_class >= 1, got {per_class}")
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, np.pi, size=per_class * 2)
    classes = np.repeat(np.arange(2), per_class)
    x = np.where(
        classes == 0, BLOB_RADIUS * np.cos(t), BLOB_RADIUS - BLOB_RADIUS * np.cos(t)
    )
    y = np.where(
        classes == 0, BLOB_RADIUS * np.sin(t), 0.5 * BLOB_RADIUS - BLOB_RADIUS * np.sin(t)
    )
    inputs = np.zeros((dim, per_class * 2))
    inputs[0] = x + 0.3 * rng.standard_normal(per_class * 2)
    inputs[1] = y + 0.3 * rng.standard_normal(per_class * 2)
    if dim > 2:
        inputs[2:] = rng.standard_normal((dim - 2, per_class * 2))
    return Dataset(inputs, one_hot(classes, 2), domain_tag="moons")


def apply_shift(ds: Dataset, spec: ShiftSpec, seed: int) -> Dataset:
    """x -> scale * R(rotation) x + translation + gaussian(0, sigma^2).

    Rotation acts in the first two coordinates; labels are preserved (they are
    used only for evaluation).  The identity spec is an exact identity.
    """
    inputs = ds.inputs.copy()
    dim = ds.dim
    if spec.rotation_deg != 0.0:
        if dim < 2:
            raise BadParamsError("rotation needs dim >= 2")
        theta = np.deg2rad(spec.rotation_deg)
        c, s = np.cos(theta), np.sin(theta)
        top = inputs[:2].copy()
        inputs[0] = c * top[0] - s * top[1]
        inputs[1] = s * top[0] + c * top[1]
    if spec.scale != 1.0:
        inputs = spec.scale * inputs
    if spec.translation:
        shift = np.asarray(spec.translation, dtype=np.float64)
        if shift.size > dim:
            raise BadParamsError(
                f"translation length {shift.size} exceeds dim {dim}"
            )
        inputs[: shift.size] += shift[:, None]
    if spec.noise_sigma != 0.0:
        rng = np.random.default_rng(seed)
        inputs = inputs + spec.noise_sigma * rng.standard_normal(inputs.shape)
    labels = None if ds.labels is None else ds.labels.copy()
    return Dataset(inputs, labels, domain_tag=ds.domain_tag + "+shift")


def rotated_blobs_benchmark(
    seed: int, per_class: int = 125, k_classes: int = 4, dim: int = 16
) -> tuple[Dataset, Dataset]:
    """The standard desk-scale adaptation pair: 4-class blobs in 16-d with a
    rotated, scaled, translated, renoised target domain.
    """
    source = gen_blobs(k_classes, per_class, dim, seed)
    source.domain_tag = "source"
    base = gen_blobs(k_classes, per_class, dim, seed + 1)
    target = apply_shift(base, ROTATED_BLOBS_SHIFT, seed + 2)
    target.domain_tag = "target"
    return source, target


def moons_benchmark(
    seed: int, per_class: int = 250, dim: int = 8
) -> tuple[Dataset, Dataset]:
    source = gen_moons(per_class, dim, seed)
    source.domain_tag = "source"
    base = gen_moons(per_class, dim, seed + 1)
    target = apply_shift(base, MOONS_SHIFT, seed + 2)
    target.domain_tag = "target"
    return source, target


def _read_be_u32(blob: bytes, offset: int, path) -> int:
    if offset + 4 > len(blob):
        raise TruncatedFileError(f"{path}: truncated header")
    return struct.unpack_from(">I", blob, offset)[0]


def read_idx(images_path, labels_path=None) -> Dataset:
    """Parse MNIST-style IDX files: big-endian magic and dimension sizes, raw
    u8 payload.  Pixels are scaled to [0, 1]; labels are one-hot encoded with
    K = max label + 1.  A file that declares 0 images raises EmptyDatasetError.
    """
    with open(images_path, "rb") as fh:
        blob = fh.read()
    magic = _read_be_u32(blob, 0, images_path)
    if magic != IDX_IMAGE_MAGIC:
        raise BadMagicError(f"{images_path}: magic {magic:#010x}, expected {IDX_IMAGE_MAGIC:#010x}")
    count = _read_be_u32(blob, 4, images_path)
    rows = _read_be_u32(blob, 8, images_path)
    cols = _read_be_u32(blob, 12, images_path)
    if count == 0:
        raise EmptyDatasetError(f"{images_path}: declares 0 images")
    payload = count * rows * cols
    if len(blob) < 16 + payload:
        raise TruncatedFileError(
            f"{images_path}: declared {payload} pixel bytes, found {len(blob) - 16}"
        )
    pixels = np.frombuffer(blob, dtype=np.uint8, count=payload, offset=16)
    inputs = (pixels.reshape(count, rows * cols).T).astype(np.float64) / 255.0

    labels = None
    if labels_path is not None:
        with open(labels_path, "rb") as fh:
            lblob = fh.read()
        lmagic = _read_be_u32(lblob, 0, labels_path)
        if lmagic != IDX_LABEL_MAGIC:
            raise BadMagicError(
                f"{labels_path}: magic {lmagic:#010x}, expected {IDX_LABEL_MAGIC:#010x}"
            )
        lcount = _read_be_u32(lblob, 4, labels_path)
        if lcount != count:
            raise CountMismatchError(f"{lcount} labels for {count} images")
        if len(lblob) < 8 + lcount:
            raise TruncatedFileError(
                f"{labels_path}: declared {lcount} labels, found {len(lblob) - 8}"
            )
        raw = np.frombuffer(lblob, dtype=np.uint8, count=lcount, offset=8)
        labels = one_hot(raw.astype(np.int64), int(raw.max()) + 1)
    return Dataset(inputs, labels, domain_tag="idx")


def format_float(x: float) -> str:
    """17 significant digits: enough for any float64 to read back exactly."""
    return format(float(x), ".17g")


def write_csv(ds: Dataset, path) -> None:
    """Header f0..f{d-1},label; label is the class index, -1 when absent;
    floats printed with 17 significant digits so the round trip is exact.
    """
    classes = (
        np.full(ds.n, -1, dtype=np.int64)
        if ds.labels is None
        else np.argmax(ds.labels, axis=1)
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([f"f{i}" for i in range(ds.dim)] + ["label"]) + "\n")
        for j in range(ds.n):
            row = [format_float(v) for v in ds.inputs[:, j]]
            row.append(str(int(classes[j])))
            fh.write(",".join(row) + "\n")


def read_csv(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].split(",")
    if len(header) < 2 or header[-1] != "label":
        raise ParseError(f"{path}: expected header f0..f{{d-1}},label")
    dim = len(header) - 1
    if header[:dim] != [f"f{i}" for i in range(dim)]:
        raise ParseError(f"{path}: unexpected feature column names")
    n = len(lines) - 1
    if n == 0:
        raise EmptyDatasetError(f"{path}: no data rows")
    inputs = np.empty((dim, n))
    classes = np.empty(n, dtype=np.int64)
    for j, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != dim + 1:
            raise ParseError(f"{path}: row {j + 1} has {len(parts)} fields, expected {dim + 1}")
        try:
            inputs[:, j] = [float(p) for p in parts[:dim]]
            label = float(parts[dim])
        except ValueError as exc:
            raise ParseError(f"{path}: row {j + 1}: {exc}") from None
        if label != int(label):
            raise ParseError(f"{path}: row {j + 1}: non-integer label {parts[dim]}")
        classes[j] = int(label)
    if np.all(classes == -1):
        labels = None
    elif np.any(classes < 0):
        raise ParseError(f"{path}: mix of labeled and unlabeled rows")
    else:
        labels = one_hot(classes, int(classes.max()) + 1)
    return Dataset(inputs, labels, domain_tag=Path(path).stem)
