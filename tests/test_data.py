import struct

import numpy as np
import pytest

from meca import data
from meca.alignment import raw_covariance
from meca.data import (
    Dataset,
    ShiftSpec,
    apply_shift,
    gen_blobs,
    gen_moons,
    moons_benchmark,
    read_csv,
    read_idx,
    rotated_blobs_benchmark,
    write_csv,
)
from meca.errors import (
    BadMagicError,
    BadParamsError,
    CountMismatchError,
    EmptyDatasetError,
    ParseError,
    TruncatedFileError,
)


def idx_image_bytes(images: np.ndarray) -> bytes:
    n, rows, cols = images.shape
    return struct.pack(">IIII", 0x00000803, n, rows, cols) + images.astype(np.uint8).tobytes()


def idx_label_bytes(labels) -> bytes:
    return struct.pack(">II", 0x00000801, len(labels)) + bytes(labels)


class TestGenBlobs:
    def test_shapes_and_balance(self):
        ds = gen_blobs(k_classes=2, per_class=100, dim=2, seed=1)
        assert ds.inputs.shape == (2, 200)
        assert ds.labels.shape == (200, 2)
        assert np.allclose(ds.labels.sum(axis=0), [100, 100])

    def test_determinism(self):
        a = gen_blobs(3, 50, 4, seed=9)
        b = gen_blobs(3, 50, 4, seed=9)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_class_means_on_circle(self):
        ds = gen_blobs(4, 2000, 5, seed=0)
        classes = np.argmax(ds.labels, axis=1)
        for k in range(4):
            mean = ds.inputs[:2, classes == k].mean(axis=1)
            angle = 2.0 * np.pi * k / 4
            assert np.allclose(mean, [4 * np.cos(angle), 4 * np.sin(angle)], atol=0.15)
        # remaining coordinates are pure noise
        assert np.allclose(ds.inputs[2:].mean(axis=1), 0.0, atol=0.1)

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            gen_blobs(1, 10, 2, seed=0)
        with pytest.raises(BadParamsError):
            gen_blobs(2, 10, 1, seed=0)


class TestApplyShift:
    def test_identity_is_exact(self):
        ds = gen_blobs(2, 20, 3, seed=0)
        out = apply_shift(ds, ShiftSpec(), seed=5)
        assert np.array_equal(out.inputs, ds.inputs)
        assert np.array_equal(out.labels, ds.labels)

    def test_hand_rotation(self):
        ds = Dataset(np.array([[2.0], [0.0], [1.0]]), None)
        out = apply_shift(ds, ShiftSpec(rotation_deg=30.0), seed=0)
        assert out.inputs[:, 0] == pytest.approx(
            [2.0 * np.cos(np.pi / 6), 2.0 * np.sin(np.pi / 6), 1.0]
        )

    def test_scale_quadruples_covariance(self):
        ds = gen_blobs(2, 50, 3, seed=1)
        out = apply_shift(ds, ShiftSpec(scale=2.0), seed=0)
        assert np.allclose(raw_covariance(out.inputs), 4.0 * raw_covariance(ds.inputs))

    def test_translation_padding(self):
        ds = Dataset(np.zeros((4, 3)), None)
        out = apply_shift(ds, ShiftSpec(translation=(1.0, -1.0)), seed=0)
        assert np.allclose(out.inputs[0], 1.0)
        assert np.allclose(out.inputs[1], -1.0)
        assert np.allclose(out.inputs[2:], 0.0)

    def test_translation_too_long(self):
        ds = Dataset(np.zeros((2, 3)), None)
        with pytest.raises(BadParamsError):
            apply_shift(ds, ShiftSpec(translation=(1.0, 2.0, 3.0)), seed=0)

    def test_noise_determinism(self):
        ds = gen_blobs(2, 30, 2, seed=2)
        a = apply_shift(ds, ShiftSpec(noise_sigma=0.5), seed=7)
        b = apply_shift(ds, ShiftSpec(noise_sigma=0.5), seed=7)
        assert np.array_equal(a.inputs, b.inputs)

    def test_bad_scale(self):
        with pytest.raises(BadParamsError):
            ShiftSpec(scale=0.0)

    def test_labels_preserved(self):
        ds = gen_blobs(3, 10, 2, seed=3)
        out = apply_shift(ds, ShiftSpec(rotation_deg=90.0, scale=1.1), seed=0)
        assert np.array_equal(out.labels, ds.labels)


class TestBenchmarks:
    def test_rotated_blobs_shapes(self):
        source, target = rotated_blobs_benchmark(seed=0, per_class=10)
        assert source.inputs.shape == (16, 40)
        assert target.inputs.shape == (16, 40)
        assert source.labels is not None and target.labels is not None

    def test_moons(self):
        ds = gen_moons(per_class=25, dim=4, seed=0)
        assert ds.inputs.shape == (4, 50)
        source, target = moons_benchmark(seed=1, per_class=20)
        assert source.labels.shape[1] == 2
        assert not np.allclose(source.inputs[:2].mean(axis=1), target.inputs[:2].mean(axis=1))


class TestIdx:
    def test_two_image_fixture(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(2, 28, 28), dtype=np.uint8)
        img_path = tmp_path / "img.idx"
        img_path.write_bytes(idx_image_bytes(images))
        ds = read_idx(img_path)
        assert ds.inputs.shape == (784, 2)
        assert ds.labels is None
        assert np.allclose(ds.inputs[:, 0], images[0].reshape(-1) / 255.0)

    def test_with_labels(self, tmp_path):
        images = np.full((3, 2, 2), 255, dtype=np.uint8)
        (tmp_path / "img.idx").write_bytes(idx_image_bytes(images))
        (tmp_path / "lbl.idx").write_bytes(idx_label_bytes([0, 2, 1]))
        ds = read_idx(tmp_path / "img.idx", tmp_path / "lbl.idx")
        assert np.all(ds.inputs == 1.0)  # pixel byte 255 -> feature 1.0
        assert ds.labels.shape == (3, 3)
        assert np.array_equal(np.argmax(ds.labels, axis=1), [0, 2, 1])

    def test_bad_magic(self, tmp_path):
        blob = struct.pack(">IIII", 0x00000805, 1, 2, 2) + bytes(4)
        (tmp_path / "bad.idx").write_bytes(blob)
        with pytest.raises(BadMagicError):
            read_idx(tmp_path / "bad.idx")

    def test_truncated_payload(self, tmp_path):
        images = np.zeros((2, 4, 4), dtype=np.uint8)
        blob = idx_image_bytes(images)
        (tmp_path / "cut.idx").write_bytes(blob[:-1])
        with pytest.raises(TruncatedFileError):
            read_idx(tmp_path / "cut.idx")

    def test_zero_count_files(self, tmp_path):
        # headers alone: 0 images of 28x28 and 0 labels
        (tmp_path / "img.idx").write_bytes(struct.pack(">IIII", 0x00000803, 0, 28, 28))
        (tmp_path / "lbl.idx").write_bytes(struct.pack(">II", 0x00000801, 0))
        with pytest.raises(EmptyDatasetError):
            read_idx(tmp_path / "img.idx", tmp_path / "lbl.idx")
        with pytest.raises(EmptyDatasetError):
            read_idx(tmp_path / "img.idx")

    def test_truncated_header(self, tmp_path):
        (tmp_path / "tiny.idx").write_bytes(b"\x00\x00\x08")
        with pytest.raises(TruncatedFileError):
            read_idx(tmp_path / "tiny.idx")

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        (tmp_path / "img.idx").write_bytes(idx_image_bytes(images))
        (tmp_path / "lbl.idx").write_bytes(idx_label_bytes([1, 0, 1]))
        with pytest.raises(CountMismatchError):
            read_idx(tmp_path / "img.idx", tmp_path / "lbl.idx")

    def test_label_magic_checked(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        (tmp_path / "img.idx").write_bytes(idx_image_bytes(images))
        (tmp_path / "lbl.idx").write_bytes(struct.pack(">II", 0x00000803, 2) + bytes(2))
        with pytest.raises(BadMagicError):
            read_idx(tmp_path / "img.idx", tmp_path / "lbl.idx")


class TestCsv:
    def test_round_trip_labeled(self, tmp_path):
        ds = gen_blobs(3, 7, 5, seed=4)
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        back = read_csv(path)
        assert np.max(np.abs(back.inputs - ds.inputs)) <= 1e-15
        assert np.array_equal(back.labels, ds.labels)

    def test_round_trip_unlabeled(self, tmp_path):
        ds = Dataset(np.random.default_rng(0).standard_normal((3, 4)), None)
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        text = path.read_text()
        assert text.splitlines()[0] == "f0,f1,f2,label"
        assert all(line.endswith(",-1") for line in text.splitlines()[1:])
        back = read_csv(path)
        assert back.labels is None
        assert np.max(np.abs(back.inputs - ds.inputs)) <= 1e-15

    def test_malformed_row_width(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,0\n")
        with pytest.raises(ParseError):
            read_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,0\n")
        with pytest.raises(ParseError):
            read_csv(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\nfoo,0\n")
        with pytest.raises(ParseError):
            read_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f0,f1,label\n")
        with pytest.raises(EmptyDatasetError):
            read_csv(path)

    def test_mixed_labels_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\n2.0,-1\n")
        with pytest.raises(ParseError):
            read_csv(path)
