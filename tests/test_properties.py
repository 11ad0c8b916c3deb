"""Property tests of the file readers and writers: exact CSV round trips, and
no input bytes that end in anything but a Dataset or a MecaError."""
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from meca import data  # noqa: E402
from meca.errors import MecaError  # noqa: E402

# every finite float64, with -0.0 and the smallest subnormal drawn often
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, -5e-324])
u32 = st.integers(0, 2**32 - 1)


@given(
    inputs=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=finite),
    data_=st.data(),
)
def test_csv_round_trip_is_bit_exact(tmp_path_factory, inputs, data_):
    n = inputs.shape[1]
    classes = data_.draw(
        st.none() | hnp.arrays(np.int64, n, elements=st.integers(0, data.MAX_LABEL))
    )
    labels = None if classes is None else data.one_hot(classes, int(classes.max()) + 1)
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    data.write_csv(data.Dataset(inputs, labels), path)
    # the bytes a per-field format() loop writes
    label_col = [-1] * n if classes is None else classes.tolist()
    rows = [",".join([format(v, ".17g") for v in col] + [str(c)])
            for col, c in zip(inputs.T.tolist(), label_col)]
    header = ",".join([f"f{i}" for i in range(inputs.shape[0])] + ["label"])
    assert path.read_text() == "\n".join([header] + rows) + "\n"
    back = data.read_csv(path)
    assert back.inputs.tobytes() == inputs.tobytes()  # -0.0 and subnormals included
    if classes is None:
        assert back.labels is None
    else:
        assert np.array_equal(np.argmax(back.labels, axis=1), classes)


field = st.sampled_from(["0", "1", "-1", "2.5", "-2", "nan", "inf", "1e30", "1e400",
                         "-0", "1_0", "\u0661", "", " 3 ", "x", "\x00", "\r", "1\x0c"])
table = st.lists(st.lists(field, min_size=1, max_size=3).map(",".join), max_size=5)


@given(
    header=st.sampled_from([b"", b"f0,label\n", b"f0,f1,label\n"]),
    body=st.binary(max_size=200) | table.map(lambda rows: "\n".join(rows).encode()),
)
def test_csv_reader_raises_only_meca_errors(tmp_path_factory, header, body):
    path = tmp_path_factory.mktemp("csv") / "any.csv"
    path.write_bytes(header + body)
    try:
        ds = data.read_csv(path)
    except MecaError:
        return
    assert isinstance(ds, data.Dataset) and ds.n >= 1


def _idx_pair():
    images = np.arange(3 * 2 * 2, dtype=np.uint8).reshape(3, 2, 2)
    img = struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 3, 2, 2) + images.tobytes()
    lbl = struct.pack(">II", data.IDX_LABEL_MAGIC, 3) + bytes([2, 0, 1])
    return img, lbl


@given(
    img_cut=st.integers(0, 28), lbl_cut=st.integers(0, 11),
    img_magic=st.none() | u32, lbl_magic=st.none() | u32,
    header=st.none() | st.tuples(u32, u32, u32),
)
def test_idx_reader_raises_only_meca_errors(
    tmp_path_factory, img_cut, lbl_cut, img_magic, lbl_magic, header
):
    img, lbl = _idx_pair()
    if header is not None:
        img = img[:4] + struct.pack(">III", *header) + img[16:]
    if img_magic is not None:
        img = struct.pack(">I", img_magic) + img[4:]
    if lbl_magic is not None:
        lbl = struct.pack(">I", lbl_magic) + lbl[4:]
    d = tmp_path_factory.mktemp("idx")
    (d / "img.idx").write_bytes(img[:img_cut])
    (d / "lbl.idx").write_bytes(lbl[:lbl_cut])
    try:
        ds = data.read_idx(d / "img.idx", d / "lbl.idx")
    except MecaError:
        return
    assert isinstance(ds, data.Dataset)
