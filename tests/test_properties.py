"""Property tests: exact CSV round trips, no input bytes that end in anything
but a Dataset or a MecaError, and the contracts of ``spd.sym_eig`` and
``spd.loewner_log`` on the inputs where they are hardest to keep: repeated
and nearly repeated eigenvalues."""
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from meca import data, spd  # noqa: E402
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


EPS = np.finfo(np.float64).eps


def check_sym_eig_contract(m, vals, vecs):
    """Descending eigenvalues, orthonormal eigenvectors with their largest
    component positive, U diag(vals) U^T = m, within LAPACK's backward error."""
    d = m.shape[-1]
    tol = 64 * d * EPS * max(np.abs(m).max(), np.finfo(np.float64).tiny)
    assert vals.shape == m.shape[:-1] and vecs.shape == m.shape
    assert np.all(np.diff(vals, axis=-1) <= 0.0)
    assert np.abs(vecs.swapaxes(-1, -2) @ vecs - np.eye(d)).max() <= 64 * d * EPS
    assert np.abs((vecs * vals[..., None, :]) @ vecs.swapaxes(-1, -2) - m).max() <= tol
    lead = np.argmax(np.abs(vecs), axis=-2)[..., None, :]
    assert np.all(np.take_along_axis(vecs, lead, axis=-2) > 0.0)


@given(
    lanes=st.integers(1, 3), dim=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
    pool=st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=1, max_size=3),
    data_=st.data(),
)
def test_sym_eig_contract_with_repeated_eigenvalues(lanes, dim, seed, pool, data_):
    # a stack of Q diag(spectrum) Q^T, each spectrum drawn with repeats from a
    # pool of at most three values, each Q a random orthogonal matrix
    spectra = np.array(data_.draw(st.lists(
        st.lists(st.sampled_from(pool), min_size=dim, max_size=dim),
        min_size=lanes, max_size=lanes)))
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((lanes, dim, dim)))
    m = (q * spectra[:, None, :]) @ q.swapaxes(-1, -2)
    m = 0.5 * (m + m.swapaxes(-1, -2))
    vals, vecs = spd.sym_eig(m)
    check_sym_eig_contract(m, vals, vecs)
    scale = max(np.abs(spectra).max(), 1.0)
    assert np.abs(vals - -np.sort(-spectra, axis=-1)).max() <= 64 * dim * EPS * scale
    for k in range(lanes):  # each matrix gets the bits it gets alone
        alone = spd.sym_eig(m[k])
        assert alone[0].tobytes() == vals[k].tobytes()
        assert alone[1].tobytes() == vecs[k].tobytes()


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 2), st.integers(1, 4)).map(
    lambda s: (s[0], s[1], s[1])), elements=st.floats() | st.sampled_from([1e308, -1e308])))
def test_sym_eig_raises_only_meca_errors(m):
    # symmetric or not, finite or not, near the float64 limit or not: either
    # the contract holds or the failure is a MecaError
    with np.errstate(over="ignore", invalid="ignore"):
        candidates = [m, m + m.swapaxes(-1, -2), np.triu(m) + np.triu(m, 1).swapaxes(-1, -2)]
    for candidate in candidates:
        try:
            vals, vecs = spd.sym_eig(candidate)
        except MecaError:
            continue
        assert np.isfinite(vals).all() and np.isfinite(vecs).all()
        check_sym_eig_contract(candidate, vals, vecs)


@given(
    lanes=st.integers(1, 3),
    base=st.floats(-8.0, 8.0).map(lambda e: 10.0**e),
    gap=st.just(0.0) | st.floats(-14.0, -6.0).map(lambda e: 10.0**e),
)
def test_loewner_log_near_degeneracy(lanes, base, gap):
    # eigenvalue pairs a, a (1 + gap), down to gaps of 1e-14 relative, where
    # the divided difference (log b - log a) / (b - a) tends to its limit 1/a
    a = np.array([[base * (1.0 + gap), base, 2.0 * base]] * lanes)
    lo = spd.loewner_log(a)
    assert lo.shape == (lanes, 3, 3) and np.all(np.isfinite(lo)) and np.all(lo > 0.0)
    assert np.array_equal(np.diagonal(lo, axis1=-2, axis2=-1), 1.0 / a)
    gap = abs(a[0, 0] - a[0, 1]) / a[0, 1]  # the gap after rounding
    # within the gap of the limit, plus the rounding of log b - log a, which
    # cancels to about eps |log a| absolute and is divided by the gap
    bound = gap + 4 * EPS * (1.0 + abs(np.log(base))) / max(gap, spd.LOEWNER_DEGENERACY_RTOL)
    for i, j in ((0, 1), (1, 0)):
        assert abs(lo[0, i, j] * a[0, j] - 1.0) <= bound
    # the far pair is the mean-value 1/xi for xi between a and 2a
    assert 1.0 / (2.0 * base) * (1 - 1e-12) <= lo[0, 1, 2] <= 1.0 / base * (1 + 1e-12)
    assert all(np.array_equal(lo[k], lo[0]) for k in range(lanes))
