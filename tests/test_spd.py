import numpy as np
import pytest

from meca import spd
from meca.errors import (
    DegenerateMatrixError,
    DimMismatchError,
    NoConvergenceError,
    NonSymmetricError,
)
from meca.spd import (
    dist_euclidean,
    dist_log_euclidean,
    grad_dist_euclidean,
    grad_dist_log_euclidean,
    make_spd,
    mat_log,
    spd_from_symmetric,
    sym_eig,
)


def random_spd_mat(rng, dim, lo=0.5, hi=3.0):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return (q * rng.uniform(lo, hi, size=dim)) @ q.T


def mat_exp_symmetric(m):
    """Matrix exponential of a symmetric matrix, the inverse of mat_log."""
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.exp(vals)) @ vecs.T


def dist_affine(cs, ct):
    """Affine-invariant distance ||log(Ct^-1/2 Cs Ct^-1/2)||_F, the reference
    geometry the log-Euclidean distance approximates."""
    vals, vecs = np.linalg.eigh(ct.mat)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
    log_vals = np.log(np.linalg.eigvalsh(inv_sqrt @ cs.mat @ inv_sqrt))
    return float(np.sqrt(np.sum(log_vals * log_vals)))


def fd_grad_wrt_first(fn, cs_mat, ct, h=1e-5):
    """Finite-difference gradient of fn(Cs, Ct) w.r.t. the symmetric matrix Cs.

    Perturbs entry pairs symmetrically; the diagonal carries the full
    derivative, off-diagonals half of the paired derivative.
    """
    d = cs_mat.shape[0]
    grad = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            e = np.zeros((d, d))
            e[i, j] = e[j, i] = 1.0
            f_plus = fn(spd_from_symmetric(cs_mat + h * e), ct)
            f_minus = fn(spd_from_symmetric(cs_mat - h * e), ct)
            df = (f_plus - f_minus) / (2.0 * h)
            if i == j:
                grad[i, i] = df
            else:
                grad[i, j] = grad[j, i] = 0.5 * df
    return grad


class TestSymEig:
    def test_identity(self):
        vals, vecs = sym_eig(np.eye(3))
        assert np.allclose(vals, [1.0, 1.0, 1.0])
        assert np.allclose(np.abs(vecs), np.eye(3))

    def test_diagonal(self):
        vals, vecs = sym_eig(np.diag([4.0, 1.0]))
        assert np.allclose(vals, [4.0, 1.0])
        assert np.allclose(vecs, np.eye(2))

    def test_two_by_two_hand_solution(self):
        # characteristic polynomial of [[2,1],[1,2]]: roots 3 and 1
        vals, vecs = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(vals, [3.0, 1.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(vecs[:, 0]), [s, s], atol=1e-12)
        assert np.allclose(np.abs(vecs[:, 1]), [s, s], atol=1e-12)
        assert np.sign(vecs[0, 1]) != np.sign(vecs[1, 1])

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_reconstruction_and_orthogonality(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(10):
            m = rng.standard_normal((dim, dim))
            m = m + m.T
            vals, vecs = sym_eig(m)
            rebuilt = (vecs * vals) @ vecs.T
            assert np.linalg.norm(rebuilt - m) <= 1e-8 * max(np.linalg.norm(m), 1.0)
            assert np.linalg.norm(vecs.T @ vecs - np.eye(dim)) <= 1e-8
            assert np.all(np.diff(vals) <= 1e-12)

    def test_matches_numpy_eigvals(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((6, 6))
        m = m + m.T
        vals, _ = sym_eig(m)
        expected = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.allclose(vals, expected, atol=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 5))
        m = m + m.T
        v1, q1 = sym_eig(m)
        v2, q2 = sym_eig(m.copy())
        assert np.array_equal(v1, v2)
        assert np.array_equal(q1, q2)

    def test_sign_convention(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((5, 5))
        m = m + m.T
        _, vecs = sym_eig(m)
        for j in range(5):
            lead = np.argmax(np.abs(vecs[:, j]))
            assert vecs[lead, j] > 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetricError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        for bad in (np.zeros((2, 3)), np.zeros(3), np.zeros((0, 0))):
            with pytest.raises(NonSymmetricError):
                sym_eig(bad)

    def test_rejects_non_finite(self):
        with pytest.raises(DegenerateMatrixError):
            sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(spd.np.linalg, "eigh", fail)
        with pytest.raises(NoConvergenceError):
            sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))


class TestStacks:
    """A stack of matrices (one per training lane) along axis 0 gets, matrix
    by matrix, the bits each matrix gets alone, and errors name the lanes."""

    def stack(self, dim=6, lanes=5):
        rng = np.random.default_rng(21)
        mats = [random_spd_mat(rng, dim) for _ in range(lanes - 1)]
        mats.append(np.diag([2.0, 2.0, 1.0, 1.0, 1.0, 0.5][:dim]))  # tied eigenvalues
        return np.stack(mats)

    def test_sym_eig_matches_slices(self):
        stack = self.stack()
        vals, vecs = sym_eig(stack)
        for i, m in enumerate(stack):
            v1, u1 = sym_eig(m)
            assert vals[i].tobytes() == v1.tobytes()
            assert vecs[i].tobytes() == u1.tobytes()

    def test_distances_and_gradients_match_slices(self):
        cs_stack = self.stack()
        ct_stack = self.stack()[::-1].copy()
        cs, ct = spd.SpdMatrix(cs_stack), spd.SpdMatrix(ct_stack)
        d_le, d_eu = dist_log_euclidean(cs, ct), dist_euclidean(cs, ct)
        gs, gt = grad_dist_log_euclidean(cs, ct)
        for i in range(len(cs_stack)):
            a, b = spd.SpdMatrix(cs_stack[i]), spd.SpdMatrix(ct_stack[i])
            assert d_le[i] == dist_log_euclidean(a, b)
            assert d_eu[i] == dist_euclidean(a, b)
            assert mat_log(cs)[i].tobytes() == mat_log(a).tobytes()
            g1, g2 = grad_dist_log_euclidean(a, b)
            assert gs[i].tobytes() == g1.tobytes() and gt[i].tobytes() == g2.tobytes()
            assert spd.add_jitter(cs_stack)[i].tobytes() == spd.add_jitter(cs_stack[i]).tobytes()

    def test_errors_name_the_lanes(self):
        stack = self.stack(dim=3, lanes=4)
        non_finite = stack.copy()
        non_finite[2, 0, 0] = np.nan
        with pytest.raises(DegenerateMatrixError) as exc:
            spd.add_jitter(non_finite)
        assert exc.value.lanes == (2,)
        with pytest.raises(DegenerateMatrixError) as exc:
            sym_eig(non_finite)
        assert exc.value.lanes == (2,)
        indefinite = stack.copy()
        indefinite[1] = np.diag([1.0, 1.0, -1.0])
        indefinite[3] = np.diag([1.0, 0.0, 0.0])
        with pytest.raises(DegenerateMatrixError) as exc:
            spd.SpdMatrix(indefinite).eigvals
        assert exc.value.lanes == (1, 3)
        asymmetric = stack.copy()
        asymmetric[0, 0, 1] += 1.0
        with pytest.raises(NonSymmetricError) as exc:
            sym_eig(asymmetric)
        assert exc.value.lanes == (0,)
        with pytest.raises(DegenerateMatrixError) as exc:
            sym_eig(non_finite[2])
        assert exc.value.lanes is None

    def test_lapack_failure_names_the_lane(self, monkeypatch):
        real_eigh = np.linalg.eigh

        def eigh(m):
            # fails on any input holding the poisoned matrix
            if np.any(m[..., 0, 0] == 7.0):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eigh(m)

        stack = self.stack(dim=3, lanes=3)
        stack[1, 0, 0] = 7.0
        monkeypatch.setattr(spd.np.linalg, "eigh", eigh)
        with pytest.raises(NoConvergenceError) as exc:
            sym_eig(stack)
        assert exc.value.lanes == (1,)


class TestMakeSpd:
    def test_identity_plus_jitter(self):
        c = make_spd(np.eye(2), 1e-5)
        assert np.allclose(c.eigvals, [1.0 + 1e-5, 1.0 + 1e-5], atol=1e-15)

    def test_rank_deficient_diag(self):
        # eps = 1e-5 * trace(2) / 2 = 1e-5
        c = make_spd(np.diag([2.0, 0.0]), 1e-5)
        assert np.allclose(sorted(c.eigvals), [1e-5, 2.0 + 1e-5], atol=1e-18)

    def test_zero_matrix_floor(self):
        c = make_spd(np.zeros((2, 2)), 1e-5)
        assert np.allclose(c.eigvals, [1e-12, 1e-12], atol=1e-24)

    def test_degenerate(self):
        with pytest.raises(DegenerateMatrixError):
            make_spd(np.diag([-1.0, -2.0]), 1e-5)

    def test_invariants(self):
        rng = np.random.default_rng(0)
        for dim in (2, 5):
            a = rng.standard_normal((dim, dim + 2))
            c = make_spd(a @ a.T, 1e-5)
            assert np.all(c.eigvals > 0.0)
            assert np.allclose(c.mat, c.mat.T)
            rebuilt = (c.eigvecs * c.eigvals) @ c.eigvecs.T
            assert np.linalg.norm(rebuilt - c.mat) <= 1e-8 * np.linalg.norm(c.mat)


class TestMatLog:
    def test_identity(self):
        assert np.allclose(mat_log(spd_from_symmetric(np.eye(4))), np.zeros((4, 4)))

    def test_diagonal_closed_form(self):
        c = spd_from_symmetric(np.diag([np.e, np.e**2]))
        assert np.allclose(mat_log(c), np.diag([1.0, 2.0]), atol=1e-12)

    def test_cached_and_read_only(self):
        c = make_spd(random_spd_mat(np.random.default_rng(6), 3))
        log = mat_log(c)
        assert mat_log(c) is log
        with pytest.raises(ValueError):
            log[0, 0] = 0.0

    def test_eigenbasis_form(self):
        c = spd_from_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]]))
        # eigvals {3, 1}: log in the shared eigenbasis is (log 3 / 2) * ones
        expected = 0.5 * np.log(3.0) * np.ones((2, 2))
        assert np.allclose(mat_log(c), expected, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_exp_inverts_log(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            mat = random_spd_mat(rng, dim)
            c = spd_from_symmetric(mat)
            rebuilt = mat_exp_symmetric(mat_log(c))
            assert np.linalg.norm(rebuilt - mat) <= 1e-8 * np.linalg.norm(mat)


class TestDistances:
    def test_euclidean_examples(self):
        c = spd_from_symmetric(random_spd_mat(np.random.default_rng(0), 3))
        assert dist_euclidean(c, c) == 0.0
        assert dist_euclidean(
            spd_from_symmetric(np.eye(2)), spd_from_symmetric(2.0 * np.eye(2))
        ) == pytest.approx(0.125, abs=1e-15)
        assert dist_euclidean(
            spd_from_symmetric(np.diag([3.0, 1.0])), spd_from_symmetric(np.eye(2))
        ) == pytest.approx(0.25, abs=1e-15)

    def test_log_euclidean_examples(self):
        c = spd_from_symmetric(random_spd_mat(np.random.default_rng(1), 4))
        assert dist_log_euclidean(c, c) == 0.0
        assert dist_log_euclidean(
            spd_from_symmetric(np.diag([1.0, np.e**2])), spd_from_symmetric(np.eye(2))
        ) == pytest.approx(0.25, abs=1e-12)

    def test_affine_examples(self):
        c = spd_from_symmetric(random_spd_mat(np.random.default_rng(2), 3))
        assert dist_affine(c, c) == pytest.approx(0.0, abs=1e-7)
        assert dist_affine(
            spd_from_symmetric(np.e * np.eye(2)), spd_from_symmetric(np.eye(2))
        ) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        c1 = random_spd_mat(rng, 4)
        c2 = random_spd_mat(rng, 4)
        g = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
        base = dist_affine(spd_from_symmetric(c1), spd_from_symmetric(c2))
        moved = dist_affine(
            spd_from_symmetric(g @ c1 @ g.T), spd_from_symmetric(g @ c2 @ g.T)
        )
        assert moved == pytest.approx(base, rel=1e-8)

    def test_dim_mismatch(self):
        a = spd_from_symmetric(np.eye(2))
        b = spd_from_symmetric(np.eye(3))
        for fn in (dist_euclidean, dist_log_euclidean,
                   grad_dist_euclidean, grad_dist_log_euclidean):
            with pytest.raises(DimMismatchError):
                fn(a, b)


class TestMetricProperties:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_log_euclidean_axioms(self, dim):
        rng = np.random.default_rng(dim * 13)
        for _ in range(20):
            a = spd_from_symmetric(random_spd_mat(rng, dim))
            b = spd_from_symmetric(random_spd_mat(rng, dim))
            d_ab = dist_log_euclidean(a, b)
            assert d_ab >= 0.0
            assert d_ab == pytest.approx(dist_log_euclidean(b, a), rel=1e-10)
            assert dist_log_euclidean(a, a) <= 1e-18
            assert d_ab > 1e-12

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
    def test_scale_invariance(self, scale):
        rng = np.random.default_rng(17)
        a_mat, b_mat = random_spd_mat(rng, 4), random_spd_mat(rng, 4)
        base = dist_log_euclidean(spd_from_symmetric(a_mat), spd_from_symmetric(b_mat))
        scaled = dist_log_euclidean(
            spd_from_symmetric(scale * a_mat), spd_from_symmetric(scale * b_mat)
        )
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_orthogonal_congruence_invariance(self):
        rng = np.random.default_rng(19)
        for dim in (2, 4, 8):
            a_mat, b_mat = random_spd_mat(rng, dim), random_spd_mat(rng, dim)
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            base = dist_log_euclidean(spd_from_symmetric(a_mat), spd_from_symmetric(b_mat))
            rotated = dist_log_euclidean(
                spd_from_symmetric(q @ a_mat @ q.T), spd_from_symmetric(q @ b_mat @ q.T)
            )
            assert rotated == pytest.approx(base, rel=1e-8)

    def test_inversion_invariance(self):
        rng = np.random.default_rng(23)
        for dim in (2, 4, 8):
            a_mat, b_mat = random_spd_mat(rng, dim), random_spd_mat(rng, dim)
            base = dist_log_euclidean(spd_from_symmetric(a_mat), spd_from_symmetric(b_mat))
            inverted = dist_log_euclidean(
                spd_from_symmetric(np.linalg.inv(a_mat)),
                spd_from_symmetric(np.linalg.inv(b_mat)),
            )
            assert inverted == pytest.approx(base, rel=1e-8)

    def test_affine_axioms(self):
        rng = np.random.default_rng(29)
        for dim in (2, 4):
            a = spd_from_symmetric(random_spd_mat(rng, dim))
            b = spd_from_symmetric(random_spd_mat(rng, dim))
            d_ab = dist_affine(a, b)
            assert d_ab >= 0.0
            assert d_ab == pytest.approx(dist_affine(b, a), rel=1e-7)
            assert dist_affine(a, a) <= 1e-7


class TestGradients:
    def test_grad_log_euclidean_at_minimum(self):
        c = spd_from_symmetric(random_spd_mat(np.random.default_rng(0), 3))
        gs, gt = grad_dist_log_euclidean(c, c)
        assert np.allclose(gs, 0.0, atol=1e-15)
        assert np.allclose(gt, 0.0, atol=1e-15)

    def test_grad_log_euclidean_diagonal_closed_form(self):
        a, b = 1.7, 0.4
        cs = spd_from_symmetric(np.diag([a, b]))
        ct = spd_from_symmetric(np.eye(2))
        gs, _ = grad_dist_log_euclidean(cs, ct)
        expected = 0.125 * np.diag([np.log(a) / a, np.log(b) / b])
        assert np.allclose(gs, expected, atol=1e-12)

    def test_grad_log_euclidean_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        cs_mat, ct_mat = random_spd_mat(rng, 4), random_spd_mat(rng, 4)
        cs, ct = spd_from_symmetric(cs_mat), spd_from_symmetric(ct_mat)
        gs, gt = grad_dist_log_euclidean(cs, ct)
        fd_s = fd_grad_wrt_first(dist_log_euclidean, cs_mat, ct)
        fd_t = fd_grad_wrt_first(lambda c, o: dist_log_euclidean(o, c), ct_mat, cs)
        assert np.linalg.norm(gs - fd_s) <= 1e-5 * np.linalg.norm(fd_s)
        assert np.linalg.norm(gt - fd_t) <= 1e-5 * np.linalg.norm(fd_t)

    def test_grad_euclidean_examples(self):
        c = spd_from_symmetric(random_spd_mat(np.random.default_rng(5), 3))
        gs, gt = grad_dist_euclidean(c, c)
        assert np.allclose(gs, 0.0)
        assert np.allclose(gt, 0.0)
        gs, gt = grad_dist_euclidean(
            spd_from_symmetric(np.eye(2)), spd_from_symmetric(2.0 * np.eye(2))
        )
        assert np.allclose(gs, -0.125 * np.eye(2))
        assert np.allclose(gt, -gs)

    def test_grad_euclidean_matches_finite_differences(self):
        rng = np.random.default_rng(37)
        cs_mat, ct_mat = random_spd_mat(rng, 4), random_spd_mat(rng, 4)
        cs, ct = spd_from_symmetric(cs_mat), spd_from_symmetric(ct_mat)
        gs, _ = grad_dist_euclidean(cs, ct)
        fd_s = fd_grad_wrt_first(dist_euclidean, cs_mat, ct)
        assert np.linalg.norm(gs - fd_s) <= 1e-7 * np.linalg.norm(fd_s)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_grad_fidelity_over_random_pairs(self, dim):
        # 34 pairs per dim: > 100 random pairs across d in {2, 4, 8}
        rng = np.random.default_rng(41 + dim)
        for _ in range(34):
            cs_mat, ct_mat = random_spd_mat(rng, dim), random_spd_mat(rng, dim)
            cs, ct = spd_from_symmetric(cs_mat), spd_from_symmetric(ct_mat)
            for grad_fn, dist_fn in (
                (grad_dist_log_euclidean, dist_log_euclidean),
                (grad_dist_euclidean, dist_euclidean),
            ):
                gs, _ = grad_fn(cs, ct)
                fd_s = fd_grad_wrt_first(dist_fn, cs_mat, ct)
                denom = np.maximum(np.abs(fd_s), 1e-8)
                assert np.max(np.abs(gs - fd_s) / denom) < 1e-4

    def test_loewner_degenerate_pairs(self):
        lo = spd.loewner_log(np.array([2.0, 2.0, 0.5]))
        assert lo[0, 1] == pytest.approx(0.5)  # limit value 1/sigma
        assert lo[0, 0] == pytest.approx(0.5)
        assert lo[2, 2] == pytest.approx(2.0)
        assert lo[0, 2] == pytest.approx((np.log(2.0) - np.log(0.5)) / 1.5)

    def test_symmetric_outputs(self):
        rng = np.random.default_rng(43)
        cs = spd_from_symmetric(random_spd_mat(rng, 5))
        ct = spd_from_symmetric(random_spd_mat(rng, 5))
        gs, gt = grad_dist_log_euclidean(cs, ct)
        assert np.allclose(gs, gs.T)
        assert np.allclose(gt, gt.T)
