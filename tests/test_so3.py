import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strand_reduce import so3
from strand_reduce.errors import (NearAnglePiError, NotAntisymmetricError,
                                  TooFarFromGroupError)
from tests.conftest import svd_polar

E1, E2, E3 = np.eye(3)


def series_exp(v, terms=30):
    """Truncated matrix power series of exp(hat(v)); oracle for exp_so3."""
    K = so3.hat(v)
    acc = np.eye(3)
    term = np.eye(3)
    for k in range(1, terms + 1):
        term = term @ K / k
        acc = acc + term
    return acc


vec3 = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3).map(np.array)


class TestHatVee:
    def test_hat_zero(self):
        assert np.array_equal(so3.hat(np.zeros(3)), np.zeros((3, 3)))

    def test_hat_e3_on_e1(self):
        assert np.allclose(so3.hat(E3) @ E1, E2)

    def test_hat_matches_cross(self, rng):
        for _ in range(50):
            v, w = rng.normal(size=(2, 3))
            assert np.allclose(so3.hat(v) @ w, np.cross(v, w), atol=1e-15)

    def test_vee_inverts_hat(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(so3.vee(so3.hat(v)), v)

    def test_vee_zero(self):
        assert np.array_equal(so3.vee(np.zeros((3, 3))), np.zeros(3))

    def test_vee_rejects_symmetric(self):
        with pytest.raises(NotAntisymmetricError):
            so3.vee(np.diag([1.0, 2.0, 3.0]))

    @given(vec3, vec3)
    @settings(max_examples=50, deadline=None)
    def test_hat_antisymmetric_action(self, v, w):
        assert abs(np.dot(so3.hat(v) @ w, w)) <= 1e-12 * (1 + np.dot(w, w))


class TestExp:
    def test_exp_zero(self):
        assert np.allclose(so3.exp_so3(np.zeros(3)), np.eye(3))

    def test_quarter_turn(self):
        R = so3.exp_so3(np.array([0.0, 0.0, np.pi / 2]))
        assert np.allclose(R @ E1, E2, atol=1e-15)

    def test_against_series(self, rng):
        for _ in range(30):
            v = rng.normal(size=3)
            v *= rng.uniform(0, np.pi) / np.linalg.norm(v)
            assert np.allclose(so3.exp_so3(v), series_exp(v), atol=1e-12)

    def test_small_angle_branch(self, rng):
        for scale in (1e-5, 1e-7, 1e-9):
            v = scale * rng.normal(size=3)
            assert np.allclose(so3.exp_so3(v), series_exp(v, terms=6), atol=1e-16)

    @given(vec3)
    @settings(max_examples=50, deadline=None)
    def test_det_and_inverse(self, v):
        R = so3.exp_so3(v)
        assert abs(np.linalg.det(R) - 1.0) <= 1e-12
        assert np.allclose(R @ so3.exp_so3(-v), np.eye(3), atol=1e-12)

    def test_ad_equivariance_of_cross(self, rng):
        for _ in range(30):
            R = so3.random_rotation(rng)
            v, w = rng.normal(size=(2, 3))
            assert np.allclose(R @ np.cross(v, w), np.cross(R @ v, R @ w),
                               atol=1e-12)

    def test_batched_matches_scalar(self, rng):
        vs = rng.normal(size=(4, 5, 3))
        batch = so3.exp_so3(vs)
        for i in range(4):
            for j in range(5):
                assert np.allclose(batch[i, j], so3.exp_so3(vs[i, j]), atol=1e-15)


def bits(x):
    """The bytes of a float array: equal only when every value is bit-equal."""
    return np.ascontiguousarray(x).tobytes()


class TestCrossKernels:
    """The gather kernel of ``so3.cross`` against the slice kernel, bitwise."""

    @staticmethod
    def operands(rng, n_vectors):
        a, b = rng.normal(size=(2, n_vectors, 3))
        # non-finite entries and signed zeros meet finite and special partners
        a[0], b[0] = (np.nan, 1.0, -0.0), (2.0, np.inf, -0.0)
        a[1], b[1] = (np.inf, -np.inf, 0.0), (-0.0, 3.0, -np.inf)
        a[2], b[2] = (-0.0, -0.0, 0.0), (-0.0, 0.0, -0.0)
        return a, b

    @pytest.mark.parametrize("offset", (-1, 0, 1))
    def test_kernels_agree_bitwise(self, rng, offset):
        n = so3.GATHER_MAX_VECTORS + offset
        a, b = self.operands(rng, n)
        with np.errstate(invalid="ignore"):
            want = so3._cross_slices(a, b)
            for shape in ((n, 3), (1, n, 3)):
                got = so3._cross_gather(a.reshape(shape), b.reshape(shape))
                assert bits(got) == bits(want), shape
            assert bits(so3.cross(a, b)) == bits(want)
        assert np.isnan(want[0]).any() and np.signbit(want[2]).any()

    @staticmethod
    def taken(monkeypatch):
        calls = []
        for name in ("_cross_gather", "_cross_slices"):
            kernel = getattr(so3, name)
            monkeypatch.setattr(so3, name, lambda a, b, name=name, kernel=kernel:
                                calls.append(name) or kernel(a, b))
        return calls

    def test_size_selects_kernel(self, rng, monkeypatch):
        calls = self.taken(monkeypatch)
        n = so3.GATHER_MAX_VECTORS
        for shape in ((3,), (n, 3), (4, n // 4, 3), (n + 1, 3)):
            so3.cross(rng.normal(size=shape), rng.normal(size=shape))
        assert calls == ["_cross_gather"] * 3 + ["_cross_slices"]

    def test_broadcasting_takes_slices(self, rng, monkeypatch):
        calls = self.taken(monkeypatch)
        for sa, sb in (((3,), (2, 3)), ((2, 1, 3), (1, 5, 3)), ((4, 3), (1, 3))):
            a, b = rng.normal(size=sa), rng.normal(size=sb)
            assert bits(so3.cross(a, b)) == bits(np.cross(a, b))
        assert calls == ["_cross_slices"] * 3


class TestLog:
    def test_log_identity(self):
        assert np.array_equal(so3.log_so3(np.eye(3)), np.zeros(3))

    def test_log_inverts_exp_small(self):
        v = np.array([0.1, -0.2, 0.3])
        assert np.allclose(so3.log_so3(so3.exp_so3(v)), v, atol=1e-12)

    def test_near_pi(self):
        v = np.array([np.pi - 1e-3, 0.0, 0.0])
        R = series_exp(v)
        assert np.allclose(so3.log_so3(R), v, atol=1e-8)

    def test_rejects_angle_pi(self):
        R = so3.exp_so3(np.array([np.pi - 1e-8, 0.0, 0.0]))
        with pytest.raises(NearAnglePiError):
            so3.log_so3(R)

    def test_roundtrip_relative_error(self, rng):
        for _ in range(100):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(1e-9, np.pi - 1e-3)
            v = angle * axis
            back = so3.log_so3(so3.exp_so3(v))
            assert np.linalg.norm(back - v) <= 1e-9 * angle + 1e-15

    def test_exp_log_identity_on_rotations(self, rng):
        for _ in range(30):
            R = so3.random_rotation(rng)
            assert np.allclose(so3.exp_so3(so3.log_so3(R)), R, atol=1e-10)


class TestReorthonormalize:
    def test_projection_fixes_rotations(self, rng):
        R = so3.random_rotation(rng)
        assert np.allclose(so3.reorthonormalize(R), R, atol=1e-14)

    def test_small_perturbation(self):
        M = np.eye(3) + 1e-6 * so3.hat(E3)
        R = so3.reorthonormalize(M)
        assert np.linalg.norm(R.T @ R - np.eye(3)) <= 1e-9
        assert abs(np.linalg.det(R) - 1.0) <= 1e-9
        assert np.linalg.norm(M - R) <= 2e-6

    def test_rejects_far_matrices(self):
        with pytest.raises(TooFarFromGroupError):
            so3.reorthonormalize(-np.eye(3) * 2.0)

    def test_svd_oracle(self, rng):
        # polar factor from an independent SVD computation
        M = so3.random_rotation(rng) + 0.02 * rng.normal(size=(3, 3))
        u, _, vt = np.linalg.svd(M)
        d = np.linalg.det(u @ vt)
        want = u @ np.diag([1.0, 1.0, d]) @ vt
        assert np.allclose(so3.reorthonormalize(M), want, atol=1e-12)


def extended_polar(M):
    """Polar factor by Newton-Schulz in extended precision (np.longdouble)."""
    X = np.asarray(M, dtype=np.longdouble)
    eye = np.eye(3, dtype=np.longdouble)
    for _ in range(8):
        X = X @ (1.5 * eye - 0.5 * np.swapaxes(X, -1, -2) @ X)
    return X


class TestNewtonSchulzPolar:
    def sweep_batch(self, rng, n=256):
        R = np.array([so3.random_rotation(rng) for _ in range(n)])
        return R @ so3.exp_so3(0.01 * rng.normal(size=(n, 3)))

    def test_sweep_inputs_match_svd(self, rng):
        M = self.sweep_batch(rng)
        R = so3.reorthonormalize(M)
        # the SVD oracle carries about 1e-15 of its own roundoff; against
        # the extended-precision polar factor the iteration is within 1e-15
        assert np.max(np.abs(R - extended_polar(M))) <= 1e-15
        assert np.max(np.abs(R - svd_polar(M))) <= 2e-15

    def test_perturbed_inputs_match_svd(self, rng):
        R = np.array([so3.random_rotation(rng) for _ in range(256)])
        P = rng.normal(size=(256, 3, 3))
        P *= (rng.uniform(0.0, 0.099, size=256)
              / np.linalg.norm(P, axis=(1, 2)))[:, None, None]
        P[0] *= 0.099 / np.linalg.norm(P[0])
        M = R + P
        assert np.max(np.linalg.norm(M - svd_polar(M), axis=(1, 2))) <= 0.099
        assert np.max(np.abs(so3.reorthonormalize(M) - svd_polar(M))) <= 1e-14

    @pytest.mark.parametrize("M, reflection", [
        (np.diag([1.0, 1.0, -1.0]), True),
        (np.diag([1.0, 1.0, 0.0]), False),
        (-2.0 * np.eye(3), False),
        (-np.eye(3), True),
        (1.2 * np.eye(3), False),
        (1.9 * np.eye(3), False),
        (2.0 * np.eye(3), False),
        (np.full((3, 3), np.nan), False),
    ], ids=["reflection", "singular", "minus_2I", "minus_I", "1.2I", "1.9I",
            "2I", "nan"])
    def test_outside_trust_region_raises(self, rng, M, reflection):
        # only an orthogonal input with det -1 is reported as a reflection;
        # a singular value above sqrt 3 must not settle at -1 and read as one
        batch = self.sweep_batch(rng, n=8)
        batch[5] = M
        for inp in (M, batch):
            with pytest.raises(TooFarFromGroupError) as exc:
                so3.reorthonormalize(inp)
            assert ("reflection" in str(exc.value)) == reflection, exc.value
