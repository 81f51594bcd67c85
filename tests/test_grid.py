import numpy as np
import pytest

from strand_reduce import grid as g
from tests.conftest import small_grid


def bits(x):
    """The bytes of a float array: equal only when every value is bit-equal."""
    return np.ascontiguousarray(x).tobytes()


def field_of(gr, fn):
    t = gr.t_coords()[:, None]
    s = gr.s_coords()[None, :]
    return fn(t, s)


class TestGrid2:
    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            g.Grid2(n_t=2, n_s=8, dt=0.1, ds=0.1)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            g.Grid2(n_t=4, n_s=4, dt=-0.1, ds=0.1)

    def test_memory_guard(self):
        with pytest.raises(ValueError):
            g.Grid2(n_t=10 ** 5, n_s=10 ** 4, dt=0.1, ds=0.1)

    def test_length(self):
        assert small_grid(n_s=32, bc=g.PERIODIC, length=2.0).length_s == pytest.approx(2.0)
        assert small_grid(n_s=33, bc=g.CLAMPED, length=2.0).length_s == pytest.approx(2.0)


class TestDs:
    def test_constant(self):
        gr = small_grid()
        assert np.array_equal(g.d_s(gr, np.ones((gr.n_t, gr.n_s))), np.zeros((gr.n_t, gr.n_s)))

    def test_affine_clamped_exact(self):
        gr = small_grid(bc=g.CLAMPED)
        f = field_of(gr, lambda t, s: 0.0 * t + s)
        assert np.allclose(g.d_s(gr, f), 1.0, atol=1e-12)

    def test_sin_periodic_second_order(self):
        errs = []
        for n in (32, 64, 128):
            gr = small_grid(n_s=n)
            k = 2 * np.pi / gr.length_s
            f = field_of(gr, lambda t, s: np.sin(k * s) + 0.0 * t)
            want = field_of(gr, lambda t, s: k * np.cos(k * s) + 0.0 * t)
            errs.append(np.max(np.abs(g.d_s(gr, f) - want)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)

    def test_vector_fields_supported(self, rng):
        gr = small_grid()
        f = rng.normal(size=(gr.n_t, gr.n_s, 3))
        out = g.d_s(gr, f)
        assert out.shape == f.shape


class TestDt:
    def test_constant(self):
        gr = small_grid()
        assert np.array_equal(g.d_t(gr, np.ones((gr.n_t, gr.n_s))), np.zeros((gr.n_t, gr.n_s)))

    def test_quadratic_exact(self):
        gr = small_grid()
        f = field_of(gr, lambda t, s: t ** 2 + 0.0 * s)
        want = field_of(gr, lambda t, s: 2.0 * t + 0.0 * s)
        assert np.allclose(g.d_t(gr, f), want, atol=1e-12)

    def test_cos_second_order(self):
        errs = []
        for n in (24, 48, 96):
            gr = small_grid(n_t=n)
            f = field_of(gr, lambda t, s: np.cos(3.0 * t) + 0.0 * s)
            want = field_of(gr, lambda t, s: -3.0 * np.sin(3.0 * t) + 0.0 * s)
            errs.append(np.max(np.abs(g.d_t(gr, f) - want)))
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0


class TestIntegrateS:
    def test_unit_clamped(self):
        gr = small_grid(bc=g.CLAMPED, length=1.0)
        f = np.ones((gr.n_t, gr.n_s))
        assert g.integrate_s(gr, f)[0] == pytest.approx(1.0, abs=1e-12)

    def test_sin_periodic_is_zero(self):
        gr = small_grid()
        k = 2 * np.pi / gr.length_s
        f = field_of(gr, lambda t, s: np.sin(k * s) + 0.0 * t)
        assert g.integrate_s(gr, f)[3] == pytest.approx(0.0, abs=1e-12)

    def test_linear_clamped(self):
        gr = small_grid(bc=g.CLAMPED, length=1.0)
        f = field_of(gr, lambda t, s: s + 0.0 * t)
        assert g.integrate_s(gr, f)[0] == pytest.approx(0.5, abs=1e-12)

    def test_vector_integrand(self, rng):
        gr = small_grid()
        f = rng.normal(size=(gr.n_t, gr.n_s, 3))
        out = g.integrate_s(gr, f)[5]
        assert out.shape == (3,)
        assert np.allclose(out, gr.ds * np.sum(f[5], axis=0))


class TestProperties:
    def test_mixed_partials_commute(self):
        # d_s acts on rows, d_t on columns, so they commute to roundoff,
        # which is stronger than the O(h^2) requirement.
        for n in (24, 48):
            gr = small_grid(n_t=n, n_s=2 * n)
            k = 2 * np.pi / gr.length_s
            f = field_of(gr, lambda t, s: np.sin(k * s + 1.3 * t))
            diff = g.d_t(gr, g.d_s(gr, f)) - g.d_s(gr, g.d_t(gr, f))
            assert np.max(np.abs(diff)) <= 1e-12 / (gr.ds * gr.dt)

    def test_periodic_summation_by_parts_exact(self, rng):
        gr = small_grid()
        f = rng.normal(size=(gr.n_t, gr.n_s))
        h = rng.normal(size=(gr.n_t, gr.n_s))
        lhs = np.sum(g.d_s(gr, f) * h, axis=1) * gr.ds
        rhs = -np.sum(f * g.d_s(gr, h), axis=1) * gr.ds
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_adjoint_is_exact_transpose(self):
        # dense matrices of the stencil and of its adjoint, column by column
        # from unit vectors, on every small size the closure rows overlap at
        h = 0.3
        for n in (3, 4, 5, 9):
            for periodic in (True, False):
                for axis in (0, 1, -2):
                    shape = [2, 3, 2]
                    shape[axis] = n
                    units = np.eye(np.prod(shape)).reshape(-1, *shape)
                    D = np.array([g._diff(e, h, periodic, axis).ravel()
                                  for e in units]).T
                    Dt = np.array([g._diff_adjoint(e, h, periodic, axis).ravel()
                                   for e in units]).T
                    assert np.array_equal(D.T, Dt), (n, periodic, axis)

    def test_periodic_matches_roll_formula(self, rng):
        # both periodic stencil kernels against the np.roll formula, bit for
        # bit with signed zeros, including size-1 and size-2 periodic axes
        h = 0.3
        for n in (1, 2, 3, 9):
            for shape in ((n, 3), (6, n, 3), (2, 5, n, 3)):
                f = rng.normal(size=shape)
                f.flat[::7] = -0.0
                for axis in (0, 1, -2):
                    want = (np.roll(f, -1, axis=axis)
                            - np.roll(f, 1, axis=axis)) / (2.0 * h)
                    for kernel in (g._diff_gather, g._diff_slices):
                        got = kernel(f, h, True, axis)
                        assert bits(got) == bits(want), (kernel, shape, axis)
                assert bits(g.d_s_slice(f, h, True)) == bits(want), shape

    def test_slice_derivative_of_a_stack(self, rng):
        f = rng.normal(size=(4, 9, 3))
        for periodic in (True, False):
            stacked = g.d_s_slice(f, 0.1, periodic)
            for k in range(4):
                assert np.array_equal(stacked[k], g.d_s_slice(f[k], 0.1, periodic))

    def test_slice_derivative_matches_field_rows(self, rng):
        gr = small_grid()
        f = rng.normal(size=(gr.n_t, gr.n_s, 3))
        full = g.d_s(gr, f)
        row = g.d_s_slice(f[4], gr.ds, gr.periodic_s)
        assert np.array_equal(full[4], row)


class TestStencilKernels:
    """The gather kernel of ``grid._diff`` against the slice kernel, bitwise."""

    @staticmethod
    def field(rng, lead, trailing):
        f = rng.normal(size=lead + trailing)
        # signed zeros and non-finite values meet finite neighbours
        f.flat[::7] = -0.0
        f.flat[1], f.flat[4] = np.nan, -np.inf
        return f

    @pytest.mark.parametrize("periodic", (True, False))
    @pytest.mark.parametrize("trailing", ((), (3,), (3, 3)))
    def test_kernels_agree_bitwise(self, rng, periodic, trailing):
        width = int(np.prod(trailing, dtype=int))
        # one field well below the cutoff and one just above it
        for n in (5, g.GATHER_MAX_VALUES // (4 * width) + 1):
            f = self.field(rng, (4, n), trailing)
            for axis in (0, 1, -2):
                with np.errstate(invalid="ignore"):
                    want = g._diff_slices(f, 0.3, periodic, axis)
                    got = g._diff_gather(f, 0.3, periodic, axis)
                    chosen = g._diff(f, 0.3, periodic, axis)
                assert bits(got) == bits(want), (n, axis)
                assert bits(chosen) == bits(want), (n, axis)
                assert np.isnan(want).any()

    def test_size_selects_kernel(self, rng, monkeypatch):
        calls = []
        for name in ("_diff_gather", "_diff_slices"):
            kernel = getattr(g, name)
            monkeypatch.setattr(g, name, lambda *args, name=name, kernel=kernel:
                                calls.append(name) or kernel(*args))
        n = g.GATHER_MAX_VALUES
        gr = g.Grid2(n_t=n // 12, n_s=4, dt=0.1, ds=0.1, bc_s=g.CLAMPED)
        g._diff(rng.normal(size=n), 0.1, True, 0)
        g.d_s_slice(rng.normal(size=(4, n // 12, 3)), 0.1, False)
        g.d_t(gr, rng.normal(size=(gr.n_t, gr.n_s, 3)))
        g._diff(rng.normal(size=n + 1), 0.1, True, 0)
        g.d_s_slice(rng.normal(size=(4, n // 12 + 1, 3)), 0.1, True)
        g.d_s(gr, rng.normal(size=(gr.n_t, gr.n_s + 1, 3)))
        assert calls == ["_diff_gather"] * 3 + ["_diff_slices"] * 3
