import numpy as np
import pytest

from strand_reduce import grid as g
from tests.conftest import small_grid


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
        assert g.integrate_s(gr, f, 0) == pytest.approx(1.0, abs=1e-12)

    def test_sin_periodic_is_zero(self):
        gr = small_grid()
        k = 2 * np.pi / gr.length_s
        f = field_of(gr, lambda t, s: np.sin(k * s) + 0.0 * t)
        assert g.integrate_s(gr, f, 3) == pytest.approx(0.0, abs=1e-12)

    def test_linear_clamped(self):
        gr = small_grid(bc=g.CLAMPED, length=1.0)
        f = field_of(gr, lambda t, s: s + 0.0 * t)
        assert g.integrate_s(gr, f, 0) == pytest.approx(0.5, abs=1e-12)

    def test_vector_integrand(self, rng):
        gr = small_grid()
        f = rng.normal(size=(gr.n_t, gr.n_s, 3))
        out = g.integrate_s(gr, f, 5)
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

    def test_adjoint_is_exact_transpose(self, rng):
        for bc in (g.PERIODIC, g.CLAMPED):
            gr = small_grid(n_t=7, n_s=9, bc=bc)
            f = rng.normal(size=(gr.n_t, gr.n_s))
            h = rng.normal(size=(gr.n_t, gr.n_s))
            for d, dT in ((g.d_s, g.d_s_adjoint), (g.d_t, g.d_t_adjoint)):
                assert np.sum(d(gr, f) * h) == pytest.approx(
                    np.sum(f * dT(gr, h)), rel=1e-12, abs=1e-12)

    def test_periodic_matches_roll_formula(self, rng):
        # the slice-built periodic stencil against the np.roll formula,
        # including size-1 and size-2 periodic axes
        h = 0.3
        for shape in ((1, 6, 3), (2, 6, 3), (5, 1, 3), (5, 2, 3), (7, 9, 3),
                      (4, 5, 2, 3)):
            f = rng.normal(size=shape)
            for axis in (0, 1, -2):
                want = (np.roll(f, -1, axis=axis)
                        - np.roll(f, 1, axis=axis)) / (2.0 * h)
                assert np.array_equal(g._diff(f, h, True, axis), want), (shape, axis)

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
