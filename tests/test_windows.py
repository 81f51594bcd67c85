"""The reports evaluate a run in time windows and match the whole grid bit for bit.

The whole-grid oracles below restate what the reports computed before they
ran window by window: the per-field evaluators on the whole section, reduced
by ``norm_l2`` and ``norm_max``.  ``WINDOW_NODES`` is patched so that the
windows split the grid in several places, with tails of every length the
partition allows.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from strand_reduce import checks
from strand_reduce import grid as g
from strand_reduce import model
from strand_reduce import noether
from strand_reduce import reduction as red
from strand_reduce import residuals as rs
from strand_reduce import so3
from strand_reduce.simulate import residual_norms, run_summary
from tests.conftest import small_grid, smooth_stage1_section

N_T = 23
# owned levels per window on N_T levels: every 4 (tail 3), every 5 (tail 3),
# every 7 (tail 2), every 11 (a tail of 1 joins the window before)
STEPS = (4, 5, 7, 11)


def section(bc):
    # non-solution fields, so every residual and divergence is far from 0;
    # an odd n_s on clamped grids puts the window rows off any alignment
    gr = small_grid(n_t=N_T, n_s=12 if bc == g.PERIODIC else 13, bc=bc)
    return smooth_stage1_section(gr)


def rotation_field(s1):
    return so3.exp_so3(0.7 * s1.theta + 0.2 * s1.rho)


@pytest.fixture(params=STEPS)
def split(request):
    """Owned levels per window."""
    return request.param


def patch_windows(monkeypatch, gr, step):
    monkeypatch.setattr(g, "WINDOW_NODES", step * gr.n_s)
    windows = list(gr.windows())
    assert len(windows) > 1
    return windows


def whole_grid_residual_report(s1, params):
    mask = s1.grid.interior_mask(2)
    r = rs.stage1_residuals(s1, params)
    values = {f"residual_{name}_l2": g.norm_l2(s1.grid, getattr(r, name), mask)
              for name in r._fields}
    values["flatness_rotation_max"] = g.norm_max(
        red.flatness_residual_rotation(s1.grid, s1.Omega, s1.omega), mask)
    return values


def whole_grid_noether_report(s1, Lam, params):
    gr = s1.grid
    f = rs.stage1_derivative_fields(s1, params)
    d = model.fiber_derivatives_stage1(f, params)
    balance = noether.drift_residual(Lam, f, d, params)
    cut = dataclasses.replace(gr, bc_s=g.CLAMPED)
    values, totals = {}, []
    for name, cur, div_grid in (("rotor", noether.rotor_current(gr, d), gr),
                                ("so3", noether.so3_current(gr, Lam, d), cut)):
        tot = noether.totals_over_time(cur)
        totals.append(tot)
        values[f"{name}_total_drift"] = float(
            np.max(np.linalg.norm(tot - tot[0], axis=-1)))
        div = noether.divergence(dataclasses.replace(cur, grid=div_grid))
        values[f"{name}_divergence_interior_l2"] = g.norm_l2(
            div_grid, div, div_grid.interior_mask(2))
    values["current_vertical_identity_max_err"] = g.norm_max(
        balance - np.einsum("tsij,tsj->tsi", Lam,
                            rs.stage1_residuals(s1, params, fields=f).vertical))
    return values, np.hstack(totals)


class TestPartition:
    @pytest.mark.parametrize("n_t", [3, 4, 5, 6, 7, 23, 64])
    @pytest.mark.parametrize("window_nodes", [1, 16, 24, 40, 80, 10 ** 6])
    def test_windows_partition_the_levels(self, monkeypatch, n_t, window_nodes):
        monkeypatch.setattr(g, "WINDOW_NODES", window_nodes)
        gr = small_grid(n_t=n_t, n_s=8)
        step = max(2 * g.WINDOW_HALO, window_nodes // gr.n_s)
        owned = []
        for w in gr.windows():
            own = range(gr.n_t)[w.own]
            owned += own
            assert 2 <= len(own) <= step + 1
            assert w.read == slice(max(0, own[0] - g.WINDOW_HALO),
                                   min(gr.n_t, own[-1] + 1 + g.WINDOW_HALO))
            assert w.grid == dataclasses.replace(gr, n_t=w.read.stop - w.read.start)
            assert range(w.read.start, w.read.stop)[w.inner] == own
        assert owned == list(range(n_t))

    def test_default_window_reads_about_8192_nodes(self):
        gr = g.Grid2.uniform(400, 256, 0.5, 1.0, g.CLAMPED)
        owned = [w.own.stop - w.own.start for w in gr.windows()]
        assert owned == [32] * 12 + [16]


@pytest.mark.parametrize("bc", [g.PERIODIC, g.CLAMPED])
class TestBitwiseEqualToWholeGrid:
    def test_owned_levels_see_the_whole_grid_stencils(self, monkeypatch, split,
                                                      bc, params):
        # the reports mask the two levels at each time edge; this pins every
        # owned level, edges included
        s1 = section(bc)
        whole = rs.stage1_derivative_fields(s1, params)
        for w in patch_windows(monkeypatch, s1.grid, split):
            part = rs.stage1_derivative_fields(red.window_view(s1, w), params)
            for field in dataclasses.fields(part):
                have = getattr(part, field.name)[w.inner]
                assert have.tobytes() == getattr(whole, field.name)[w.own].tobytes()

    def test_run_summary(self, monkeypatch, split, bc, params):
        s1 = section(bc)
        rows = np.zeros((N_T, 6))
        want = run_summary(s1, params, rows)
        patch_windows(monkeypatch, s1.grid, split)
        got = run_summary(s1, params, rows)
        assert want == got == {**whole_grid_residual_report(s1, params),
                               "rotor_total_drift": 0.0}

    def test_residual_report(self, monkeypatch, split, bc, params):
        s1 = section(bc)
        patch_windows(monkeypatch, s1.grid, split)
        got = residual_norms(s1, params)
        assert got == whole_grid_residual_report(s1, params)
        assert list(got) == list(whole_grid_residual_report(s1, params))

    def test_noether_report(self, monkeypatch, split, bc, params):
        s1 = section(bc)
        Lam = rotation_field(s1)
        want, want_totals = whole_grid_noether_report(s1, Lam, params)
        patch_windows(monkeypatch, s1.grid, split)
        rows, totals = checks.noether_report(s1, Lam, params)
        assert {c.name: c.value for c in rows} == want
        assert [c.name for c in rows] == list(want)
        assert totals.shape == want_totals.shape
        assert totals.tobytes() == want_totals.tobytes()

    def test_flatness_gate_value(self, monkeypatch, split, bc):
        s1 = section(bc)
        want = g.norm_max(red.flatness_residual_rotation(s1.grid, s1.Omega,
                                                         s1.omega))
        patch_windows(monkeypatch, s1.grid, split)
        assert red.flatness_max(s1.grid, s1.Omega, s1.omega) == want


class TestWindowedMaxPropagatesNan:
    def test_nan_in_one_window(self, monkeypatch):
        s1 = section(g.CLAMPED)
        patch_windows(monkeypatch, s1.grid, 5)
        s1.Omega[12, 6, 1] = np.nan
        gr, Omega, omega = s1.grid, s1.Omega, s1.omega
        assert np.isnan(red.flatness_max(gr, Omega, omega))
        # masked out, the NaN nodes do not count, as with norm_max
        mask = gr.interior_mask(2)
        mask[10:15] = False
        sq, = g.by_window(gr, lambda w: (g.node_sq(
            red.flatness_residual_rotation(w.grid, Omega[w.read],
                                           omega[w.read])),))
        assert g.max_sq(sq, mask) == g.norm_max(
            red.flatness_residual_rotation(gr, Omega, omega), mask)


class TestPeakMemory:
    """On 256 x 400 the whole-grid reports allocated 3-4 times their inputs."""

    @pytest.fixture(scope="class")
    def big(self):
        gr = g.Grid2.uniform(400, 256, 0.5, 1.0, g.CLAMPED)
        s1 = checks.random_smooth_section(gr, np.random.default_rng(7))
        Lam = rotation_field(s1)
        inputs = sum(a.nbytes for a in (s1.rho, s1.theta, s1.Omega, s1.omega,
                                        Lam))
        return s1, Lam, inputs

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_noether_report(self, big, params):
        s1, Lam, inputs = big
        peak = self.traced_peak(lambda: checks.noether_report(s1, Lam, params))
        assert peak < 1.5 * inputs

    def test_residual_report(self, big, params):
        s1, _, inputs = big
        peak = self.traced_peak(lambda: residual_norms(s1, params))
        assert peak < 1.5 * inputs
