import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strand_reduce import fields_io
from strand_reduce import grid as g
from strand_reduce import simulate as sim
from strand_reduce.config import parse_config
from strand_reduce.errors import ConfigError
from strand_reduce.fields_io import (read_fields, read_initial_slice,
                                     read_model, write_fields,
                                     write_initial_slice, write_steps)
from tests.conftest import small_grid

GOOD = """
[grid]
n_s = 16
n_t = 20
length = 1.0
duration = 0.1
bc = periodic

[inertia]
I = diag 1.8 1.4 1.1
K = 0.9 0.1 0 0.1 0.7 0.05 0 0.05 0.5

[potential]
C = diag 1 0.8 0.6
D = diag 0.7 0.5 0.4
kappa = 1.0
c0 = 1.0

[init]
preset = twistpulse
"""


class TestConfig:
    def test_minimal_valid(self):
        cfg = parse_config(GOOD)
        assert cfg.grid.n_s == 16
        assert cfg.grid.bc_s == g.PERIODIC
        assert cfg.grid.ds == pytest.approx(1.0 / 16)
        assert cfg.grid.dt == pytest.approx(0.1 / 19)
        assert cfg.scheme == "rk4"  # default
        assert np.allclose(cfg.params.inertia_body, np.diag([1.8, 1.4, 1.1]))
        assert cfg.params.inertia_rotor[0, 1] == pytest.approx(0.1)

    def test_clamped_spacing(self):
        cfg = parse_config(GOOD.replace("bc = periodic", "bc = clamped"))
        assert cfg.grid.ds == pytest.approx(1.0 / 15)

    def test_scheme_section(self):
        cfg = parse_config(GOOD + "\n[scheme]\nname = midpoint\n")
        assert cfg.scheme == "midpoint"

    def test_reortho_every_rejected(self):
        bad = GOOD + "\n[scheme]\nname = rk4\nreortho_every = 4\n"
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        lineno = bad.splitlines().index("reortho_every = 4") + 1
        assert "scheme.reortho_every" in str(err.value)
        assert f"(line {lineno})" in str(err.value)

    def test_negative_kappa_names_key(self):
        bad = GOOD.replace("kappa = 1.0", "kappa = -2.0")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "potential.kappa" in str(err.value)

    def test_unknown_key_with_line(self):
        bad = GOOD + "\n[scheme]\ncolor = blue\n"
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "scheme.color" in str(err.value)
        assert "line" in str(err.value)

    def test_missing_key(self):
        bad = GOOD.replace("c0 = 1.0", "")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "potential.c0" in str(err.value)

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD + "\n[output]\npath = x\n")

    def test_bad_matrix(self):
        bad = GOOD.replace("I = diag 1.8 1.4 1.1", "I = diag 1.8 1.4")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "inertia.I" in str(err.value)

    def test_non_finite_matrix_rejected(self):
        bad = GOOD.replace("C = diag 1 0.8 0.6", "C = diag nan 0.8 0.6")
        with pytest.raises(ConfigError, match="pot_C must be finite"):
            parse_config(bad)

    def test_cfl_guard_rejected(self):
        bad = GOOD.replace("n_t = 20", "n_t = 3")  # dt = 0.05 > guard
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_init_file(self, tmp_path, params):
        gr = small_grid(n_s=16, n_t=20, duration=0.1)
        state = sim.presets("rigidbody", gr, params)
        write_initial_slice(tmp_path / "init.csv", state)
        text = GOOD.replace("preset = twistpulse", "file = init.csv")
        cfg = parse_config(text, base_dir=str(tmp_path))
        assert np.allclose(cfg.init.rho, state.rho)
        assert np.allclose(cfg.init.omega, state.omega)

    def test_init_file_missing(self):
        text = GOOD.replace("preset = twistpulse", "file = nope.csv")
        with pytest.raises(ConfigError):
            parse_config(text, base_dir="/nonexistent")

    def test_preset_and_file_conflict(self):
        text = GOOD.replace("preset = twistpulse",
                            "preset = static\nfile = x.csv")
        with pytest.raises(ConfigError):
            parse_config(text)


class TestFieldsIO:
    def test_round_trip_bit_identical(self, rng, tmp_path):
        gr = small_grid(n_t=5, n_s=7)
        fields = {"rho": rng.normal(size=(5, 7, 3)),
                  "Lambda": rng.normal(size=(5, 7, 3, 3)),
                  "energy": rng.normal(size=(5, 7))}
        write_fields(tmp_path, gr, fields)
        gr2, back = read_fields(tmp_path)
        assert gr2 == gr
        for name, values in fields.items():
            assert np.array_equal(back[name], values), name
        # second write of the read-back values is byte-identical
        d2 = tmp_path / "again"
        write_fields(d2, gr2, back)
        for f in ("rho.csv", "Lambda.csv", "energy.csv", "manifest.txt"):
            assert (tmp_path / f).read_bytes() == (d2 / f).read_bytes()

    def test_small_zero_field_layout(self, tmp_path):
        gr = g.Grid2(n_t=3, n_s=3, dt=0.5, ds=0.5, bc_s=g.CLAMPED)
        write_fields(tmp_path, gr, {"rho": np.zeros((3, 3, 3))})
        lines = (tmp_path / "rho.csv").read_text().splitlines()
        assert lines[0] == "t_index,s_index,t,s,c1,c2,c3"
        assert len(lines) == 1 + 9
        assert lines[1] == "0,0,0,0,0,0,0"
        assert lines[2].startswith("0,1,0,0.5,")  # t-major, then s

    def test_bytes_match_per_value_reference(self, rng, tmp_path):
        # the level-template writer against one "%.17g" per value
        gr = g.Grid2(n_t=3, n_s=4, dt=0.1, ds=0.25, bc_s=g.PERIODIC)
        rho = rng.normal(size=(3, 4, 3))
        rho[0, 0] = (-0.0, 5e-324, 1e300)
        rho[2, 3] = (-1e300, -5e-324, 0.1)
        rho[1, 2] = (np.nan, np.inf, -np.inf)
        energy = rho[..., 0].copy()
        Lambda = rng.normal(size=(3, 4, 3, 3))
        Lambda[1, 1, 2] = (np.inf, -0.0, np.nan)
        write_fields(tmp_path, gr, {"rho": rho, "energy": energy, "Lambda": Lambda})
        t, s = gr.t_coords(), gr.s_coords()
        for name, flat, width in (("rho", rho, 3), ("energy", energy[..., None], 1),
                                  ("Lambda", Lambda.reshape(3, 4, 9), 9)):
            want = "t_index,s_index,t,s," + ",".join(
                f"c{k + 1}" for k in range(width)) + "\n"
            for i in range(gr.n_t):
                for j in range(gr.n_s):
                    want += (f"{i},{j},{'%.17g' % t[i]},{'%.17g' % s[j]},"
                             + ",".join("%.17g" % x for x in flat[i, j]) + "\n")
            assert (tmp_path / f"{name}.csv").read_bytes() == want.encode(), name
        assert (tmp_path / "rho.csv").read_text().splitlines()[1] == \
            "0,0,0,0,-0,4.9406564584124654e-324,1.0000000000000001e+300"
        assert "1,2,0.10000000000000001,0.5,nan,inf,-inf" in \
            (tmp_path / "rho.csv").read_text().splitlines()
        # the digests are taken from the stream; they must be those of the files
        digests = {}
        for line in (tmp_path / "manifest.txt").read_text().splitlines()[1:]:
            kv = dict(p.split("=", 1) for p in line.split()[1:])
            digests[kv["file"]] = kv["sha256"]
        assert sorted(digests) == ["Lambda.csv", "energy.csv", "rho.csv"]
        for fname, digest in digests.items():
            assert hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest() \
                == digest, fname

    def test_chunked_bytes_match_per_value_reference(self, rng, tmp_path):
        # a level wider than one kernel block (split by nodes) and a field of
        # many short levels (several levels per block)
        for n_t, n_s, shape in ((3, 1500, (3, 3)), (700, 7, ())):
            gr = g.Grid2(n_t=n_t, n_s=n_s, dt=0.01, ds=1.0 / n_s, bc_s=g.PERIODIC)
            values = rng.normal(size=(n_t, n_s) + shape) * 10.0 ** rng.integers(
                -8, 8, size=(n_t, n_s) + shape)
            out = tmp_path / f"{n_t}x{n_s}"
            write_fields(out, gr, {"f": values})
            flat = values.reshape(n_t, n_s, -1)
            t, s = gr.t_coords(), gr.s_coords()
            want = "t_index,s_index,t,s," + ",".join(
                f"c{k + 1}" for k in range(flat.shape[2])) + "\n"
            want += "".join(f"{i},{j},{'%.17g' % t[i]},{'%.17g' % s[j]},"
                            + ",".join("%.17g" % x for x in flat[i, j]) + "\n"
                            for i in range(n_t) for j in range(n_s))
            assert (out / "f.csv").read_bytes() == want.encode()

    def test_steps_bytes_match_per_value_reference(self, rng, tmp_path):
        rows = rng.normal(size=(5, 6))
        rows[:, 0] = np.arange(5)
        rows[1, 1:] = (-0.0, 5e-324, np.nan, np.inf, -np.inf)
        write_steps(tmp_path, rows)
        want = "step,t,max_state,rotor_total_1,rotor_total_2,rotor_total_3\n"
        for row in rows:
            want += f"{int(row[0])}," + ",".join("%.17g" % v for v in row[1:]) + "\n"
        assert (tmp_path / "diagnostics.csv").read_bytes() == want.encode()

    def test_initial_slice_bytes_match_per_value_reference(self, rng, tmp_path):
        state = sim.StateSlice(**{name: rng.normal(size=(6, 3))
                                  for name in sim.COMPONENTS})
        state.theta[2] = (np.nan, -0.0, 1e-310)
        write_initial_slice(tmp_path / "init.csv", state)
        want = "s_index," + ",".join(f"{name}{k + 1}" for name in sim.COMPONENTS
                                     for k in range(3)) + "\n"
        for j in range(6):
            want += f"{j}," + ",".join("%.17g" % getattr(state, name)[j, k]
                                       for name in sim.COMPONENTS
                                       for k in range(3)) + "\n"
        assert (tmp_path / "init.csv").read_bytes() == want.encode()

    def test_manifest_checksum_tracks_values(self, rng, tmp_path):
        gr = small_grid(n_t=5, n_s=7)
        rho = rng.normal(size=(5, 7, 3))
        write_fields(tmp_path / "a", gr, {"rho": rho})
        write_fields(tmp_path / "b", gr, {"rho": rho})
        m_a = (tmp_path / "a" / "manifest.txt").read_text()
        m_b = (tmp_path / "b" / "manifest.txt").read_text()
        assert m_a == m_b
        rho2 = rho.copy()
        rho2[2, 3, 1] += 1e-13
        write_fields(tmp_path / "c", gr, {"rho": rho2})
        assert (tmp_path / "c" / "manifest.txt").read_text() != m_a

    def test_missing_field_reported(self, rng, tmp_path):
        gr = small_grid(n_t=5, n_s=7)
        write_fields(tmp_path, gr, {"rho": rng.normal(size=(5, 7, 3))})
        with pytest.raises(ConfigError):
            read_fields(tmp_path, names=("rho", "omega"))

    @pytest.mark.parametrize("edit", ["grid_value", "field_kind", "csv_cell"])
    def test_malformed_stored_run_rejected(self, rng, tmp_path, edit):
        gr = small_grid(n_t=5, n_s=7)
        write_fields(tmp_path, gr, {"rho": rng.normal(size=(5, 7, 3))})
        manifest = tmp_path / "manifest.txt"
        text = manifest.read_text()
        if edit == "grid_value":
            text = text.replace("n_s=7", "n_s=seven")
        elif edit == "field_kind":
            text = text.replace("kind=vec3", "kind=tensor")
        else:
            csv = tmp_path / "rho.csv"
            old = hashlib.sha256(csv.read_bytes()).hexdigest()
            lines = csv.read_text().splitlines(keepends=True)
            lines[3] = lines[3].rsplit(",", 1)[0] + ",x\n"
            csv.write_text("".join(lines))
            text = text.replace(old, hashlib.sha256(csv.read_bytes()).hexdigest())
        manifest.write_text(text)
        with pytest.raises(ConfigError):
            read_fields(tmp_path)

    def test_vec3_entry_with_rot3_header_rejected(self, rng, tmp_path):
        gr = small_grid(n_t=5, n_s=7)
        write_fields(tmp_path, gr, {"Lambda": rng.normal(size=(5, 7, 3, 3))})
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("kind=rot3", "kind=vec3"))
        with pytest.raises(ConfigError, match="header"):
            read_fields(tmp_path)

    def test_model_line_round_trip(self, rng, tmp_path, params):
        gr = small_grid(n_t=5, n_s=7)
        rho = rng.normal(size=(5, 7, 3))
        write_fields(tmp_path / "m", gr, {"rho": rho}, model=params)
        back = read_model(tmp_path / "m")
        for name in ("inertia_body", "inertia_rotor", "pot_C", "pot_D",
                     "pot_kappa", "pot_c0"):
            assert np.array_equal(getattr(back, name), getattr(params, name))
        # the model line is the last one, and the only difference
        write_fields(tmp_path / "plain", gr, {"rho": rho})
        lines = (tmp_path / "m" / "manifest.txt").read_text().splitlines(True)
        assert lines[-1].startswith("model I=")
        assert "".join(lines[:-1]) == (tmp_path / "plain" / "manifest.txt").read_text()
        with pytest.raises(ConfigError, match="model line"):
            read_model(tmp_path / "plain")

    @pytest.mark.parametrize("edit", [("I=", "I=x,"), ("C=1,", "C=nan,"),
                                      ("c0=1", "c0=-1"), (" kappa=1", "")])
    def test_malformed_model_line_rejected(self, tmp_path, params, edit):
        gr = small_grid(n_t=5, n_s=7)
        write_fields(tmp_path, gr, {"rho": np.zeros((5, 7, 3))}, model=params)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text().replace(*edit))
        with pytest.raises(ConfigError):
            read_model(tmp_path)

    def test_merge_keeps_fields_and_model(self, rng, tmp_path, params):
        gr = small_grid(n_t=5, n_s=7)
        rho = rng.normal(size=(5, 7, 3))
        write_fields(tmp_path, gr, {"rho": rho}, model=params)
        before = (tmp_path / "manifest.txt").read_text().splitlines(True)
        lam = rng.normal(size=(5, 7, 3, 3))
        write_fields(tmp_path, gr, {"Lambda": lam}, merge=True)
        after = (tmp_path / "manifest.txt").read_text().splitlines(True)
        assert after[0] == before[0] and after[2:] == before[1:]
        assert after[1].startswith("field name=Lambda ")
        _, back = read_fields(tmp_path)
        assert np.array_equal(back["rho"], rho)
        assert np.array_equal(back["Lambda"], lam)
        other = small_grid(n_t=5, n_s=8)
        with pytest.raises(ConfigError, match="another grid"):
            write_fields(tmp_path, other, {"Lambda": rng.normal(size=(5, 8, 3, 3))},
                         merge=True)

    def test_initial_slice_round_trip(self, rng, tmp_path, params):
        gr = small_grid(n_s=9, n_t=5)
        state = sim.presets("helix", gr, params)
        path = write_initial_slice(tmp_path / "init.csv", state)
        back = read_initial_slice(path, gr.n_s)
        for name in sim.COMPONENTS:
            assert np.array_equal(getattr(back, name), getattr(state, name))


def assert_kernel_matches_percent(x, sep):
    """The digit kernel's slot of every value is ``'%.17g' % v`` + separator.

    ``sep`` (byte values) broadcasts against ``x``.  A slot is the value's
    text padded with NUL bytes; the ``S`` view drops the trailing NULs, so
    any other byte, or a NUL inside the text, shows.
    """
    x = np.asarray(x, dtype=float)
    sep = np.broadcast_to(np.asarray(sep, np.uint8), x.shape)
    slots = fields_io._slots(x, sep)
    have = slots.view(f"S{slots.shape[-1]}").ravel().tolist()
    want = [b"%.17g%c" % (v, c) for v, c in zip(x.ravel().tolist(),
                                                sep.ravel().tolist())]
    bad = [(v, h, w) for v, h, w in zip(x.ravel().tolist(), have, want) if h != w]
    assert not bad, bad[:5]


def decade_edges():
    """Powers of ten and of two, each with its one-ulp neighbours, and more."""
    pows = [float(f"1e{p}") for p in range(-320, 309)]
    pows += [2.0 ** e for e in range(-1074, 1024)]
    pows = np.array(pows)
    edges = np.concatenate([pows, np.nextafter(pows, 0), np.nextafter(pows, np.inf)])
    special = [0.0, 5e-324, 2.2250738585072014e-308, 1e300, 1e-300, np.nan,
               np.inf, 1000000000000000.25, 1000000000000000.75]
    ties = 1e15 + np.arange(200) + 0.25        # 17 digits end in an exact 5
    near = [np.nextafter(c, c * k) for c in (1e17, 1e-4, 9.99999999999999999e16,
                                             9.99999999999999999e-5)
            for k in (0, 2)]
    walks = [c * (1 + np.arange(-40, 41) * 2.0 ** -53) for c in (1e17, 1e-4, 1e22, 1e23)]
    x = np.concatenate([edges, special, ties, near, *walks])
    return np.concatenate([x, -x])


class TestDigitKernel:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, 2 ** 64 - 1), st.sampled_from(b",\n")),
                    min_size=1, max_size=64))
    def test_bit_patterns_match_percent(self, cells):
        bits, seps = zip(*cells)
        assert_kernel_matches_percent(np.array(bits, np.uint64).view(np.float64),
                                      seps)

    def test_million_random_bit_patterns(self):
        rng = np.random.default_rng(20261018)
        bits = rng.integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
        for block in np.split(bits.view(np.float64), 250):    # 4000 values
            assert_kernel_matches_percent(block.reshape(-1, 2), (44, 10))

    def test_edge_values(self):
        x = decade_edges()
        for i in range(0, len(x), 4096):
            assert_kernel_matches_percent(x[i:i + 4096], 44)
        text = fields_io._slots(np.array([1000000000000000.25, -0.0]), 44).tobytes()
        assert text.replace(b"\0", b"") == b"1000000000000000.2,-0,"
