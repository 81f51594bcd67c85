"""Golden runs: the manifest and ``diagnostics.csv`` sha256 of four stored
runs, and the ``residuals --in`` report of the two twist pulses.

The manifest lists the sha256 of every field CSV and the model line, so its
own hash pins every field byte a run writes; the diagnostics hash pins the
march's per-step ``max_state`` and rotor totals.  A change that moves any of
these values must say why in CHANGES.md and update them here.
"""

import hashlib

import pytest

from strand_reduce.cli import main

# The configuration of the README, a 64x200 periodic twist pulse.  The
# clamped helix is a static equilibrium, so its s stencil meets only
# constant fields; the clamped twist pulse is the run whose manifest sees the
# s closure's edge rows.
README_CONFIG = """\
[grid]
n_s = 64
n_t = 200
length = 1.0
duration = 0.5
bc = {bc}

[inertia]
I = diag 1.8 1.4 1.1
K = 0.9 0.1 0 0.1 0.7 0.05 0 0.05 0.5

[potential]
C = diag 1 0.8 0.6
D = diag 0.7 0.5 0.4
kappa = 1.0
c0 = 1.0

[init]
preset = {preset}

[scheme]
name = {scheme}
"""

GOLDEN = {
    ("periodic", "twistpulse", "rk4"):
        "3411d6aeb749315fe6c2602b154d81911fc9afb448aa9d3c2be7d66679da1581",
    ("clamped", "helix", "rk4"):
        "acf6031e54f219c0964dee82a76cd420565fdfea157e8f3893f8081b48d23ed9",
    ("clamped", "twistpulse", "rk4"):
        "0c869a362780df3c1cd2a24a419f8a037d09a4ef9a704d41354fe18154d5b032",
    ("periodic", "rigidbody", "midpoint"):
        "db8edb1d683e07b49ea96f85054f74095801fba4c275dfea1b861879fb637433",
}

DIAGNOSTICS = {
    ("periodic", "twistpulse", "rk4"):
        "c51ee0522e28aebb5507860653f2777beb39e52cd62a09073d8b660b9ac725da",
    ("clamped", "helix", "rk4"):
        "394608af93d57fd193a2b2429c554b4116533ad080ad969a2ccb17799c369e32",
    ("clamped", "twistpulse", "rk4"):
        "1f6a185ff59eb518c2a8fae2a89048fb3928ac13d438241568e34874534ab4c5",
    ("periodic", "rigidbody", "midpoint"):
        "022c425f63d9cd09e68e8675c2d42732908a23f1b214956b6016c2866b33683f",
}

RESIDUALS = {
    ("periodic", "twistpulse", "rk4"): """\
residuals
stage1_vertical_l2 0.00021679658507229582 - PASS
stage1_horizontal_rho_l2 0.00012105544049839896 - PASS
stage1_horizontal_theta_l2 0.00022885457515925235 - PASS
flatness_rotation_max 0.00063055747792051904 - PASS
""",
    ("clamped", "twistpulse", "rk4"): """\
residuals
stage1_vertical_l2 0.0001945996200528356 - PASS
stage1_horizontal_rho_l2 0.00010988122369067461 - PASS
stage1_horizontal_theta_l2 0.00020532886592992914 - PASS
flatness_rotation_max 0.00062194186324076239 - PASS
""",
}


def simulate(tmp_path, bc, preset, scheme):
    cfg = tmp_path / f"{preset}.cfg"
    cfg.write_text(README_CONFIG.format(bc=bc, preset=preset, scheme=scheme))
    out = tmp_path / preset
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("case", list(GOLDEN), ids="-".join)
def test_manifest_sha256(tmp_path, capsys, case):
    out = simulate(tmp_path, *case)
    digest = hashlib.sha256((out / "manifest.txt").read_bytes()).hexdigest()
    assert digest == GOLDEN[case]
    steps = hashlib.sha256((out / "diagnostics.csv").read_bytes()).hexdigest()
    assert steps == DIAGNOSTICS[case]
    if case in RESIDUALS:
        capsys.readouterr()
        assert main(["residuals", "--in", str(out)]) == 0
        assert capsys.readouterr().out == RESIDUALS[case]
