"""Golden runs: the manifest and ``diagnostics.csv`` sha256 of four stored
runs, the ``residuals --in`` report of the two twist pulses and the
``noether --in`` report of the clamped one.

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
    ("periodic", "rigidbody", "rk4"):
        "9135c5607be3e8da8cbc642abadf81108f9d58e7d5b525507ac3f022c683fee6",
}

DIAGNOSTICS = {
    ("periodic", "twistpulse", "rk4"):
        "c51ee0522e28aebb5507860653f2777beb39e52cd62a09073d8b660b9ac725da",
    ("clamped", "helix", "rk4"):
        "394608af93d57fd193a2b2429c554b4116533ad080ad969a2ccb17799c369e32",
    ("clamped", "twistpulse", "rk4"):
        "1f6a185ff59eb518c2a8fae2a89048fb3928ac13d438241568e34874534ab4c5",
    ("periodic", "rigidbody", "rk4"):
        "16338c040a17f52b3fecc5766c32807d3bb25a2b73551d2bea63b5ddf084c5fd",
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
stage1_vertical_l2 0.00019918479137746793 - PASS
stage1_horizontal_rho_l2 0.00011253110713526818 - PASS
stage1_horizontal_theta_l2 0.0002102240089498186 - PASS
flatness_rotation_max 0.00062194186324076239 - PASS
""",
}

# The rotor divergence reads every node of the interior levels, as the
# residuals do (it is the horizontal_theta residual on a marched run); the
# SO(3) divergence keeps the cut grid's interior nodes.
NOETHER = {
    ("clamped", "twistpulse", "rk4"): """\
noether
rotor_total_drift 9.48669037775512e-06 - PASS
rotor_divergence_interior_l2 0.00021022400894981144 - PASS
so3_total_drift 0.00015547046862200936 - PASS
so3_divergence_interior_l2 0.00019588706347631766 - PASS
current_vertical_identity_max_err 1.5575023135127546e-15 9.9999999999999998e-13 PASS
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
    for command, golden in (("residuals", RESIDUALS), ("noether", NOETHER)):
        if case in golden:
            capsys.readouterr()
            assert main([command, "--in", str(out)]) == 0
            assert capsys.readouterr().out == golden[case]
