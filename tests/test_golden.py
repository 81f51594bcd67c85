"""Golden runs: the full manifest sha256 of three stored runs, and the
``residuals --in`` report of the first.

The manifest lists the sha256 of every field CSV and the model line, so its
own hash pins every byte a run writes.  A change that moves any of these
values must say why in CHANGES.md and update them here.
"""

import hashlib

import pytest

from strand_reduce.cli import main

# The configuration of the README, a 64x200 periodic twist pulse.
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
    ("periodic", "rigidbody", "midpoint"):
        "db8edb1d683e07b49ea96f85054f74095801fba4c275dfea1b861879fb637433",
}

README_RESIDUALS = """\
residuals
stage1_vertical_l2 0.00021679658507229582 - PASS
stage1_horizontal_rho_l2 0.00012105544049839896 - PASS
stage1_horizontal_theta_l2 0.00022885457515925235 - PASS
flatness_rotation_max 0.00063055747792051904 - PASS
"""


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
    if case == ("periodic", "twistpulse", "rk4"):
        capsys.readouterr()
        assert main(["residuals", "--in", str(out)]) == 0
        assert capsys.readouterr().out == README_RESIDUALS
