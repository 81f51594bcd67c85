"""Reduced-field simulation and verification toolkit for an elastic strand
whose cross-sections carry three internal rotors.

Submodules are imported explicitly (``from strand_reduce import so3, grid,
...``); nothing heavy is pulled in at package import time.
"""

__version__ = "0.1.0"
