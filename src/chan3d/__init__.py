"""chan3d: system-level 3D stochastic channel simulator.

Generates polarized double-directional MIMO channel realizations over a
tri-sector hexagonal deployment with 3D UE dropping, and computes the
standard slow-fading and fast-fading calibration metrics (coupling gain,
geometry factor, spread and eigenvalue CDFs).
"""
from .campaign import run_campaign

__version__ = "0.1.0"
