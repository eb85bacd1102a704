"""Optical-lens tampering toolkit for monocular depth pipelines.

Submodules map onto the pipeline stages: ``optics`` (one closed-form
evaluation of a lens stack: scenario, per-stage values and depth ratio),
``imaging`` (attacked-image synthesis), ``estimation`` (the geometric proxy
estimator, file-backed depth maps and masked means), ``metrics``
(distortion / error rates), ``attack_opt`` (brute-force level search),
``defense`` (blur detection), ``scenario`` (closed-loop braking sandbox),
``cli`` (command-line surface).
"""

from . import (attack_opt, defense, estimation, formats, imaging, metrics,
               optics, scenario)

__all__ = [
    "attack_opt",
    "defense",
    "estimation",
    "formats",
    "imaging",
    "metrics",
    "optics",
    "scenario",
]

__version__ = "0.1.0"
