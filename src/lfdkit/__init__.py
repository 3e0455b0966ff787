"""Learning-from-demonstration toolkit: 6-DoF movement primitives, admittance
kinesthetic-teaching simulation, rim-mask hole localization, and peg-in-hole
assembly trials with jerk/timing metrics."""

__version__ = "0.1.0"

from .se3 import Pose
from .trajectory import Trajectory

__all__ = ["Pose", "Trajectory", "__version__"]
