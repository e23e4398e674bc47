"""Controller tuning toolkit for second-order plants.

Synthesizes PID gains by dominant pole placement, reconstructs the
equivalent quadratic-regulator problem (Riccati solution and weights)
analytically, maps the controller through a fractional-order conformal
transformation, and compares single-stage against two-stage designs by
control cost and controller effort.
"""

from . import fractional_map, lqr_inverse, numerics, pole_placement, simulate, tuner
from .fractional_map import *  # noqa: F401,F403
from .lqr_inverse import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .pole_placement import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .tuner import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = (
    fractional_map.__all__
    + lqr_inverse.__all__
    + numerics.__all__
    + pole_placement.__all__
    + simulate.__all__
    + tuner.__all__
)
