"""adcslab: deterministic attitude-control simulation for a 3U CubeSat.

Quaternion rigid-body propagation, a point-mass mass-property model with a
movable regolith payload, a LEO disturbance environment, magnetorquer plus
reaction-wheel control laws behind a mode state machine, and a scenario
harness with Monte Carlo support.  See the README for a tour.

The package root exports the scenario entry points; everything else is
imported from its module (``adcslab.harness``, ``adcslab.rigidbody``, ...).
"""

from .harness import default_scenario, monte_carlo, run_scenario

__version__ = "0.1.0"

__all__ = ["default_scenario", "run_scenario", "monte_carlo", "__version__"]
