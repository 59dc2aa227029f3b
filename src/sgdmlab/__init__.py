"""Numerical verification lab for a stochastic momentum method: discrete
optimizers, Lyapunov descent checks, continuous-time (ODE/SDE) limits,
high-probability concentration machinery, and ensemble statistics.
"""

__version__ = "0.1.0"
