"""Kustaanheimo-Stiefel regularization of the Kepler problem.

The package follows one pipeline: quadratic invariants on the
eight-dimensional phase space, their Poisson algebra, the orbit space
they cut out, the two-to-one map onto the Kepler side, the flows that
the map intertwines, and a benchmark that races the raw equations
against the regularized ones through near-collision orbits.
"""
