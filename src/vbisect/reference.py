"""Frozen reference values for the regression and acceptance suites.

These are the published figures the package is validated against. They are
inputs to tests and reports, never to the algorithms themselves.
"""

# Fluid-limit upper bounds per degree; which seed produced them is not known.
FLUID_ALPHA = {
    4: 0.58103,
    5: 0.61018,
    6: 0.65693,
    7: 0.65640,
    8: 0.72031,
    9: 0.88097,
    10: 0.83769,
}

# The fluid-limit bound for degree 3 (0.24093n over n/2).
FLUID_ALPHA_D3 = 0.48186

# Degree-3 cell of the published comparison table: an edge-cut bound quoted
# from earlier work, not produced by this method.
EDGE_BOUND_ALPHA_D3 = 0.27964

# Mean greedy-search alpha at n = 1e5, 5 graphs x 5 runs, back-off 2.
GREEDY_MEAN_ALPHA_N1E5 = {
    3: 0.3097,
    4: 0.4612,
    5: 0.5565,
    6: 0.6244,
    7: 0.6789,
    8: 0.7197,
    9: 0.7526,
    10: 0.7777,
}

# Empirical upper-bound column of the comparison table (n = 6e5 runs).
EXPERIMENTAL_ALPHA = {
    3: 0.30924,
    4: 0.46552,
    5: 0.55903,
    6: 0.62588,
    7: 0.67865,
    8: 0.72051,
    9: 0.75354,
    10: 0.77800,
}

# Proven lower-bound column of the comparison table.
LOWER_BOUND_ALPHA = {
    3: 0.14420,
    4: 0.28966,
    5: 0.40859,
    6: 0.50190,
    7: 0.57466,
    8: 0.63178,
    9: 0.67716,
    10: 0.71371,
}

# Mean alpha for degree 4 at n = 1e5 by seed-ball back-off: backing off two
# radii beats backing off one.
OFFSET_MEAN_ALPHA_D4_N1E5 = {2: 0.46180, 1: 0.47974}


def table_alpha(d: int) -> float | None:
    """Upper-bound column of the comparison table for one degree (the d=3
    cell is the external edge bound)."""
    if d == 3:
        return EDGE_BOUND_ALPHA_D3
    return FLUID_ALPHA.get(d)
