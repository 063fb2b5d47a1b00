"""Versioned defaults table.

Every report echoes this table (under "defaults") so results can be
reproduced without consulting the source.  Bump SCHEMA_VERSION when a
report field or a default changes meaning.
"""

SCHEMA_VERSION = 1

# algebraic identities at desk scale (dims <= ~12) sit far inside float64
TOL_ALGEBRAIC = 1e-10
TOL_ROUNDTRIP = 1e-8
COND_CAP = 1e12
EIGEN_IMAG_REL = 1e-9     # |Im lambda| <= this * ||G|| counts as a real eigenvalue
ZERO_REL = 1e-12          # entries below this * max|G| are zeros for sign logic
PSD_REL = 1e-9            # smallest eigenvalue >= -this * ||G||

PERMANENT_CAP = 8
M_MAX = 5
BETA_GRID = tuple(round(0.1 * k, 10) for k in range(1, 21))      # 0.1 .. 2.0
ALPHA_GRID = tuple(round(0.5 * k, 10) for k in range(0, 11))     # 0.0 .. 5.0
NEGATIVITY_REL = 1e-10    # witness threshold: value < -this * max|entry|^m

C_GRID = (0.5, 1.0, 2.0)

MONOTONE_ALPHA_POINTS = 25
MONOTONE_ALPHA_MAX = 5.0
MONOTONE_TOL = 1e-10

LATTICE_GRID_SIZE = 40
LATTICE_REL_TOL = 1e-9
QUANTILE_LO = 0.01
QUANTILE_HI = 0.99

Z_THRESHOLD = -3.0
ORTHANT_QUANTILES = (0.25, 0.5, 0.75)
SOFT_INDICATOR_SLOPE = 1.0
JACKKNIFE_BLOCKS = 200

DEFAULT_SEED = 20260814


def defaults_table() -> dict:
    """The table echoed into reports: every upper-case constant above but
    SCHEMA_VERSION, lower-cased, with tuples as lists (plain JSON types)."""
    return {name.lower(): list(value) if isinstance(value, tuple) else value
            for name, value in globals().items()
            if name.isupper() and name != "SCHEMA_VERSION"}
