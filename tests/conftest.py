import numpy as np
import pytest

from spectral_sl import FourierPotential, build_table

# hand-evaluated table for the single-harmonic potential q_1 = 1 at order 3,
# worked column by column from the recurrences
Q1_TABLE_3 = {
    (1, 1): -1.0,
    (1, 2): 0.5,
    (2, 2): -0.5,
    (1, 3): -1.0 / 12.0,
    (2, 3): 1.0 / 6.0,
    (3, 3): -1.0 / 12.0,
}

# single-harmonic potential with a genuine point spectrum; the first-quadrant
# eigenvalue below was located by the winding search and double-checked by
# |c12| -> 1e-15 at the point
EIG_POTENTIAL = FourierPotential(beta=1.0, q=(4.0 + 4.0j,))
EIG_LAMBDA_S0 = 0.7663156589549573 + 0.11076122565204634j


def random_potential(rng, max_harmonics=3, beta_range=(0.5, 2.0), amp=1.0):
    n = int(rng.integers(1, max_harmonics + 1))
    q = tuple(amp * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)))
    beta = float(rng.uniform(*beta_range))
    return FourierPotential(beta=beta, q=q)


def offlattice_lambda(rng, beta):
    """Random first-quadrant-ish lambda staying clear of both pole lattices."""
    while True:
        lam = complex(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0))
        n = np.arange(1, 200)
        if min(np.min(np.abs(lam - n / 2)), np.min(np.abs(lam + n / 2))) < 1e-3:
            continue
        if min(
            np.min(np.abs(lam - 1j * n / (2 * beta))),
            np.min(np.abs(lam + 1j * n / (2 * beta))),
        ) < 1e-3:
            continue
        return lam


# half-width of the centred mean in `centred_limit`: the error is O(step^2),
# and the step keeps clear of the 1e-6 pole guard of the series evaluators
CENTRED_STEP = 3e-6
# direction of the two points: the quadrant diagonal clears both pole
# lattices, the real half-integers and the imaginary points i n/(2 beta)
CENTRED_DIRECTION = complex(np.exp(0.25j * np.pi))


def centred_limit(g, lam0):
    """Value at lam0 of a function g analytic there but evaluable only off it.

    g(lam0 + e d) = g0 + g1 e d + O(e^2), so the mean over the two points
    lam0 +/- e d cancels the linear term that biases a one-sided limit and
    leaves an O(e^2) error.  d is `CENTRED_DIRECTION`.
    """
    step = CENTRED_STEP * CENTRED_DIRECTION
    return (g(lam0 + step) + g(lam0 - step)) / 2.0


@pytest.fixture(scope="session")
def q1_table_30():
    return build_table(FourierPotential(beta=1.0, q=(1.0,)), 30)


@pytest.fixture(scope="session")
def zero_table():
    return build_table(FourierPotential(beta=1.0, q=()), 10)
