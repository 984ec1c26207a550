"""Turning near-feasible LP solutions into exactly feasible ones.

The repair runs in three steps: normalize the variable marginals row by row
(surgery), rewrite each local table so its single-variable marginals match
the normalized x exactly (a coefficient overwrite in an orthonormal product
basis, followed by mixing with the uniform table to restore nonnegativity),
and finally shift x itself by the same uniform mixture so the two sides
agree.  The output satisfies every equality row of the basic relaxation to
machine precision and loses at most a controlled multiple of the measured
infeasibility in objective value.
"""

from __future__ import annotations

import functools

import numpy as np

from .csp import CspInstance
from .errors import NotADistribution, ZeroRow
from .lp import LpSolution, infeasibility, marginal_violation, value_of


@functools.lru_cache(maxsize=None)
def build_basis(q: int) -> np.ndarray:
    """Orthonormal characters of [q] as a q x q array, chi[i, a] = chi_i(a).

    Gram-Schmidt over the indicator functions, constant function first, under
    the uniform inner product E_a[f(a) g(a)]; max |chi_i(a)| <= sqrt(q).  Signs
    are fixed by requiring the first nonzero entry of each character to be
    positive, so the basis is identical across platforms.  Cached and shared,
    so the array is read-only.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    raw = [np.ones(q)]
    for i in range(q - 1):
        e = np.zeros(q)
        e[i] = 1.0
        raw.append(e)
    basis: list[np.ndarray] = []
    for vec in raw:
        u = vec.astype(float)
        for b in basis:
            u -= (u @ b / q) * b
        norm = np.sqrt(u @ u / q)
        if norm < 1e-12:
            continue
        u /= norm
        nz = np.nonzero(np.abs(u) > 1e-12)[0][0]
        if u[nz] < 0:
            u = -u
        basis.append(u)
    table = np.vstack(basis)
    table.flags.writeable = False
    return table


def transform(values: np.ndarray, matrix: np.ndarray, k: int) -> np.ndarray:
    """Apply the q x q `matrix` along every axis of a flat [q]^k table
    (lexicographic, first axis most significant).

    With the basis this is the coefficient transform
    hat_f(sigma) = sum_beta f(beta) chi_sigma(beta); with basis.T / q it is
    its inverse, f(beta) = E_sigma[hat_f(sigma) chi_sigma(beta)].
    """
    arr = values.reshape((len(matrix),) * k).astype(float)
    for axis in range(k):
        moved = np.moveaxis(arr, axis, 0)
        out = np.dot(matrix, moved.reshape(len(moved), -1))
        arr = np.moveaxis(out.reshape(moved.shape), 0, axis)
    return arr.reshape(-1)


# --- surgery -----------------------------------------------------------------

def surgery(x: np.ndarray) -> np.ndarray:
    """Normalize each variable's marginal row to sum exactly to one.

    Requires nonnegative input rows with positive sums; a row of zeros has
    no meaningful normalization and raises ZeroRow.
    """
    x = np.asarray(x, dtype=float)
    if (x < -1e-12).any():
        raise NotADistribution("negative marginal entry")
    sums = x.sum(axis=1)
    if (sums <= 0).any():
        raise ZeroRow(f"variable {int(np.argmin(sums))} has an all-zero marginal row")
    return x / sums[:, None]


# --- smoothing ---------------------------------------------------------------

def smooth(mu_table: np.ndarray, x_rows: np.ndarray, eps: float,
           delta: float | None = None):
    """Rewrite one local table to carry exact marginals.

    `mu_table` is a distribution over [q]^k (flat); `x_rows` is the k x q
    array of target marginals, each row summing to one exactly.  `eps` is the
    measured marginal violation of the pair.  Returns (table, delta) where
    the output table h satisfies, exactly up to float arithmetic:

        h >= 0,  sum h = 1,  marginal_i(h) = (1 - delta) x_i + delta / q,
        and  ||mu - h||_1 <= 2 delta,   with delta = k q^3 eps (capped at 1).
    """
    x_rows = np.asarray(x_rows, dtype=float)
    k, q = x_rows.shape
    mu_table = np.asarray(mu_table, dtype=float)
    if mu_table.shape != (q ** k,):
        raise ValueError("table size mismatch")
    if (mu_table < -1e-12).any():
        raise NotADistribution("negative table entry")
    if abs(mu_table.sum() - 1.0) > 0.05:
        raise NotADistribution(f"table sums to {mu_table.sum():.4f}")
    if np.max(np.abs(x_rows.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("marginal targets must sum to one exactly")

    basis = build_basis(q)
    if delta is None:
        delta = min(1.0, k * q ** 3 * eps)

    fh = transform(mu_table, basis, k).reshape((q,) * k)
    # overwrite the degree-<=1 coefficients with those of the target marginals
    for i in range(k):
        fh[(0,) * i + (slice(None),) + (0,) * (k - 1 - i)] = basis @ x_rows[i]
    fprime = transform(fh, basis.T / q, k)
    uniform = 1.0 / q ** k
    h = (1.0 - delta) * fprime + delta * uniform
    h = np.where(np.abs(h) < 1e-15, np.maximum(h, 0.0), h)
    return h, float(delta)


# --- full repair -------------------------------------------------------------

def repair_to_feasible(instance: CspInstance, sol: LpSolution):
    """Produce an exactly feasible solution from an eps-infeasible one.

    Returns (repaired LpSolution, report); the report holds the measured
    `input_eps`, the mixing weight `delta`, and `value_before` and
    `value_after`.  The same mixing weight delta is used for every table and
    for the final marginal shift, so the equality rows close exactly:
    sum_a x''[v,a] = 1 and every table marginal equals
    (1-delta) x'[v] + delta/q = x''[v].

    delta is driven by the measured post-surgery infeasibility (the smoothing
    guarantee needs the violation relative to the corrected marginals) and by
    the largest distinct-variable count among the constraints.
    """
    measured_eps = infeasibility(instance, sol)
    x_prime = surgery(sol.x)
    post = marginal_violation(instance, x_prime, sol.mu)
    k_max = max((len(c.distinct_vars()) for c in instance.constraints), default=1)
    delta = min(1.0, k_max * instance.q ** 3 * post)

    mu_prime: dict[int, np.ndarray] = {}
    for cid, c in enumerate(instance.constraints):
        dv = c.distinct_vars()
        rows = x_prime[list(dv)]
        table = sol.mu[cid]
        total = table.sum()
        if total <= 0:
            scaled = np.full_like(table, 1.0 / len(table))
        else:
            scaled = table / total
        h, _ = smooth(scaled, rows, post, delta=delta)
        mu_prime[cid] = h

    x_out = (1.0 - delta) * x_prime + delta / instance.q
    repaired = LpSolution(x_out, mu_prime, value_of(instance, x_out, mu_prime))
    report = {
        "input_eps": float(measured_eps),
        "delta": float(delta),
        "value_before": sol.value,
        "value_after": repaired.value,
    }
    return repaired, report

