"""Self-contained dense two-phase simplex.

Solves   max c^T x   s.t.  A x {<=,=,>=} b,  x >= 0
on a dense numpy tableau.  Pricing uses Dantzig's rule while the objective
makes progress and falls back to Bland's rule after a run of degenerate
pivots, which keeps the method anti-cycling and still fast on the mid-size
programs this package produces.  Everything is deterministic, so repeated
solves return the same basic solution.
"""

from __future__ import annotations

import numpy as np

from .errors import Infeasible, IterationLimit, Unbounded

PIVOT_EPS = 1e-9
FEAS_EPS = 1e-7
STALL_LIMIT = 40  # degenerate pivots before switching to Bland pricing


class _Tableau:
    def __init__(self, A, b, basis):
        m, _ = A.shape
        self.T = np.hstack([A, b.reshape(m, 1)])
        self.basis = list(basis)
        self.obj = None  # reduced-cost row, rhs in last slot

    def set_objective(self, cost):
        """Install a minimization cost vector and reduce it over the basis."""
        row = np.append(cost.astype(float), 0.0)
        for r, j in enumerate(self.basis):
            if abs(row[j]) > 0.0:
                row -= row[j] * self.T[r]
        self.obj = row

    def pivot(self, row, col):
        T = self.T
        T[row] /= T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0
        T -= np.outer(factors, T[row])
        self.obj -= self.obj[col] * T[row]
        self.obj[col] = 0.0  # kill roundoff dust in the pivot column
        self.basis[row] = col

    def minimize(self, allowed_cols, max_iters):
        """Run simplex to optimality of the installed objective."""
        T, obj = self.T, self.obj
        stall = 0
        last_value = obj[-1]
        for _ in range(max_iters):
            costs = obj[:-1]
            if stall < STALL_LIMIT:
                j = -1
                best = -PIVOT_EPS
                cand = np.where(allowed_cols & (costs < -PIVOT_EPS))[0]
                if cand.size:
                    j = int(cand[np.argmin(costs[cand])])
            else:
                # Bland: smallest improving index
                cand = np.where(allowed_cols & (costs < -PIVOT_EPS))[0]
                j = int(cand[0]) if cand.size else -1
            if j < 0:
                return
            col = T[:, j]
            pos = col > PIVOT_EPS
            if not pos.any():
                raise Unbounded("improving direction with no blocking row")
            ratios = np.full(len(col), np.inf)
            ratios[pos] = T[pos, -1] / col[pos]
            rmin = ratios.min()
            ties = np.where(ratios <= rmin + 1e-12)[0]
            # leaving rule: among minimal ratios prefer the smallest basis label
            row = int(ties[np.argmin([self.basis[r] for r in ties])])
            self.pivot(row, j)
            obj = self.obj
            if obj[-1] < last_value - 1e-12:
                stall = 0
                last_value = obj[-1]
            else:
                stall += 1
        raise IterationLimit("simplex iteration limit exceeded")


def solve(c, A, senses, b, maximize=True, max_iters=None):
    """Solve the LP; returns (x, value).

    `senses` is a sequence of "<=", "=", ">=" per row.  Raises Infeasible or
    Unbounded.  The returned x covers the structural columns only.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    m, n = A.shape if A.size else (len(b), len(c))
    if m == 0:
        if maximize and (c > PIVOT_EPS).any():
            raise Unbounded("no constraints on a positive-cost column")
        if not maximize and (c < -PIVOT_EPS).any():
            raise Unbounded("no constraints on a negative-cost column")
        return np.zeros(n), 0.0
    A = A.copy()
    senses = list(senses)
    for i in range(m):
        if b[i] < 0:
            A[i] *= -1
            b[i] *= -1
            senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]

    n_le = sum(1 for s in senses if s == "<=")
    n_ge = sum(1 for s in senses if s == ">=")
    n_eq = m - n_le - n_ge
    slack_at = {}
    art_rows = []
    cols = n + n_le + n_ge + (n_ge + n_eq)
    full = np.zeros((m, cols))
    full[:, :n] = A
    si = n
    ai = n + n_le + n_ge
    basis = [0] * m
    for i, s in enumerate(senses):
        if s == "<=":
            full[i, si] = 1.0
            basis[i] = si
            si += 1
        elif s == ">=":
            full[i, si] = -1.0
            slack_at[i] = si
            si += 1
            full[i, ai] = 1.0
            basis[i] = ai
            art_rows.append(i)
            ai += 1
        else:
            full[i, ai] = 1.0
            basis[i] = ai
            art_rows.append(i)
            ai += 1

    tab = _Tableau(full, b, basis)
    n_art = n_ge + n_eq
    iters = max_iters or (200 * (m + cols) + 20_000)

    if n_art:
        phase1 = np.zeros(cols)
        phase1[n + n_le + n_ge:] = 1.0
        tab.set_objective(phase1)
        allowed = np.ones(cols, dtype=bool)
        tab.minimize(allowed, iters)
        if -tab.obj[-1] > FEAS_EPS * max(1.0, abs(b).max()):
            raise Infeasible(f"phase-1 residual {-tab.obj[-1]:.3e}")
        # drive remaining artificials out of the basis, drop redundant rows
        art_start = n + n_le + n_ge
        drop = []
        for r in range(m):
            if tab.basis[r] >= art_start:
                row = tab.T[r, :art_start]
                j = int(np.argmax(np.abs(row)))
                if abs(row[j]) > PIVOT_EPS:
                    tab.pivot(r, j)
                else:
                    drop.append(r)
        if drop:
            keep = [r for r in range(tab.T.shape[0]) if r not in drop]
            tab.T = tab.T[keep]
            tab.basis = [tab.basis[r] for r in keep]

    cost = np.zeros(cols)
    cost[:n] = -c if maximize else c
    tab.set_objective(cost)
    allowed = np.ones(cols, dtype=bool)
    allowed[n + n_le + n_ge:] = False  # artificials stay out
    tab.minimize(allowed, iters)

    x = np.zeros(cols)
    for r, j in enumerate(tab.basis):
        x[j] = tab.T[r, -1]
    x = np.where(np.abs(x) < 1e-12, 0.0, x)
    value = float(c @ x[:n])
    return x[:n], value
