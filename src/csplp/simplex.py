"""Self-contained dense two-phase simplex.

Solves   max c^T x   s.t.  A x {<=,=,>=} b,  x >= 0
on one dense numpy tableau that holds A, the slack and artificial columns
and b.  A pivot updates in place only the rows whose entry in the pivot
column is nonzero, at most ROW_BLOCK rows per step; on the sparse programs
this package builds that is a few rows out of hundreds.  Each updated entry
gets the arithmetic of a full rank-one update, T[r, k] - f * T[row, k], and
a skipped row (f = 0) would keep its nonzero entries, so the pivot sequence
and the solution are those of the full update.  Pricing uses Dantzig's rule while the objective makes
progress and falls back to Bland's rule after a run of degenerate pivots,
which keeps the method anti-cycling and still fast on the mid-size programs
this package produces.  Everything is deterministic, so repeated solves
return the same basic solution.
"""

from __future__ import annotations

import numpy as np

from .errors import Infeasible, IterationLimit, Unbounded

PIVOT_EPS = 1e-9
FEAS_EPS = 1e-7
STALL_LIMIT = 40  # degenerate pivots before switching to Bland pricing
ROW_BLOCK = 64  # rows per pivot update step, which bounds its temporaries
FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}


class _Tableau:
    def __init__(self, T, basis):
        self.T = T  # constraint rows, rhs in the last column
        self.basis = basis
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
        rows = T[:, col].nonzero()[0]
        rows = rows[rows != row]
        for start in range(0, len(rows), ROW_BLOCK):
            block = rows[start:start + ROW_BLOCK]
            T[block] -= np.multiply.outer(T[block, col], T[row])
        self.obj -= self.obj[col] * T[row]
        self.obj[col] = 0.0  # kill roundoff dust in the pivot column
        self.basis[row] = col

    def minimize(self, n_priced, max_iters):
        """Run simplex to optimality of the installed objective, pricing only
        the first n_priced columns."""
        T = self.T
        stall = 0
        last_value = self.obj[-1]
        for _ in range(max_iters):
            costs = self.obj[:n_priced]
            if stall < STALL_LIMIT:
                j = int(costs.argmin())  # Dantzig: most negative, first index
            else:
                j = int((costs < -PIVOT_EPS).argmax())  # Bland: first improving index
            if not costs[j] < -PIVOT_EPS:
                return
            col = T[:, j]
            pos = (col > PIVOT_EPS).nonzero()[0]
            if not pos.size:
                raise Unbounded("improving direction with no blocking row")
            ratios = T[pos, -1] / col[pos]
            ties = pos[ratios <= ratios.min() + 1e-12]
            # leaving rule: among minimal ratios prefer the smallest basis label
            self.pivot(int(min(ties, key=self.basis.__getitem__)), j)
            if self.obj[-1] < last_value - 1e-12:
                stall = 0
                last_value = self.obj[-1]
            else:
                stall += 1
        raise IterationLimit("simplex iteration limit exceeded")


def solve(c, A, senses, b, max_iters=None):
    """Maximize c^T x over the LP; returns (x, value).

    `senses` is a sequence of "<=", "=", ">=" per row.  Raises Infeasible or
    Unbounded.  The returned x covers the structural columns only.  A
    minimization is the maximization of -c, with the value negated.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape if A.size else (len(b), len(c))
    if m == 0:
        if (c > PIVOT_EPS).any():
            raise Unbounded("no constraints on a positive-cost column")
        return np.zeros(n), 0.0
    # rows with a negative rhs are negated, with their sense flipped
    flip = b < 0
    senses = [FLIPPED[s] if f else s for s, f in zip(senses, flip)]
    n_le = senses.count("<=")
    art_start = n + n_le + senses.count(">=")
    cols = art_start + m - n_le
    T = np.zeros((m, cols + 1))
    sign = np.where(flip, -1.0, 1.0)
    np.multiply(A, sign[:, None], out=T[:, :n])
    np.multiply(b, sign, out=T[:, -1])
    basis = []
    si, ai = n, art_start
    for i, s in enumerate(senses):
        if s == "<=":
            T[i, si] = 1.0
            basis.append(si)
            si += 1
        else:
            if s == ">=":
                T[i, si] = -1.0
                si += 1
            T[i, ai] = 1.0
            basis.append(ai)
            ai += 1

    tab = _Tableau(T, basis)
    iters = max_iters or (200 * (m + cols) + 20_000)

    if cols > art_start:
        phase1 = np.zeros(cols)
        phase1[art_start:] = 1.0
        tab.set_objective(phase1)
        tab.minimize(cols, iters)
        if -tab.obj[-1] > FEAS_EPS * max(1.0, abs(b).max()):
            raise Infeasible(f"phase-1 residual {-tab.obj[-1]:.3e}")
        # drive remaining artificials out of the basis, drop redundant rows
        drop = []
        for r in range(m):
            if tab.basis[r] >= art_start:
                row = T[r, :art_start]
                j = int(np.argmax(np.abs(row)))
                if abs(row[j]) > PIVOT_EPS:
                    tab.pivot(r, j)
                else:
                    drop.append(r)
        if drop:
            keep = [r for r in range(m) if r not in drop]
            for i, r in enumerate(keep):  # compact in place, with no second tableau
                T[i] = T[r]
            tab.T = T[:len(keep)]
            tab.basis = [tab.basis[r] for r in keep]

    cost = np.zeros(cols)
    cost[:n] = -c
    tab.set_objective(cost)
    tab.minimize(art_start, iters)  # artificials stay out

    x = np.zeros(cols)
    x[tab.basis] = tab.T[:, -1]
    x = np.where(np.abs(x) < 1e-12, 0.0, x)[:n]
    return x, float(c @ x)
