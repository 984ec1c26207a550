"""A test double for `localsolve.LpOracle`: LP values served out of a full,
exactly solved solution, so rounding can be driven without the local solver."""

from csplp.lp import mu_assignments


class SolutionLpOracle:
    """Serve LP values out of a full solution; used to drive the rounding
    scheme from an exactly solved program."""

    def __init__(self, instance, sol):
        self.instance = instance
        self.sol = sol
        self.query_count = 0
        self._flat_index = {}
        for cid, c in enumerate(instance.constraints):
            for j, beta in enumerate(mu_assignments(instance, c)):
                self._flat_index[(cid, beta)] = j

    def query(self, name) -> float:
        self.query_count += 1
        kind = name[0]
        if kind == "x":
            _, v, a = name
            return float(self.sol.x[v, a])
        if kind == "mu":
            _, cid, beta = name
            return float(self.sol.mu[cid][self._flat_index[(cid, beta)]])
        raise ValueError(f"unknown column name {name}")

    def query_many(self, names, memo=None) -> tuple[list[float], list[int]]:
        """Values read from the solution; `memo` is accepted and unused,
        since no value here costs an instance query."""
        return [self.query(name) for name in names], [1] * len(names)
