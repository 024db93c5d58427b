"""Test doubles shared by several test modules (not a test module itself)."""

import numpy as np

from baryopt.objectives import ObjectiveFamily


class Counting(ObjectiveFamily):
    """Delegates to a family, logging every call and the points evaluated.

    With `with_hessians=False` it reports no second derivatives.
    """

    def __init__(self, inner, with_hessians=True):
        self.inner = inner
        self.m, self.S = inner.m, inner.S
        self.with_hessians = with_hessians
        self.calls = {"values": 0, "jacobian": 0, "hessians": 0, "weighted_hessian": 0}
        self.value_points = []
        self.jacobian_points = []

    def values(self, x):
        self.calls["values"] += 1
        self.value_points.append(np.array(x, dtype=float))
        return self.inner.values(x)

    def jacobian(self, x):
        self.calls["jacobian"] += 1
        self.jacobian_points.append(np.array(x, dtype=float))
        return self.inner.jacobian(x)

    def hessians(self, x):
        self.calls["hessians"] += 1
        return self.inner.hessians(x) if self.with_hessians else None

    def weighted_hessian(self, x, r):
        self.calls["weighted_hessian"] += 1
        if not self.with_hessians:
            return super().weighted_hessian(x, r)
        return self.inner.weighted_hessian(x, r)


class Overflowing(ObjectiveFamily):
    """Losses (inf, 0) on R^1: the first loss overflows everywhere."""

    def __init__(self):
        self.m, self.S = 1, 2

    def values(self, x):
        self.check_point(x)
        return np.array([np.inf, 0.0])

    def jacobian(self, x):
        self.check_point(x)
        return np.zeros((2, 1))

    def hessians(self, x):
        self.check_point(x)
        return np.ones((2, 1, 1))


class NoHessians(ObjectiveFamily):
    """Cubic pair on R^1 that reports no second derivatives."""

    def __init__(self):
        self.m, self.S = 1, 2

    def values(self, x):
        x = self.check_point(x)
        return np.array([x[0] ** 3, 2.0 - x[0]])

    def jacobian(self, x):
        x = self.check_point(x)
        return np.array([[3.0 * x[0] ** 2], [-1.0]])
