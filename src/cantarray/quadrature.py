"""Composite Gauss-Legendre quadrature helpers.  `adaptive_quad` and
`cumulative_square_quad` share one panel-doubling loop, which evaluates
their rule 13 times at most before it raises `QuadratureError`."""
from __future__ import annotations

from functools import lru_cache

import numpy as np

DEFAULT_ORDER = 32
DEFAULT_RTOL = 1e-9
MAX_DOUBLINGS = 12


class QuadratureError(RuntimeError):
    """Raised when panel doubling fails to converge to the requested tolerance."""


@lru_cache(maxsize=None)
def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(order)


def panel_nodes(edges: np.ndarray, order: int = DEFAULT_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """Flat nodes and weights of the reference rule mapped onto every panel
    [edges[i], edges[i+1]]."""
    x, w = gauss_rule(order)
    a, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    return (a + half * (x + 1.0)).ravel(), (half * w).ravel()


def fixed_quad(f, a: float, b: float, panels: int = 8, order: int = DEFAULT_ORDER) -> float:
    edges = np.linspace(a, b, panels + 1)
    nodes, weights = panel_nodes(edges, order)
    return float(np.dot(weights, f(nodes)))


def _doubled(rule, panels: int, rtol: float, atol: float, what: str) -> float:
    """rule(panels) with the panel count doubled until two successive values
    agree to rtol (Richardson-style acceptance check), at most MAX_DOUBLINGS
    times."""
    prev = rule(panels)
    for _ in range(MAX_DOUBLINGS):
        panels *= 2
        cur = rule(panels)
        if abs(cur - prev) <= rtol * max(abs(cur), 1e-300) + atol + 1e-300:
            return cur
        prev = cur
    raise QuadratureError(f"{what} did not converge to rtol={rtol} "
                          f"within {panels} panels")


def adaptive_quad(f, a: float, b: float, rtol: float = DEFAULT_RTOL,
                  order: int = DEFAULT_ORDER, initial_panels: int = 8,
                  atol: float = 0.0) -> float:
    """Integrate f on [a, b] by panel doubling.

    atol rescues integrals that cancel to roundoff, where no relative
    criterion can ever hold; keep it 0 unless the integral may vanish.
    """
    return _doubled(lambda panels: fixed_quad(f, a, b, panels, order),
                    initial_panels, rtol, atol, f"integral on [{a}, {b}]")


def cumulative_square_quad(f, a: float, b: float, rtol: float = DEFAULT_RTOL,
                           order: int = DEFAULT_ORDER, initial_panels: int = 8) -> float:
    """Integrate (int_a^v f)^2 dv over [a, b] with panel doubling.

    The inner antiderivative at each outer node is the prefix sum of the
    panels to its left plus a sub-panel rule from its panel's left edge.
    """
    def rule(panels):
        x, w = gauss_rule(order)
        edges = np.linspace(a, b, panels + 1)
        left = edges[:-1, None]
        nodes, weights = (v.reshape(-1, order)      # (P, q)
                          for v in panel_nodes(edges, order))
        pvals = f(nodes.ravel()).reshape(nodes.shape)
        panel_sums = (weights * pvals).sum(axis=1)
        prefix = np.concatenate(([0.0], np.cumsum(panel_sums)))[:-1]  # (P,)
        sub_half = 0.5 * (nodes - left)             # (P, q)
        sub_nodes = left[:, :, None] + sub_half[:, :, None] * (x + 1.0)
        sub_vals = f(sub_nodes.ravel()).reshape(sub_nodes.shape)
        sub_int = (sub_half[:, :, None] * w * sub_vals).sum(axis=2)
        cum = prefix[:, None] + sub_int
        return float(np.dot(weights.ravel(), (cum * cum).ravel()))

    return _doubled(rule, initial_panels, rtol, 0.0,
                    f"nested integral on [{a}, {b}]")
