"""Composite Gauss-Legendre quadrature helpers."""
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
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(edges: np.ndarray, order: int = DEFAULT_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """Map the reference rule onto each panel [edges[i], edges[i+1]].

    Returns flat arrays of nodes and weights covering all panels.
    """
    x, w = gauss_rule(order)
    a = edges[:-1, None]
    b = edges[1:, None]
    half = 0.5 * (b - a)
    nodes = a + half * (x[None, :] + 1.0)
    weights = half * w[None, :]
    return nodes.ravel(), weights.ravel()


def fixed_quad(f, a: float, b: float, panels: int = 8, order: int = DEFAULT_ORDER) -> float:
    edges = np.linspace(a, b, panels + 1)
    nodes, weights = panel_nodes(edges, order)
    return float(np.dot(weights, f(nodes)))


def adaptive_quad(f, a: float, b: float, rtol: float = DEFAULT_RTOL,
                  order: int = DEFAULT_ORDER, initial_panels: int = 8,
                  atol: float = 0.0) -> float:
    """Integrate f on [a, b], doubling the panel count until two successive
    composite rules agree to rtol (Richardson-style acceptance check).

    atol rescues integrals that cancel to roundoff, where no relative
    criterion can ever hold; keep it 0 unless the integral may vanish.
    """
    panels = initial_panels
    prev = fixed_quad(f, a, b, panels, order)
    for _ in range(MAX_DOUBLINGS):
        panels *= 2
        cur = fixed_quad(f, a, b, panels, order)
        if abs(cur - prev) <= rtol * max(abs(cur), 1e-300) + atol + 1e-300:
            return cur
        prev = cur
    raise QuadratureError(
        f"integral on [{a}, {b}] did not converge to rtol={rtol} "
        f"within {panels} panels")


def _cumulative_on_nodes(f, edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outer nodes/weights on the panel set plus F(node) = int_a^node f.

    The inner antiderivative is assembled from per-panel prefix sums plus a
    sub-panel rule from the panel's left edge to each outer node.
    """
    x, w = gauss_rule(order)
    a = edges[:-1, None]
    nodes, weights = (v.reshape(-1, order)          # (P, q)
                      for v in panel_nodes(edges, order))
    pvals = f(nodes.ravel()).reshape(nodes.shape)
    panel_sums = (weights * pvals).sum(axis=1)
    prefix = np.concatenate(([0.0], np.cumsum(panel_sums)))[:-1]  # (P,)

    # integral from panel left edge to each node, order-q rule per sub-span
    sub_half = 0.5 * (nodes - a)                    # (P, q)
    sub_nodes = a[:, :, None] + sub_half[:, :, None] * (x[None, None, :] + 1.0)
    sub_vals = f(sub_nodes.ravel()).reshape(sub_nodes.shape)
    sub_int = (sub_half[:, :, None] * w[None, None, :] * sub_vals).sum(axis=2)

    cumulative = prefix[:, None] + sub_int
    return nodes.ravel(), weights.ravel(), cumulative.ravel()


def cumulative_square_quad(f, a: float, b: float, rtol: float = DEFAULT_RTOL,
                           order: int = DEFAULT_ORDER, initial_panels: int = 8) -> float:
    """Integrate (int_a^v f)^2 dv over [a, b] with panel doubling."""
    panels = initial_panels
    prev = None
    for _ in range(MAX_DOUBLINGS + 1):
        edges = np.linspace(a, b, panels + 1)
        _, weights, cum = _cumulative_on_nodes(f, edges, order)
        cur = float(np.dot(weights, cum * cum))
        if prev is not None and abs(cur - prev) <= rtol * max(abs(cur), 1e-300) + 1e-300:
            return cur
        prev = cur
        panels *= 2
    raise QuadratureError(
        f"nested integral on [{a}, {b}] did not converge to rtol={rtol}")
