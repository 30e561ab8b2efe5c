"""Closed-form voltage profiles for point injections on one straight feeder.

With point injections (no smoothing) and constant G, B the partially
linearized system integrates exactly:

* the power-transfer variable s is piecewise constant and jumps by
  (B*P_i - G*Q_i)/Z^2 when crossing an injection toward the feeder end;
* the voltage gradient w is piecewise affine; its slope on an interval is
  the SQUARE OF THE RUNNING SUM of the s-jumps beyond that interval (the
  slope comes from integrating s^2, so partial sums are squared as a whole,
  never term by term) and it drops by (G*P_i + B*Q_i)/Z^2 at an injection;
* the amplitude v is the continuous piecewise quadratic obtained by
  integrating w from v(bank) = 1.

Indexing runs from the feeder end toward the bank: injection 1 is farthest
from the bank, so "n injections beyond x" means the n farthest ones.
Point queries cost O(log N) via bisection on the cached interval data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import _float, _placed, _z2

__all__ = ["PointInjection", "PointInjectionSet", "ClosedFormProfile", "injections_from_grid"]


@dataclass(frozen=True)
class PointInjection:
    xi_km: float
    p_pu: float
    q_pu: float = 0.0


class PointInjectionSet:
    """Injections on a feeder of given length, ordered far end first."""

    def __init__(self, injections, g_pu_per_km: float, b_pu_per_km: float, length_km: float):
        g, b, length = _float(g_pu_per_km), _float(b_pu_per_km), _float(length_km)
        if not 0.0 < length < math.inf:
            raise ValueError(f"feeder length must be positive and finite, got {length_km}")
        if not (0.0 < g < math.inf and 0.0 < b < math.inf):
            raise ValueError("G and B must be positive and finite, "
                             f"got {g_pu_per_km}, {b_pu_per_km}")
        if not 0.0 < (z2 := _z2(g, b)) < math.inf:
            raise ValueError("|z|^2 = G^2 + B^2 must be positive and finite, "
                             f"got G={g_pu_per_km}, B={b_pu_per_km}")
        items = sorted(injections, key=lambda inj: -inj.xi_km)
        for inj in items:
            if not (0.0 < inj.xi_km < length):
                raise ValueError(f"injection at xi={inj.xi_km} outside (0, {length_km})")
            for field in ("p_pu", "q_pu"):
                if not math.isfinite(_float(value := getattr(inj, field))):
                    raise ValueError(f"injection at xi={inj.xi_km}: {field} must be finite, "
                                     f"got {value}")
        for near, far in zip(items[1:], items):
            if near.xi_km == far.xi_km:
                raise ValueError(f"two injections share xi={far.xi_km}; merge them first")
        self.injections: tuple[PointInjection, ...] = tuple(items)
        self.g, self.b, self.length_km, self.z2 = g, b, length, z2

    def __len__(self) -> int:
        return len(self.injections)


def injections_from_grid(grid, plan=None) -> PointInjectionSet:
    """Point injections of a single-feeder grid: its loads, and the stations
    that plan places, at the p and q the density places them with (_placed)."""
    if not grid.is_single_feeder():
        raise ValueError("closed forms apply to a single straight feeder only")
    seg = grid.segments[0]
    layout, index, pq, _ = _placed(grid, plan)
    pts = [PointInjection(d.xi_km, d.p_pu, d.q_pu) for d in grid.loads()]
    pts += [PointInjection(d.xi_km, p, q)
            for d, k, p, q in zip(layout.stations, index, *pq.tolist()) if k >= 0]
    return PointInjectionSet(pts, seg.g_pu_per_km, seg.b_pu_per_km, seg.length_km)


class ClosedFormProfile:
    """Evaluator for s(x), w(x) and v(x) of a PointInjectionSet.

    s and w are discontinuous at injection points; pass side="below"
    (bank side) or side="above" (far side, the default) to pick the
    one-sided value there.  v is continuous so it takes no side flag.
    """

    def __init__(self, inj: PointInjectionSet):
        self.inj = inj
        n = len(inj)
        z2 = inj.z2
        z4 = z2 * z2
        xi = np.array([p.xi_km for p in inj.injections], dtype=float)  # descending
        pw = np.array([p.p_pu for p in inj.injections], dtype=float)
        qw = np.array([p.q_pu for p in inj.injections], dtype=float)
        # running sums over the k farthest injections; index 0 = nothing beyond
        self._C = np.concatenate(([0.0], np.cumsum(inj.b * pw - inj.g * qw)))
        self._S = np.concatenate(([0.0], np.cumsum(inj.g * pw + inj.b * qw)))
        # accumulated loss term: f(xi_k) = f(xi_{k-1}) + C_{k-1}^2 (xi_k - xi_{k-1}) / Z^4,
        # negative since xi decreases toward the bank
        f = np.zeros(n + 1)
        for k in range(2, n + 1):
            f[k] = f[k - 1] + self._C[k - 1] ** 2 * (xi[k - 1] - xi[k - 2]) / z4
        self._f = f
        self._xi_asc = xi[::-1].copy()
        # row k is the interval with k injections beyond it, from xi_k down to
        # xi_{k+1}; row 0 starts at the feeder end, row N ends at the bank
        self._upper = np.concatenate(([inj.length_km], xi))
        self._lower = np.concatenate((xi, [0.0]))
        # cache v at the interval lower ends: v_low[k] = v(xi_{k+1}), v_low[N] = v(0) = 1
        v_low = np.ones(n + 1)
        for k in range(n - 1, -1, -1):
            up, lo = self._upper[k + 1], self._lower[k + 1]
            v_low[k] = (
                v_low[k + 1]
                + self._C[k + 1] ** 2 / (2.0 * z4) * (0.0 - (lo - up) ** 2)
                + (self._S[k + 1] / z2 + f[k + 1]) * (up - lo)
            )
        self._v_low = v_low
        self._z2, self._z4 = z2, z4

    def _query(self, x_km, side: str):
        """x as an array, whether x_km was one, and each x's row (ties go to `side`)."""
        x = np.asarray(x_km, dtype=float)
        if not np.all((x >= 0.0) & (x <= self.inj.length_km)):
            raise ValueError("query outside [0, feeder length]")
        if side not in ("above", "below"):
            raise ValueError(f"side must be 'above' or 'below', got {side!r}")
        srt = "right" if side == "above" else "left"
        return x, bool(x.shape), len(self.inj) - np.searchsorted(self._xi_asc, x, side=srt)

    # -- closed forms: row 0 has C = S = f = 0, so w = 0 and v = v(xi_1) there --

    def transfer_density(self, x_km, side: str = "above"):
        """s(x) = -(running injection sum beyond x)/Z^2, piecewise constant."""
        _, vec, n = self._query(x_km, side)
        out = -self._C[n] / self._z2
        return out if vec else float(out)

    def gradient(self, x_km, side: str = "above"):
        """w(x) = dv/dx, piecewise affine with quadratic-loss slope."""
        x, vec, n = self._query(x_km, side)
        out = self._C[n] ** 2 / self._z4 * (x - self._upper[n]) + self._S[n] / self._z2 + self._f[n]
        return out if vec else float(out)

    def amplitude(self, x_km):
        """v(x), continuous, v(0) = 1."""
        x, vec, n = self._query(x_km, "above")
        upper, lower = self._upper[n], self._lower[n]
        quad = self._C[n] ** 2 / (2.0 * self._z4) * ((x - upper) ** 2 - (lower - upper) ** 2)
        out = self._v_low[n] + quad + (self._S[n] / self._z2 + self._f[n]) * (x - lower)
        return out if vec else float(out)

    # convenience for tests and demos
    def jump_s(self, i: int) -> float:
        """s(xi_i + 0) - s(xi_i - 0) for the i-th farthest injection (1-based)."""
        inj = self.inj.injections[i - 1]
        return (self.inj.b * inj.p_pu - self.inj.g * inj.q_pu) / self._z2

    def jump_w(self, i: int) -> float:
        """w(xi_i - 0) - w(xi_i + 0), always (G*P_i + B*Q_i)/Z^2."""
        inj = self.inj.injections[i - 1]
        return (self.inj.g * inj.p_pu + self.inj.b * inj.q_pu) / self._z2
