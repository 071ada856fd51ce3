"""Reference computations for the benchmark's output checks.

Everything here is built from numpy and the standard library alone and never
imports lichtorus, so every check compares the program with a computation
made apart from it.  Sign convention as in the program: Delta = -div grad.
"""

from __future__ import annotations

import struct

import numpy as np

FIELD_MAGIC = b"LTFIELD1"


def _bisect(g, lo: float, hi: float) -> float:
    """Root of g in [lo, hi] with g(lo) < 0 < g(hi) or g(lo) > 0 > g(hi),
    bisected until the bracket cannot shrink in double precision."""
    glo = g(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= min(lo, hi) or mid >= max(lo, hi):
            return mid
        gmid = g(mid)
        if gmid == 0.0:
            return mid
        if (gmid < 0.0) == (glo < 0.0):
            lo, glo = mid, gmid
        else:
            hi = mid


def scalar_peak(q: float) -> float:
    """c* where c^(q+2) - c^(2q) is largest: c*^(q-2) = (q+2)/(2q)."""
    return ((q + 2.0) / (2.0 * q)) ** (1.0 / (q - 2.0))


def scalar_fold(q: float, a: float = 1.0) -> float:
    """Largest theta for which c^(q+2) = c^(2q) + theta*a has a positive root."""
    c = scalar_peak(q)
    return (c ** (q + 2.0) - c ** (2.0 * q)) / a


def scalar_roots(theta: float, q: float, a: float = 1.0) -> tuple[float, float]:
    """Both positive roots of c^(q+2) = c^(2q) + theta*a, smaller first.

    With h = f = 1 on a unit torus these are the constant solutions of the
    PDE, the smaller one being the minimal solution.
    """
    def g(c):
        return c ** (q + 2.0) - c ** (2.0 * q) - theta * a

    peak = scalar_peak(q)
    if not g(peak) > 0.0:
        raise ValueError(f"theta={theta} is not below the scalar fold at q={q}")
    far = 2.0 * peak
    while g(far) >= 0.0:
        far *= 2.0
    return _bisect(g, 0.0, peak), _bisect(g, peak, far)


def coefficient_values(spec: dict, resolutions, periods) -> np.ndarray:
    """A config coefficient block {"constant", "cosines"} sampled on the grid."""
    axes = [np.arange(n) * (length / n) for n, length in zip(resolutions, periods)]
    mesh = np.meshgrid(*axes, indexing="ij")
    out = np.full(tuple(resolutions), float(spec["constant"]))
    for term in spec.get("cosines", []):
        arg = sum(2.0 * np.pi * k * x / length
                  for k, x, length in zip(term["wavevector"], mesh, periods))
        out += term["amplitude"] * np.cos(arg + term.get("phase", 0.0))
    return out


def spectral_laplacian(u: np.ndarray, periods) -> np.ndarray:
    """Delta u on a periodic grid through the full complex FFT."""
    k2 = np.zeros(u.shape)
    for axis, (n, length) in enumerate(zip(u.shape, periods)):
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
        shape = [1] * u.ndim
        shape[axis] = n
        k2 = k2 + (k ** 2).reshape(shape)
    return np.real(np.fft.ifftn(k2 * np.fft.fftn(u)))


def fold_1d(a: np.ndarray, q: float, period: float = 1.0, steps: int = 8,
            max_newton: int = 50) -> float:
    """Fold theta_star of Delta u + u = u^(q-1) + theta a u^(-(q+1)) on the
    len(a)-point periodic grid (h = f = 1).

    Dense Newton on the extended system F(u, theta) = 0, F_u phi = 0,
    mean(phi) = 1, continued in steps from the constant coefficient mean(a),
    whose fold is the scalar one with u = c* and phi = 1.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.size
    lap = np.column_stack([spectral_laplacian(e, (period,)) for e in np.eye(n)])
    abar = float(a.mean())
    u = np.full(n, scalar_peak(q))
    phi = np.ones(n)
    theta = scalar_fold(q, abar)

    def system(at):
        pot = 1.0 - (q - 1.0) * u ** (q - 2.0) + (q + 1.0) * theta * at * u ** (-(q + 2.0))
        jac_u = lap + np.diag(pot)
        g = np.concatenate([
            lap @ u + u - u ** (q - 1.0) - theta * at * u ** (-(q + 1.0)),
            jac_u @ phi,
            [phi.mean() - 1.0],
        ])
        return g, jac_u

    for t in np.linspace(0.0, 1.0, steps + 1)[1:]:
        at = abar + t * (a - abar)
        for _ in range(max_newton):
            g, jac_u = system(at)
            dpot = (-(q - 1.0) * (q - 2.0) * u ** (q - 3.0)
                    - (q + 1.0) * (q + 2.0) * theta * at * u ** (-(q + 3.0)))
            big = np.zeros((2 * n + 1, 2 * n + 1))
            big[:n, :n] = jac_u
            big[:n, 2 * n] = -at * u ** (-(q + 1.0))
            big[n:2 * n, :n] = np.diag(dpot * phi)
            big[n:2 * n, n:2 * n] = jac_u
            big[n:2 * n, 2 * n] = (q + 1.0) * at * u ** (-(q + 2.0)) * phi
            big[2 * n, n:2 * n] = 1.0 / n
            step = np.linalg.solve(big, -g)
            u, phi, theta = u + step[:n], phi + step[n:2 * n], theta + step[2 * n]
            if np.abs(step).max() <= 1e-14:
                break
        # roundoff in the spectral Laplacian sets the attainable residual
        if np.abs(system(at)[0]).max() > 1e-9:
            raise RuntimeError(f"extended-system Newton did not converge at t={t}")
    return float(theta)


def residual_sup(u, periods, q, theta, h, f, a) -> float:
    """sup |Delta u + h u - f u^(q-1) - theta a u^(-(q+1))|."""
    r = spectral_laplacian(u, periods) + h * u - f * u ** (q - 1.0) \
        - theta * a * u ** (-(q + 1.0))
    return float(np.abs(r).max())


def energy(u, periods, q, theta, h, f, a) -> float:
    """I(u) = 1/2 int(|grad u|^2 + h u^2) - 1/q int f u^q + theta/q int a u^(-q)."""
    cell = float(np.prod(periods)) / u.size
    quad = float(np.sum(u * spectral_laplacian(u, periods) + h * u * u)) * cell
    return (0.5 * quad - float(np.sum(f * u ** q)) * cell / q
            + theta / q * float(np.sum(a * u ** (-q))) * cell)


def read_field(path) -> tuple[np.ndarray, tuple[float, ...]]:
    """Values and periods of an LTFIELD1 dump: magic, uint32 dim, uint32 x dim
    resolutions, float64 x dim periods, row-major float64 values, all
    little-endian."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != FIELD_MAGIC:
        raise ValueError(f"{path}: not an LTFIELD1 dump")
    (dim,) = struct.unpack_from("<I", data, 8)
    res = struct.unpack_from(f"<{dim}I", data, 12)
    periods = struct.unpack_from(f"<{dim}d", data, 12 + 4 * dim)
    off = 12 + 12 * dim
    count = int(np.prod(res))
    if len(data) != off + 8 * count:
        raise ValueError(f"{path}: {len(data)} bytes, expected {off + 8 * count}")
    values = np.frombuffer(data, dtype="<f8", count=count, offset=off)
    return values.reshape(res).astype(np.float64), periods
