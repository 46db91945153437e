"""Uniform periodic grids and grid functions.

Everything downstream (kernel quadrature, Fourier multipliers, the time
stepper) works on real samples of a periodic function on ``[-L/2, L/2)``
with a power-of-two number of points, so the FFT conventions live here.
Frequencies are measured in cycles per unit length, matching the
``exp(2*pi*i*x*xi)`` transform convention used by the symbol machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# entries per block of the lab's array passes (PV near band, near-cell moments,
# subsolution sites, slope interpolation, weighted energy), read through
# block_rows only: a float64 temporary of at most 128 KiB stays in L2.  On 2
# vCPUs (criterion-08 bump, n = 256-2048) 8k to 32k timed within noise of each
# other; 4k took 1.2 times as long at 2048
BLOCK_ENTRIES = 16384


def block_rows(width: int) -> int:
    """Rows of ``width`` entries per block: ``BLOCK_ENTRIES // width``, and at least one."""
    return max(1, BLOCK_ENTRIES // width)


class NonFiniteError(FloatingPointError, ValueError):
    """A value that must be finite is not: the state left the finite range.

    Raised by the finiteness checks of grid values, kernel values and
    velocities, so a time stepper can tell a blown-up state from a bug.
    It is both a ``FloatingPointError`` and a ``ValueError``, as the
    checks it replaces were.
    """


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridFunction1D:
    """Real samples ``f_j = f(x_j)`` on ``x_j = -L/2 + j*h``, ``h = L/N``.

    Parameters
    ----------
    values : ndarray
        Real samples, length N with N a power of two, N >= 64.
    length : float
        Period L > 0.
    """

    values: np.ndarray
    length: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise ValueError("grid values must be one-dimensional")
        if not _is_power_of_two(vals.size) or vals.size < 64:
            raise ValueError(f"grid size must be a power of two >= 64, got {vals.size}")
        if not self.length > 0:
            raise ValueError("domain length must be positive")
        if not np.isfinite(vals).all():
            raise NonFiniteError("grid values must be finite")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def h(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return -0.5 * self.length + self.h * np.arange(self.n)

    def freqs(self) -> np.ndarray:
        """Mode frequencies ``xi_k = k / L`` in FFT layout (cycles / length)."""
        return np.fft.fftfreq(self.n, d=self.h)

    @classmethod
    def from_callable(cls, fn, n: int, length: float) -> "GridFunction1D":
        x = -0.5 * length + (length / n) * np.arange(n)
        return cls(np.asarray(fn(x), dtype=float), length)

    @classmethod
    def zeros(cls, n: int, length: float) -> "GridFunction1D":
        return cls(np.zeros(n), length)

    def with_values(self, values: np.ndarray) -> "GridFunction1D":
        return GridFunction1D(values, self.length)

    def derivative(self, order: int = 1) -> "GridFunction1D":
        """Spectral derivative; the Nyquist mode is dropped for odd orders."""
        return self.with_values(spectral_derivative(self.values, self.length, order))

    def l2_norm(self) -> float:
        """Grid approximation of the continuum L2 norm, ``sqrt(h * sum f^2)``."""
        return root_sum(self.values, lambda values: self.h * np.sum(values**2))

    def mean(self) -> float:
        return float(self.values.mean())


def root_sum(values: np.ndarray, squares) -> float:
    """``sqrt(squares(values))``; ``m sqrt(squares(values / m))``, m = max |values|, on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = squares(values)
    if np.isfinite(total):
        return float(np.sqrt(total))
    top = float(np.max(np.abs(values)))
    return top * float(np.sqrt(squares(values / top)))


def max_cell_slope(values: np.ndarray, h: float) -> float:
    """Largest one-cell slope ``max |f_i - f_{i-1}| / h`` of periodic samples.

    It bounds every mean slope ``(f_i - f_{i-k}) / (k h)``, an average of k
    one-cell slopes; silently not finite when a difference is not."""
    with np.errstate(over="ignore", invalid="ignore"):
        # a NaN survives Python's max only as its first argument
        return max(float(np.abs(values[1:] - values[:-1]).max()),
                   abs(float(values[0] - values[-1]))) / h


def unit_exponent(length: float, top: float, width: float = math.inf) -> int:
    """Exponent e of the unit ``2^e`` of the quadratures, ``L / 2^e`` in [32, 64).

    Unless heights up to ``top`` would overflow or ``width`` leave the normal range.
    """
    e = max(math.frexp(length)[1] - 6, math.frexp(top)[1] - 1023)
    return min(e, math.frexp(width)[1] + 1021)


@lru_cache(maxsize=32)
def derivative_symbols(n: int, length: float, orders: tuple[int, ...]) -> np.ndarray:
    """Multipliers ``(2 pi i xi)^order`` on the rfft modes of n samples, one row per order.

    Read-only.  A caller that takes several derivatives from one ``rfft``
    multiplies by these rows, drops the Nyquist mode of the odd orders as
    :func:`spectral_derivative` does, and takes one batched ``irfft``.
    """
    ik = 2j * np.pi * np.fft.rfftfreq(n, d=length / n)
    out = np.stack([ik**order for order in orders])
    out.flags.writeable = False
    return out


def spectral_derivative(values: np.ndarray, length: float, order: int = 1) -> np.ndarray:
    """d^order/dx^order of periodic samples via the FFT.

    Samples whose transform overflows (heights near the float64 limit)
    give a non-finite derivative without a warning; the callers'
    finiteness checks report it.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.fft.rfft(values) * derivative_symbols(n, length, (order,))[0]
    if order % 2 == 1 and n % 2 == 0:
        coeffs[-1] = 0.0
    return np.fft.irfft(coeffs, n=n)
