"""Frozen NumPy floor: the benchmark's oracle and its speed floor.

A hand-written stencil per application: ``np.pad`` once, then in-place
shifted multiply-adds in the reference order (taps row-major, zero
coefficients skipped, float32 accumulation starting from zeros). Every
served output must equal it bit for bit, and ``floor_ratio`` divides engine
wall time by the time these functions take on the same requests.

The masks are copied here as literals on purpose: nothing is imported from
``repro``, so a change to the program cannot move the oracle with it.
"""

from __future__ import annotations

import numpy as np

_PAD_MODES = {"clamp": "edge", "mirror": "symmetric", "repeat": "wrap"}

_BINOMIAL_3X3 = ((1, 2, 1), (2, 4, 2), (1, 2, 1))


def _taps(rows, scale: float = 1.0, dilation: int = 1):
    """``(dy, dx, coefficient)`` in row-major order, zeros skipped."""
    r = len(rows) // 2
    return tuple(
        (dilation * (y - r), dilation * (x - r), np.float32(c * scale))
        for y, row in enumerate(rows)
        for x, c in enumerate(row)
        if c != 0
    )


GAUSSIAN = _taps(_BINOMIAL_3X3, 1.0 / 16.0)
LAPLACE = _taps(tuple(
    tuple(24 if (y, x) == (2, 2) else -1 for x in range(5)) for y in range(5)
))
SOBEL_X = _taps(((-1, 0, 1), (-2, 0, 2), (-1, 0, 1)))
SOBEL_Y = _taps(((-1, -2, -1), (0, 0, 0), (1, 2, 1)))
ATROUS = tuple(_taps(_BINOMIAL_3X3, 1.0 / 16.0, d) for d in (1, 2, 4, 8))


def _correlate(src: np.ndarray, taps, pattern: str, constant: float) -> np.ndarray:
    h, w = src.shape
    r = max(max(abs(dy), abs(dx)) for dy, dx, _ in taps)
    if pattern == "constant":
        padded = np.pad(src, r, mode="constant",
                        constant_values=np.float32(constant))
    else:
        padded = np.pad(src, r, mode=_PAD_MODES[pattern])
    out = np.zeros((h, w), dtype=np.float32)
    tmp = np.empty((h, w), dtype=np.float32)
    for dy, dx, c in taps:
        np.multiply(padded[r + dy:r + dy + h, r + dx:r + dx + w], c, out=tmp)
        out += tmp
    return out


def _sobel(src, pattern, constant):
    gx = _correlate(src, SOBEL_X, pattern, constant)
    gy = _correlate(src, SOBEL_Y, pattern, constant)
    gx *= gx
    gy *= gy
    gx += gy
    return np.sqrt(gx, out=gx)


def _night(src, pattern, constant):
    cur = src
    for taps in ATROUS:
        cur = _correlate(cur, taps, pattern, constant)
    # Reinhard tone mapping with white point 1: x * (1 + x * (1/1)) / (1 + x)
    num = cur * np.float32(1.0)
    num += np.float32(1.0)
    num *= cur
    cur += np.float32(1.0)
    num /= cur
    return num


FLOORS = {
    "gaussian": lambda src, p, c: _correlate(src, GAUSSIAN, p, c),
    "laplace": lambda src, p, c: _correlate(src, LAPLACE, p, c),
    "sobel": _sobel,
    "night": _night,
}


def floor(app: str, pattern: str, image: np.ndarray, constant: float) -> np.ndarray:
    """The floor output of ``app`` over one float32 image."""
    return FLOORS[app](np.asarray(image, dtype=np.float32), pattern, constant)


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-exact equality (``-0.0`` differs from ``0.0``; NaN payloads count)."""
    a = np.ascontiguousarray(a, dtype=np.float32)
    b = np.ascontiguousarray(b, dtype=np.float32)
    return a.shape == b.shape and np.array_equal(a.view(np.uint32),
                                                 b.view(np.uint32))
