"""Finite-dimensional complex l^q target spaces and randomization primitives.

The target of every sampled function in this library is an l^q space of a
fixed small dimension.  This module provides the norm/duality algebra for
those targets, reproducible random sources and complex Gaussian draws
(normalized so E|g|^2 = 1).

Norms reduce the short target axis one component at a time: each component
is combined into one output array by an in-place np.add or np.maximum,
because numpy's reductions over a 2- to 8-long innermost axis cost several
times the arithmetic.  Up to seven components added left to right give
exactly the bits of numpy's .sum(axis=-1); from eight on numpy sums eight
accumulators in parallel, so finite-q norms can differ from it in the last
bits.  A max is order-free at every dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BanachSpace",
    "RandomSource",
    "ell",
    "norm",
    "dual",
    "pair",
]


@dataclass(frozen=True)
class BanachSpace:
    """Complex l^q space of dimension ``dim``.

    ``q`` is a float in [1, inf); the sup-norm space is encoded by
    ``q=None``, never by a floating-point infinity.
    """

    dim: int
    q: float | None = 2.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.q is not None and not self.q >= 1.0:
            raise ValueError(f"exponent must satisfy q >= 1, got {self.q}")

    @property
    def is_sup(self) -> bool:
        return self.q is None

    @property
    def is_hilbert(self) -> bool:
        return self.q == 2.0

    def label(self) -> str:
        qs = "inf" if self.q is None else f"{self.q:g}"
        return f"l^{qs}_{self.dim}"


def ell(q, dim: int) -> BanachSpace:
    """Build an l^q space, accepting ``inf``/``"inf"``/``None`` for q."""
    if q is None or q == math.inf or (isinstance(q, str) and q.lower() == "inf"):
        return BanachSpace(dim, None)
    return BanachSpace(dim, float(q))


def dual(space: BanachSpace) -> BanachSpace:
    """Dual space: l^{q'} with 1/q + 1/q' = 1 (q'=inf for q=1)."""
    if space.q is None:
        return BanachSpace(space.dim, 1.0)
    if space.q == 1.0:
        return BanachSpace(space.dim, None)
    return BanachSpace(space.dim, space.q / (space.q - 1.0))


def norm(space: BanachSpace, values: np.ndarray) -> np.ndarray:
    """l^q norm over the last axis; vectorized over any leading axes.

    The moduli are reduced one component at a time (see the module
    docstring), bit-exact to numpy's .sum(axis=-1) and .max(axis=-1) forms
    for dim <= 7.  A single vector of shape (dim,) gives a scalar; a 0-d
    input has no component axis and raises.
    """
    values = np.asarray(values)
    if values.ndim == 0:
        raise ValueError("values need a last axis holding the components")
    if values.shape[-1] != space.dim:
        raise ValueError(
            f"dimension mismatch: space has dim {space.dim}, "
            f"values have last axis {values.shape[-1]}"
        )
    return _reduce_components(space, np.abs(values, dtype=float), squared=False)[()]


def _norm_from_squares(space: BanachSpace, sq: np.ndarray, axis: int = 0) -> np.ndarray:
    """l^q norm from squared component moduli |v_i|^2 stacked along ``axis``.

    Kernels that hold real and imaginary parts apart reduce here without
    forming a complex array.  sq is overwritten and the result is a view of
    it, so a kernel's buffer needs no temporaries.
    """
    return _reduce_components(space, np.moveaxis(sq, axis, -1), squared=True)


def _reduce_components(space: BanachSpace, parts: np.ndarray, squared: bool) -> np.ndarray:
    """l^q norm over the last axis of parts, which holds component moduli.

    parts[..., i] holds |v_i|, or |v_i|^2 with ``squared``.  Each component
    is raised to the power the sum needs, then folded into parts[..., 0];
    the result is that view of parts.
    """
    q = space.q
    if q is not None and q != (2.0 if squared else 1.0):
        if q == 1.0:
            np.sqrt(parts, out=parts)
        elif q == 2.0:
            np.multiply(parts, parts, out=parts)
        else:
            np.power(parts, q / 2.0 if squared else q, out=parts)
    out = _fold(parts, np.maximum if q is None else np.add)
    if q == 2.0 or (q is None and squared):
        np.sqrt(out, out=out)
    elif q not in (None, 1.0):
        if out.ndim:
            np.power(out, 1.0 / q, out=out)
        else:  # one vector: numpy's scalar pow can round unlike its array loop
            out = out[()] ** (1.0 / q)
    return out


def _fold(x: np.ndarray, combine=np.add) -> np.ndarray:
    """Combine the components x[..., 1], x[..., 2], ... into x[..., 0] in place.

    Left to right, one ufunc call per component; the result is the view
    x[..., 0].  With np.add it has the bits of x.sum(axis=-1) for up to
    seven components.
    """
    out = x[..., 0]
    for k in range(1, x.shape[-1]):
        combine(out, x[..., k], out=out)
    return out


def _squared_norm2(values: np.ndarray) -> np.ndarray:
    """sum_i |v_i|^2 over the last axis, one component at a time.

    The squared moduli of each component go through one scratch array into
    a fresh result, bit-exact to (np.abs(values) ** 2).sum(axis=-1) for
    up to seven components.
    """
    out = np.abs(values[..., 0])
    np.multiply(out, out, out=out)
    scratch = np.empty_like(out)
    for k in range(1, values.shape[-1]):
        np.abs(values[..., k], out=scratch)
        np.multiply(scratch, scratch, out=scratch)
        np.add(out, scratch, out=out)
    return out


def pair(x: np.ndarray, xd: np.ndarray) -> np.ndarray:
    """Bilinear duality product sum_i x_i * xd_i over the last axis.

    Folded one component at a time, with the bits of
    (x * xd).sum(axis=-1) for up to seven real or three complex
    components (numpy sums complex vectors of four or more components
    through eight accumulators over their interleaved parts).
    """
    x = np.asarray(x)
    xd = np.asarray(xd)
    if x.shape[-1] != xd.shape[-1]:
        raise ValueError("dimension mismatch in duality product")
    return _fold(x * xd)[()]


@dataclass(frozen=True)
class RandomSource:
    """Reproducible random source keyed by (seed, stream).

    Identical (seed, stream) pairs reproduce identical draws bit-exactly;
    distinct streams derived from one seed never share state.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(ss)

    def derive(self, stream: int) -> "RandomSource":
        return RandomSource(self.seed, stream)


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RandomSource):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RandomSource or Generator, got {type(rng)!r}")


def complex_gaussian_array(rng, shape) -> np.ndarray:
    """i.i.d. complex Gaussians with E|g|^2 = 1, as an array of ``shape``.

    The real parts take the first standard_normal draw of ``shape`` and the
    imaginary parts the second.  Each draw is scaled straight into the
    complex result through its float views, one real scratch array and no
    complex temporaries, with the same bits as (re + 1j*im) / sqrt(2): that
    complex division multiplies both parts by 1 / sqrt(2).
    """
    gen = _as_generator(rng)
    draw = gen.standard_normal(shape)
    out = np.empty(draw.shape, dtype=complex)
    scale = 1.0 / math.sqrt(2.0)
    np.multiply(draw, scale, out=out.real)
    np.multiply(gen.standard_normal(out=draw), scale, out=out.imag)
    return out[()]
