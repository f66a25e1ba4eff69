"""Monte Carlo error measurement for interpolants and network surrogates.

All estimators draw from named, seed-derived Philox streams, so a given
(seed, label) pair always yields the same points regardless of call
order; repeated runs are bit-identical.  Region-restricted quantities
(mass inside/outside the truncation box) are computed by sampling the
exact conditional distribution and multiplying by the analytic region
probability, so small masses carry no rejection noise.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, ndtri

from .lagrange import SparseInterpolant
from .network import surrogate_bound

_SQRT2 = math.sqrt(2.0)
_LOG_2PI = math.log(2.0 * math.pi)


def rng_stream(seed, label):
    """Independent generator for (seed, label).

    The label is hashed into the Philox spawn key, so streams with
    different labels never overlap and adding a new stream does not
    shift the draws of existing ones.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = tuple(int.from_bytes(digest[i:i + 4], "little")
                  for i in range(0, 16, 4))
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=words)
    return np.random.Generator(np.random.Philox(ss))


def _eval(fn, pts, name):
    """fn(pts) as an (n, k) table for the n points; ValueError otherwise."""
    try:
        out = np.asarray(fn(pts), dtype=float)
    except Exception as exc:
        for i in range(pts.shape[0]):
            try:
                fn(pts[i:i + 1])
            except Exception:
                raise RuntimeError(
                    f"{name} evaluator failed at sample {i}") from exc
        raise
    if out.ndim != 2 or out.shape[0] != pts.shape[0]:
        raise ValueError(f"{name} evaluator returned shape {out.shape} for "
                         f"{pts.shape[0]} points, not ({pts.shape[0]}, k)")
    return out


def _sqrt_mean(sq, scale=1.0):
    """(sqrt(scale * mean(sq)), delta-method standard error)."""
    n = sq.size
    mean = float(np.sum(sq)) / n
    err = math.sqrt(scale * mean)
    if err == 0.0 or n < 2:
        return err, 0.0
    var = float(np.sum((sq - mean) ** 2)) / (n - 1)
    se_scaled_mean = scale * math.sqrt(var / n)
    return err, se_scaled_mean / (2.0 * err)


def mc_l2_error(truth, approx, dims, n_samples, seed, *, norm):
    """L2(gamma) distance between two batch evaluators, each mapping
    points (n, dims) to an (n, k) table, with its standard error.

    Draws `n_samples` iid standard Gaussian points in `dims`
    coordinates and forms the table truth(y) - approx(y); `norm` maps
    that (n, k) table to its n row norms.  Returns their root mean
    square together with the delta-method standard error
    se(mean)/(2 sqrt(mean)).  Identical evaluators give exactly (0, 0).
    """
    if dims < 1:
        raise ValueError("dims must be >= 1")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    pts = rng_stream(seed, "l2/gamma").standard_normal((n_samples, dims))
    diff = _eval(truth, pts, "truth") - _eval(approx, pts, "approx")
    return _sqrt_mean(norm(diff) ** 2)


def weighted_sup_error(truth, approx, dims, n_samples, seed, *, omega,
                       norm):
    """Sampled lower bound for the sup of norm(truth - approx) * sqrt(g),
    for batch evaluators that map points (n, dims) to (n, k) tables;
    `norm` maps an (n, k) table to its n row norms.

    g is the dims-dimensional standard Gaussian density.  Half the
    probe points are Gaussian, half uniform over the box
    [-2 sqrt(omega), 2 sqrt(omega)]^dims where surrogates are certified,
    so the plateau region is always probed.  The true essential sup can
    only be larger than the returned value.
    """
    if dims < 1:
        raise ValueError("dims must be >= 1")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if omega <= 0:
        raise ValueError("omega must be positive")
    n_box = n_samples // 2
    half = 2.0 * math.sqrt(omega)
    g_pts = rng_stream(seed, "sup/gamma").standard_normal(
        (n_samples - n_box, dims))
    b_pts = rng_stream(seed, "sup/box").uniform(-half, half, (n_box, dims))
    pts = np.vstack([g_pts, b_pts])
    diff = _eval(truth, pts, "truth") - _eval(approx, pts, "approx")
    vals = norm(diff)
    log_weight = -0.25 * np.sum(pts * pts, axis=1) - 0.25 * dims * _LOG_2PI
    return float(np.max(vals * np.exp(log_weight)))


# ---------------------------------------------------------------------------
# conditional box samplers


def box_probability(omega, dims):
    """(P(inside), P(outside)) of [-2 sqrt(omega), 2 sqrt(omega)]^dims
    under the standard Gaussian, via erfc so tiny masses stay exact.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if dims < 0:
        raise ValueError("dims must be >= 0")
    p = float(erfc(2.0 * math.sqrt(omega) / _SQRT2))  # per-coordinate, 2-sided
    p_out = float(-np.expm1(dims * np.log1p(-p))) if dims else 0.0
    return 1.0 - p_out, p_out


def _sample_inside(rng, n, dims, half):
    """n Gaussian points conditioned on the closed box [-half, half]^dims."""
    lo = 0.5 * erfc(half / _SQRT2)  # Phi(-half)
    u = rng.random((n, dims))
    return ndtri(lo + u * (1.0 - 2.0 * lo))


def _sample_outside(rng, n, dims, half):
    """n Gaussian points conditioned on leaving the box.

    The exceedance set is partitioned by the first coordinate J with
    |y_J| > half: P(J=j) is proportional to (1-p)^(j-1) p, coordinates
    before J are box-truncated, coordinate J is a two-sided tail draw
    and later coordinates are unconditional.
    """
    p = float(erfc(half / _SQRT2))
    weights = p * (1.0 - p) ** np.arange(dims)
    weights /= weights.sum()
    first = rng.choice(dims, size=n, p=weights)
    y = rng.standard_normal((n, dims))
    u = rng.random((n, dims))
    lo = 0.5 * p
    inside = ndtri(lo + u * (1.0 - 2.0 * lo))
    cols = np.arange(dims)
    y = np.where(cols[None, :] < first[:, None], inside, y)
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    tail_u = 1.0 - u[np.arange(n), first]  # in (0, 1], keeps ndtri finite
    y[np.arange(n), first] = sign * -ndtri(lo * tail_u)
    return y


# ---------------------------------------------------------------------------
# four-term decomposition


@dataclass(frozen=True)
class ErrorDecomposition:
    """Triangle-inequality split of the reference-vs-network error.

    term1  ||u - interpolant||            over the whole space
    term2  ||interpolant||                outside the truncation box
    term3  ||interpolant - network||      inside the box
    term4  ||network||                    outside the box
    """

    term1: float
    stderr1: float
    term2: float
    stderr2: float
    term3: float
    stderr3: float
    term4: float
    stderr4: float
    bound3: float
    p_inside: float
    p_outside: float
    omega: float
    delta: float
    n_samples: int

    @property
    def terms(self):
        return (self.term1, self.term2, self.term3, self.term4)


def error_decomposition(u_ref, plan, omega, delta, dims, n_samples, seed, *,
                        point_values, surrogate, norm):
    """Measure the four-term error split for a plan at (omega, delta).

    `u_ref` maps points (n, dims), the plan's active coordinates first,
    to an (n, k) table of solution rows.  `point_values` is the
    (n_points, k) table of its values at the plan's unique grid points,
    from which the interpolant is built, and `surrogate` is the
    (bundle, evaluator) pair assemble_surrogate compiled from them.
    `norm` maps an (n, k) table to its n row norms.  term3's
    certificate, delta * sum_t norm(point_values[t.point_ref]) *
    coeff_abs_sum_t (surrogate_bound), is reported as `bound3`.
    """
    m = plan.m_active
    if dims < max(m, 1):
        raise ValueError(f"dims must be >= {max(m, 1)} for this plan")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if omega < 1:
        raise ValueError("omega must be >= 1")

    interp = SparseInterpolant.from_point_values(plan, point_values)
    bundle, net = surrogate
    bound3 = surrogate_bound(bundle, plan.point_ref, point_values, norm=norm)

    gamma_pts = rng_stream(seed, "decomp/gamma").standard_normal(
        (n_samples, dims))
    diff1 = _eval(u_ref, gamma_pts, "u_ref") \
        - _eval(interp, gamma_pts, "interpolant")
    term1, stderr1 = _sqrt_mean(norm(diff1) ** 2)

    p_in, p_out = box_probability(omega, m)
    if m == 0:
        zero = np.zeros((1, 1))
        gap = _eval(interp, zero, "interpolant") - _eval(net, zero, "network")
        term3 = float(norm(gap)[0])
        term2 = term4 = stderr2 = stderr3 = stderr4 = 0.0
    else:
        half = 2.0 * math.sqrt(omega)
        in_pts = _sample_inside(
            rng_stream(seed, "decomp/inside"), n_samples, m, half)
        out_pts = _sample_outside(
            rng_stream(seed, "decomp/outside"), n_samples, m, half)
        interp_out = _eval(interp, out_pts, "interpolant")
        term2, stderr2 = _sqrt_mean(norm(interp_out) ** 2, scale=p_out)
        gap = _eval(interp, in_pts, "interpolant") \
            - _eval(net, in_pts, "network")
        term3, stderr3 = _sqrt_mean(norm(gap) ** 2, scale=p_in)
        net_out = _eval(net, out_pts, "network")
        term4, stderr4 = _sqrt_mean(norm(net_out) ** 2, scale=p_out)

    return ErrorDecomposition(
        term1=term1, stderr1=stderr1, term2=term2, stderr2=stderr2,
        term3=term3, stderr3=stderr3, term4=term4, stderr4=stderr4,
        bound3=bound3, p_inside=p_in, p_outside=p_out,
        omega=float(omega), delta=float(delta), n_samples=int(n_samples))


# ---------------------------------------------------------------------------
# rate fitting


@dataclass(frozen=True)
class RateFit:
    """Least-squares power law y ~ exp(intercept) * x^slope."""

    points: tuple
    slope: float
    intercept: float
    r_squared: float


def rate_fit(series):
    """Fit log y against log x for a series of (x, y) pairs."""
    pts = tuple((float(x), float(y)) for x, y in series)
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit a rate")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if x[0] <= 0 or not np.all(np.diff(x) > 0):
        raise ValueError("x values must be positive and strictly increasing")
    if not np.all(np.isfinite(y)) or not np.all(y > 0):
        raise ValueError("y values must be finite and positive")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return RateFit(pts, float(slope), float(intercept), float(r2))
