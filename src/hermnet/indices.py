"""Weighted multi-index sets and collocation plans.

A multi-index s assigns a polynomial degree to finitely many coordinates.
The admissible set for a budget xi collects every s whose weight
sigma_s^q stays below xi, where

    sigma_s^2 = prod_j  sum_{t=0}^{min(s_j, eta)} C(s_j, t) * rho_j^{2t}

factorizes over coordinates.  The enumeration walks the (downward-closed)
tree of indices depth-first; both loops terminate because each factor is
strictly increasing in the degree and the weight sequence rho is
non-decreasing in the coordinate.

A collocation plan expands the set into difference-operator triples
(s, e, k): for every s and every binary mask e on its support, the tensor
Gauss-Hermite grid of order s-e contributes one signed evaluation point
per node combination k.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .hermite import NodeFamily


class CapacityError(RuntimeError):
    """Raised when an enumeration would exceed its index budget."""


@dataclass(frozen=True)
class MultiIndex:
    """Sparse multi-index: sorted tuple of (coordinate, degree) pairs.

    Coordinates are 1-based; degrees are >= 1 (zero entries are dropped).
    """

    pairs: tuple = ()

    def __post_init__(self):
        pairs = tuple(sorted((int(j), int(s)) for j, s in self.pairs if s != 0))
        for j, s in pairs:
            if j < 1 or s < 1:
                raise ValueError(f"invalid entry ({j}, {s})")
        if len({j for j, _ in pairs}) != len(pairs):
            raise ValueError("duplicate coordinate")
        object.__setattr__(self, "pairs", pairs)

    @property
    def total_degree(self):
        return sum(s for _, s in self.pairs)

    @property
    def support(self):
        return tuple(j for j, _ in self.pairs)

    @property
    def max_degree(self):
        return max((s for _, s in self.pairs), default=0)

    @property
    def max_coord(self):
        return max((j for j, _ in self.pairs), default=0)

    def dense(self, dims=None):
        """Dense degree vector of length dims (default: max coordinate)."""
        n = self.max_coord if dims is None else dims
        out = np.zeros(n, dtype=int)
        for j, s in self.pairs:
            if j <= n:
                out[j - 1] = s
        return out

    def sort_key(self):
        """Canonical order: total degree, then lexicographic dense prefix."""
        return (self.total_degree, tuple(self.dense()))

    def subtract_mask(self, mask):
        """Subtract a binary mask given per support coordinate."""
        if len(mask) != len(self.pairs):
            raise ValueError("mask length must match support size")
        return MultiIndex(tuple((j, s - b) for (j, s), b in zip(self.pairs, mask)))


@dataclass(frozen=True)
class WeightModel:
    """Coordinate weights and admissibility parameters.

    Parameters
    ----------
    q : float in (0, 2), summability exponent of the budget sigma^q <= xi.
    rho : tuple of floats, explicit leading weights, each > 1, non-decreasing.
    tail : optional (c, r); extends rho as c*j**r beyond the explicit list.
        Requires r > 1/q (so 1/rho is q-summable) and continuity of the
        non-decrease at the splice point.
    eta : int >= 1, truncation depth of the binomial weight sum.
        Default ceil(2*(theta+1)/q) + 1.
    theta : float > 0, growth exponent of the auxiliary weight p_s.
        Default 12/q.
    lam : float > 0, shift inside p_s. Default 1.
    """

    q: float
    rho: tuple
    tail: tuple = None
    eta: int = None
    theta: float = None
    lam: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.q < 2.0:
            raise ValueError("q must lie in (0, 2)")
        rho = tuple(float(r) for r in self.rho)
        if not rho and self.tail is None:
            raise ValueError("need explicit weights or a tail rule")
        if any(r <= 1.0 for r in rho):
            raise ValueError("weights must be > 1")
        if any(b < a for a, b in zip(rho, rho[1:])):
            raise ValueError("weights must be non-decreasing")
        object.__setattr__(self, "rho", rho)
        if self.theta is None:
            object.__setattr__(self, "theta", 12.0 / self.q)
        if self.theta <= 0:
            raise ValueError("theta must be > 0")
        if self.eta is None:
            object.__setattr__(self, "eta",
                               math.ceil(2.0 * (self.theta + 1.0) / self.q) + 1)
        if self.eta < 1:
            raise ValueError("eta must be >= 1")
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        if self.tail is not None:
            c, r = (float(v) for v in self.tail)
            if r <= 1.0 / self.q:
                raise ValueError("tail exponent must exceed 1/q")
            j0 = len(rho) + 1
            if c * j0 ** r <= 1.0:
                raise ValueError("tail weights must be > 1")
            if rho and c * j0 ** r < rho[-1]:
                raise ValueError("tail must continue the non-decrease")
            object.__setattr__(self, "tail", (c, r))

    def weight(self, j):
        """rho_j for a 1-based coordinate; None when undefined."""
        if j < 1:
            raise ValueError("coordinates are 1-based")
        if j <= len(self.rho):
            return self.rho[j - 1]
        if self.tail is not None:
            c, r = self.tail
            return c * float(j) ** r
        return None

    def weight_floor(self, j):
        """A valid lower bound for rho_j even beyond the explicit list."""
        w = self.weight(j)
        if w is not None:
            return w
        return self.rho[-1]


def _logsumexp(a):
    """log(sum(exp(a))) for a 1-D float array, with the arithmetic of
    scipy.special.logsumexp (scipy 1.17) and so its bits, without its
    per-call array-API dispatch.  The m entries equal to the maximum are
    taken out of the sum (Blanchard, Higham & Higham, IMA J. Numer.
    Anal. 41(4), 2021): log1p(s/m) + log(m) + max, where s sums the
    exponentials of the other entries shifted by the maximum.  Finite
    entries only: scipy's fallback for an infinite result is not here.
    """
    a = np.asarray(a, dtype=float)
    a_max = a.max()
    top = a == a_max
    m = np.count_nonzero(top)
    s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max)) / m
    return np.log1p(s) + np.log(m) + a_max


def _log_factor(rho_j, s_j, eta):
    """log of sum_{t<=min(s_j,eta)} C(s_j,t) rho_j^{2t}, stable for large rho."""
    if s_j == 0:
        return 0.0
    tmax = min(s_j, eta)
    t = np.arange(tmax + 1)
    terms = (gammaln(s_j + 1) - gammaln(t + 1) - gammaln(s_j - t + 1)
             + 2.0 * t * math.log(rho_j))
    return float(_logsumexp(terms))


def log_sigma(s, model):
    total = 0.0
    for j, s_j in s.pairs:
        rho_j = model.weight(j)
        if rho_j is None:
            raise CapacityError(
                f"coordinate {j} beyond the explicit weight list and no tail rule")
        total += _log_factor(rho_j, s_j, model.eta)
    return 0.5 * total


def p_weight(s, theta, lam=1.0):
    """Auxiliary polynomial weight prod_j (1 + lam*s_j)^theta."""
    out = 1.0
    for _, s_j in s.pairs:
        out *= (1.0 + lam * s_j) ** theta
    return out


def build_lambda(xi, model, cap=1_000_000):
    """All multi-indices with sigma_s^q <= xi, in canonical order.

    Depth-first enumeration over (coordinate, degree) extensions. The
    degree loop breaks because each coordinate factor strictly increases
    with the degree; the coordinate loop breaks because the weights are
    non-decreasing, so once the unit index e_j is infeasible every later
    coordinate is too.  Raises CapacityError beyond `cap` indices, or if
    feasibility past the end of an explicit weight list cannot be ruled
    out (no tail rule).
    """
    log_budget = math.log(xi) + 1e-12 if xi > 0 else -math.inf
    found = []
    if 0.0 > log_budget:  # sigma_0 = 1; empty set when xi < 1
        return found

    def feasible_log_factor(j, s_j):
        rho_j = model.weight(j)
        if rho_j is None:
            # safe only if even the floor weight makes e_j infeasible
            floor = _log_factor(model.weight_floor(j), 1, model.eta)
            if (model.q / 2.0) * floor <= log_budget:
                raise CapacityError(
                    f"explicit weight list exhausted at coordinate {j} "
                    "while indices may remain feasible; provide a tail rule")
            return None
        return _log_factor(rho_j, s_j, model.eta)

    def extend(pairs, log_sig_q, j_min):
        j = j_min
        while True:
            lf = feasible_log_factor(j, 1)
            if lf is None or log_sig_q + (model.q / 2.0) * lf > log_budget:
                return
            s_j = 1
            while True:
                lf = _log_factor(model.weight(j), s_j, model.eta)
                cand = log_sig_q + (model.q / 2.0) * lf
                if cand > log_budget:
                    break
                s = pairs + ((j, s_j),)
                found.append(MultiIndex(s))
                if len(found) > cap:
                    raise CapacityError(
                        f"index budget {cap} exceeded (partial count {len(found)})")
                extend(s, cand, j + 1)
                s_j += 1
            j += 1

    found.append(MultiIndex(()))
    extend((), 0.0, 1)
    found.sort(key=MultiIndex.sort_key)
    return found


@dataclass(frozen=True)
class Triple:
    """One difference-operator evaluation: index s, mask e, node combo k.

    s_ref/point_ref are positions in the plan's index and point tables;
    e_mask has one bit per support coordinate of s; k holds the signed
    node indices per coordinate of supp(s-e); sign = (-1)^{|e|_1};
    s_minus_e is s-e, shared by every triple of one (s, e).
    """

    s_ref: int
    e_mask: tuple
    k: tuple
    sign: int
    point_ref: int
    s_minus_e: MultiIndex


@dataclass
class CollocationPlan:
    """A fully expanded interpolation plan for one budget xi."""

    xi: float
    model: WeightModel
    indices: list
    triples: list
    points: list          # sparse points: tuple of (coord, value) pairs
    m1: int = 0
    m_active: int = 0
    signs: np.ndarray = None      # per triple, float (-1)^{|e|_1}
    point_ref: np.ndarray = None  # per triple, intp row of the point table
    _families: dict = field(default_factory=dict, repr=False)

    def family(self, order):
        fam = self._families.get(order)
        if fam is None:
            fam = NodeFamily(order)
            self._families[order] = fam
        return fam

    @property
    def n_indices(self):
        return len(self.indices)

    @property
    def n_triples(self):
        return len(self.triples)

    @property
    def n_points(self):
        return len(self.points)

    def point_array(self, dims=None):
        """Dense (n_points, dims) array of the unique evaluation points."""
        d = self.m_active if dims is None else dims
        out = np.zeros((len(self.points), d))
        for i, pt in enumerate(self.points):
            for j, v in pt:
                out[i, j - 1] = v
        return out


def _support_masks(n):
    """All binary masks of length n, low bit = first support coordinate."""
    for bits in range(1 << n):
        yield tuple((bits >> i) & 1 for i in range(n))


def build_plan(xi, model):
    """Expand the admissible set at budget xi into a collocation plan.

    Every (s, e) pair spawns the tensor grid of order s-e over supp(s-e);
    node combinations are keyed by exact node values so points shared
    between grids collapse into one solver call.  The triples' signs and
    point rows are also kept as the read-only arrays plan.signs and
    plan.point_ref.
    """
    if xi < 1.0:
        raise ValueError("xi must be >= 1 so the plan contains the zero index")
    lam_set = build_lambda(xi, model)
    plan = CollocationPlan(xi=float(xi), model=model, indices=lam_set,
                           triples=[], points=[])
    plan.m1 = max((s.max_degree for s in lam_set), default=0)
    plan.m_active = max((s.max_coord for s in lam_set), default=0)

    point_index = {}

    def intern_point(pt):
        ref = point_index.get(pt)
        if ref is None:
            ref = len(plan.points)
            point_index[pt] = ref
            plan.points.append(pt)
        return ref

    triples = []
    for s_ref, s in enumerate(lam_set):
        supp = s.pairs
        n_supp = len(supp)
        for mask in _support_masks(n_supp):
            sme = s.subtract_mask(mask)
            sign = (-1) ** sum(mask)
            coords = [j for j, _ in sme.pairs]
            fams = [plan.family(d) for _, d in sme.pairs]
            combos = [()]
            for fam in fams:
                combos = [c + (k,) for c in combos for k in fam.indices]
            for combo in combos:
                pt = tuple(
                    (j, fam.node(k))
                    for j, fam, k in zip(coords, fams, combo)
                    if fam.node(k) != 0.0
                )
                ref = intern_point(pt)
                triples.append(Triple(s_ref, mask, combo, sign, ref, sme))
    # canonical order: index position, mask bits, then node combination
    triples.sort(key=lambda t: (t.s_ref, t.e_mask, t.k))
    plan.triples = triples
    plan.signs = np.array([float(t.sign) for t in triples])
    plan.point_ref = np.array([t.point_ref for t in triples], dtype=np.intp)
    plan.signs.setflags(write=False)
    plan.point_ref.setflags(write=False)
    return plan


def plan_stats(plan):
    """The sizes of one plan, as its plan artifact stores them."""
    return {"n_indices": plan.n_indices, "n_triples": plan.n_triples,
            "n_points": plan.n_points, "m1": plan.m1,
            "m_active": plan.m_active}
