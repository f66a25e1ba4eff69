"""Per-triple references for the array code of the collocation plan.

A plan holds its triples (s, e, k) as arrays; `plan_triples` reads them
back one by one, and the two loops below are the per-triple forms of
`SparseInterpolant._triple_factors` and of the keyed compile loop of
`assemble_surrogate`, which the array code must match bit for bit.
"""

from collections import namedtuple

import numpy as np

from hermnet.indices import MultiIndex
from hermnet.lagrange import lagrange_coeffs
from hermnet.network import _compile_triple, _recipe_index

Triple = namedtuple("Triple", "s_ref e_mask k s_minus_e")


def plan_triples(plan):
    """Each triple of `plan` as (s_ref, e_mask, k, s - e): e_mask has one
    bit per support coordinate of s, k one signed node index per
    coordinate of supp(s - e)."""
    out = []
    for s_ref, coords, orders, k in zip(
            plan.s_ref.tolist(), plan.coords.tolist(), plan.orders.tolist(),
            plan.k.tolist()):
        n = sum(d > 0 for d in orders)
        sme = MultiIndex(tuple(zip(coords[:n], orders[:n])))
        kept = dict(sme.pairs)
        e_mask = tuple(d - kept.get(j, 0)
                       for j, d in plan.indices[s_ref].pairs)
        out.append(Triple(s_ref, e_mask, tuple(k[:n]), sme))
    return out


def triple_factors(plan, pts):
    """The cardinal-product factors of every triple at points (n, d),
    one triple at a time, each multiplied in coordinate order."""
    cache = {}

    def l_table(order, coord):
        key = (order, coord)
        if key not in cache:
            cache[key] = lagrange_coeffs(order).eval_all(pts[:, coord - 1])
        return cache[key]

    factors = np.ones((plan.n_triples, pts.shape[0]))
    for t_idx, t in enumerate(plan_triples(plan)):
        for (j, d), k in zip(t.s_minus_e.pairs, t.k):
            fam = lagrange_coeffs(d).family
            factors[t_idx] *= l_table(d, j)[fam.indices.index(k)]
    return factors


def keyed_compile(plan, delta, omega):
    """(monomials, recipes, members, labels) of the plan's triples, each
    distinct (s - e, k, gate) key compiled once where it is first met."""
    monomials, recipes, index, built = {}, [], {}, {}
    members, labels = [], []
    for t in plan_triples(plan):
        s, sme = plan.indices[t.s_ref], t.s_minus_e
        gate = s.pairs[0][0] if s.pairs else 1
        key = (sme.pairs, t.k, None if sme.pairs else gate)
        if key not in built:
            terms, meta = _compile_triple(sme.pairs, t.k, omega, delta, gate)
            refs = tuple(monomials.setdefault(f, len(monomials))
                         for f, _ in terms)
            built[key] = _recipe_index(recipes, index, refs,
                                       [lam for _, lam in terms], meta)
        members.append(built[key])
        labels.append({"s": [list(p) for p in s.pairs],
                       "e": list(t.e_mask), "k": list(t.k)})
    return monomials, recipes, members, labels
