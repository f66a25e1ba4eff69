"""Per-triple references for the array code of the collocation plan.

A plan holds its triples (s, e, k) as arrays; `plan_triples` reads them
back one by one, and the two loops below are the per-triple forms of
`SparseInterpolant._triple_factors` and of the keyed compile loop of
`assemble_surrogate`, which the array code must match bit for bit.
`as_format_4` writes a bundle record in the per-triple layout that
bundle format 5 replaced, which a reload must refuse.
"""

from collections import namedtuple

import numpy as np

from hermnet.lagrange import lagrange_coeffs
from hermnet.network import _compile_triple, _recipe_index

Triple = namedtuple("Triple", "s_ref e_mask k s_minus_e")


def index_set(plan):
    """The indices of `plan` as tuples of (coordinate, degree) pairs."""
    return [tuple((j, d) for j, d in row if d)
            for row in plan.indices.tolist()]


def plan_triples(plan):
    """Each triple of `plan` as (s_ref, e_mask, k, s - e): e_mask has one
    bit per support coordinate of s, k one signed node index per
    coordinate of supp(s - e), and s - e its (coordinate, order) pairs."""
    lam_set, out = index_set(plan), []
    for s_ref, coords, orders, k in zip(
            plan.s_ref.tolist(), plan.coords.tolist(), plan.orders.tolist(),
            plan.k.tolist()):
        n = sum(d > 0 for d in orders)
        sme = tuple(zip(coords[:n], orders[:n]))
        kept = dict(sme)
        e_mask = tuple(d - kept.get(j, 0) for j, d in lam_set[s_ref])
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
        for (j, d), k in zip(t.s_minus_e, t.k):
            fam = lagrange_coeffs(d).family
            factors[t_idx] *= l_table(d, j)[fam.indices.index(k)]
    return factors


def keyed_compile(plan, delta, omega):
    """(monomials, recipes, members) of the plan's triples, each
    distinct (s - e, k, gate) key compiled once where it is first met."""
    monomials, recipes, index, built = {}, [], {}, {}
    members, lam_set = [], index_set(plan)
    for t in plan_triples(plan):
        s, sme = lam_set[t.s_ref], t.s_minus_e
        gate = s[0][0] if s else 1
        key = (sme, t.k, None if sme else gate)
        if key not in built:
            terms = _compile_triple(sme, t.k, omega, delta, gate)
            refs = tuple(monomials.setdefault(f, len(monomials))
                         for f, _ in terms)
            built[key] = _recipe_index(recipes, index, refs,
                                       [lam for _, lam in terms])
        members.append(built[key])
    return monomials, recipes, members


def as_format_4(d):
    """Rewrite the bundle_to_dict record d in place in bundle format 4:
    each member's recipe copied into its record, with the bundle's delta
    and omega and kind "phi_triple" in its meta, plus an input_dim and a
    labels list."""
    recipes = d.pop("recipes")
    d.update(format=4, labels=[{}] * len(d["networks"]),
             input_dim=1 + max(c for f in d["monomials"] for c, _ in f),
             networks=[dict(recipes[m["recipe"]], meta=dict(
                 m["meta"], kind="phi_triple", **d["meta"]))
                 for m in d["networks"]])
