"""Seeded change of basis for structure-constant Hopf algebras.

`rescaled(H, rng)` returns the same Hopf algebra written in the basis
f_i = d_i * e_p(i), where p is a seeded permutation and each d_i is a random
nonzero element of Q(zeta_L) (L the conductor of H) with small integer
coefficients and a small denominator.  The result is isomorphic to H, so
every axiom check must still pass, and its structure tensors have the same
sparsity pattern; but its constants are no longer the few values of the
catalog basis.

`hopfforge` is imported inside the functions, so importing this module
does not import the library: one_pass.py times that import as set-up.
"""

from __future__ import annotations

import random


def random_scalar(rng: random.Random, L: int):
    from hopfforge.cyclotomic import CycScalar, euler_phi
    phi = euler_phi(L)
    while True:
        nums = [rng.randint(-3, 3) for _ in range(phi)]
        if any(nums):
            return CycScalar(L, nums, rng.randint(1, 4))


def rescaled(H, rng: random.Random):
    """H in the seeded basis f_i = d_i e_p(i); see the module docstring."""
    from hopfforge.hopf import HopfSC
    from hopfforge.linalg import Mat, Tensor3
    n = H.dim
    p = list(range(n))
    rng.shuffle(p)
    q = [0] * n                      # q = p^-1: e_a = f_q(a) / d_q(a)
    for i, a in enumerate(p):
        q[a] = i
    d = [random_scalar(rng, H.conductor) for _ in range(n)]
    dinv = [x.inverse() for x in d]
    mult = Tensor3((n, n, n))        # f_i f_j = d_i d_j / d_l * m[p(i), p(j), p(l)] f_l
    for (a, b, c), v in H.mult.data.items():
        i, j, l = q[a], q[b], q[c]
        mult[i, j, l] = d[i] * d[j] * v * dinv[l]
    comult = Tensor3((n, n, n))      # Delta f_k = d_k / (d_i d_j) * D[p(k), p(i), p(j)] f_i (x) f_j
    for (c, a, b), v in H.comult.data.items():
        k, i, j = q[c], q[a], q[b]
        comult[k, i, j] = d[k] * v * dinv[i] * dinv[j]
    unit = [H.unit[p[i]] * dinv[i] for i in range(n)]
    counit = [H.counit[p[i]] * d[i] for i in range(n)]
    antipode = Mat.zero(n, n)        # S f_j = d_j / d_i * S[p(i), p(j)] f_i
    for a, row in enumerate(H.antipode.rows):
        for b, v in enumerate(row):
            if v:
                antipode.rows[q[a]][q[b]] = d[q[b]] * v * dinv[q[a]]
    return HopfSC(n, mult, unit, comult, counit, antipode, conductor=H.conductor)


def perturb_unit_row(H, rng: random.Random):
    """(copy of H with one MULT constant in the unit's row changed, its column j).

    The unit of H must be a multiple of one basis vector e_u.  The constant
    m[u, j, j] (e_u e_j is a multiple of e_j) is doubled for a seeded j, so
    the two-sided unit axiom fails exactly at witness j.
    """
    from hopfforge.hopf import HopfSC
    from hopfforge.linalg import Tensor3
    (u,) = [i for i, c in enumerate(H.unit) if c]
    j = rng.randrange(H.dim)
    mult = Tensor3(H.mult.shape, H.mult.data)
    mult[u, j, j] = mult[u, j, j] * 2
    return HopfSC(H.dim, mult, H.unit, H.comult, H.counit, H.antipode,
                  conductor=H.conductor), j
