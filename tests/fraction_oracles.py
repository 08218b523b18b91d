"""Frozen copy of the Fraction-based classical oracles that ``qgroups.cartan``
replaced with its integer form.

Kept as the reference for the differential tests: the inner product goes
through a rational inverse Cartan matrix, the Freudenthal recursion divides
Fractions, and every root string is scanned up to the full height bound.
The Levi recursion is the separate copy ``qgroups.parabolic`` used to keep.
Only the data tables of a ``CartanData`` are read.  Do not optimize it.
"""
from __future__ import annotations

from fractions import Fraction


def _invert_rational(a):
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
            for i, row in enumerate(a)]
    for c in range(n):
        pr = next(i for i in range(c, n) if work[i][c])
        work[c], work[pr] = work[pr], work[c]
        piv = work[c][c]
        work[c] = [x / piv for x in work[c]]
        for i in range(n):
            if i != c and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return tuple(tuple(row[n:]) for row in work)


_INVERSES = {}


def fundamental_to_root(cd, weight):
    inv = _INVERSES.get(cd.cartan)
    if inv is None:
        inv = _INVERSES[cd.cartan] = _invert_rational(cd.cartan)
    return tuple(
        sum(inv[i][j] * weight[j] for j in range(cd.rank))
        for i in range(cd.rank)
    )


def root_to_fundamental(cd, root):
    return tuple(
        sum(cd.cartan[i][j] * root[j] for j in range(cd.rank))
        for i in range(cd.rank)
    )


def alpha_fundamental(cd, i):
    return tuple(cd.cartan[k][i - 1] for k in range(cd.rank))


def inner(cd, lam, mu) -> Fraction:
    c = fundamental_to_root(cd, mu)
    return sum(
        (Fraction(c[j]) * lam[j] * cd.d[j] for j in range(cd.rank)),
        Fraction(0),
    )


def inner_with_root(cd, lam, root) -> Fraction:
    return sum(
        (Fraction(root[j]) * lam[j] * cd.d[j] for j in range(cd.rank)),
        Fraction(0),
    )


def reflect(cd, lam, i):
    c = lam[i - 1]
    alpha = alpha_fundamental(cd, i)
    return tuple(lam[k] - c * alpha[k] for k in range(cd.rank))


def lowest_weight(cd, lam):
    mu = tuple(lam)
    while True:
        for i in range(cd.rank):
            if mu[i] > 0:
                mu = reflect(cd, mu, i + 1)
                break
        else:
            return mu


def weyl_dim(cd, lam) -> int:
    rho = (1,) * cd.rank
    lam_rho = tuple(lam[i] + 1 for i in range(cd.rank))
    num = Fraction(1)
    for alpha in cd.positive_roots:
        num *= inner_with_root(cd, lam_rho, alpha) / inner_with_root(cd, rho, alpha)
    if num.denominator != 1 or num <= 0:
        raise ArithmeticError(f"Weyl dimension came out as {num}")
    return int(num)


def weight_multiplicities(cd, lam) -> dict:
    lam_rho = tuple(x + 1 for x in lam)
    c_top = inner(cd, lam_rho, lam_rho)
    low = lowest_weight(cd, lam)
    height_bound = sum(fundamental_to_root(cd, tuple(
        lam[i] - low[i] for i in range(cd.rank))))
    if height_bound != int(height_bound):
        raise ArithmeticError("non-integral height bound")
    height_bound = int(height_bound)

    mults = {tuple(lam): 1}
    alphas = [alpha_fundamental(cd, i) for i in range(1, cd.rank + 1)]
    level = {tuple(lam)}
    for _ in range(height_bound):
        candidates = set()
        for mu in level:
            for a in alphas:
                candidates.add(tuple(mu[k] - a[k] for k in range(cd.rank)))
        nxt = set()
        for mu in candidates:
            mu_rho = tuple(x + 1 for x in mu)
            denom = c_top - inner(cd, mu_rho, mu_rho)
            total = Fraction(0)
            for alpha in cd.positive_roots:
                af = root_to_fundamental(cd, alpha)
                k = 1
                while True:
                    nu = tuple(mu[t] + k * af[t] for t in range(cd.rank))
                    m = mults.get(nu, 0)
                    if m == 0 and k > height_bound:
                        break
                    if m:
                        total += 2 * m * inner_with_root(cd, nu, alpha)
                    k += 1
            if total == 0:
                continue
            if denom == 0:
                raise ArithmeticError("Freudenthal denominator vanished")
            m = total / denom
            if m.denominator != 1:
                raise ArithmeticError("non-integral Freudenthal multiplicity")
            if m > 0:
                mults[mu] = int(m)
                nxt.add(mu)
        level = nxt
        if not level:
            break
    return mults


def levi_weight_multiplicities(cd, theta, mu) -> dict:
    """Freudenthal recursion inside the Theta subsystem, ambient coordinates."""
    theta = tuple(sorted(set(theta)))
    pos = tuple(root for root in cd.positive_roots
                if all(c == 0 or (j + 1) in theta for j, c in enumerate(root)))
    if not pos:
        return {tuple(mu): 1}
    rho_sub = tuple(
        Fraction(sum(r[t] for r in pos), 2) for t in range(cd.rank)
    )  # simple-root coordinates

    def inner_rho(w):
        wr = fundamental_to_root(cd, w)
        tot = Fraction(0)
        full = [wr[t] + rho_sub[t] for t in range(cd.rank)]
        for s in range(cd.rank):
            for t in range(cd.rank):
                tot += full[s] * full[t] * cd.d[t] * cd.cartan[t][s]
        return tot

    low = tuple(mu)
    while True:
        for j in theta:
            if low[j - 1] > 0:
                low = reflect(cd, low, j)
                break
        else:
            break
    diff = fundamental_to_root(cd, tuple(mu[t] - low[t] for t in range(cd.rank)))
    height_bound = int(sum(diff))

    c_top = inner_rho(mu)
    mults = {tuple(mu): 1}
    alphas = [alpha_fundamental(cd, j) for j in theta]
    level = {tuple(mu)}
    for _ in range(height_bound):
        candidates = set()
        for w in level:
            for a in alphas:
                candidates.add(tuple(w[t] - a[t] for t in range(cd.rank)))
        nxt = set()
        for w in candidates:
            total = Fraction(0)
            for root in pos:
                af = root_to_fundamental(cd, root)
                for k in range(1, height_bound + 1):
                    nu = tuple(w[t] + k * af[t] for t in range(cd.rank))
                    m = mults.get(nu, 0)
                    if m:
                        total += 2 * m * inner_with_root(cd, nu, root)
            if total == 0:
                continue
            denom = c_top - inner_rho(w)
            if denom == 0:
                raise ArithmeticError("branching Freudenthal denominator vanished")
            m = total / denom
            if m.denominator != 1 or m < 0:
                raise ArithmeticError(f"bad Levi multiplicity {m}")
            if m:
                mults[w] = int(m)
                nxt.add(w)
        level = nxt
        if not level:
            break
    return mults
