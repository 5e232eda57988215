"""Exact arithmetic for the benchmark's correctness checks.

Plain nested lists of ints or Fractions, over QQ (``p is None``) or GF(p).
Nothing here imports moddeg, so a check never trusts the code it checks.
"""

from __future__ import annotations

from fractions import Fraction


def reduce(v, p):
    return Fraction(v) if p is None else int(v) % p


def matmul(a, b, p):
    cols = list(zip(*b))
    out = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
    return out if p is None else [[v % p for v in row] for row in out]


def equal(a, b, p):
    return all(reduce(x, p) == reduce(y, p)
               for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def rank(rows, p):
    """Rank by Gauss-Jordan elimination over QQ (Fractions) or GF(p)."""
    m = [[reduce(v, p) for v in row] for row in rows]
    if not m:
        return 0
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c] if p is None else pow(m[r][c], -1, p)
        m[r] = [v * inv for v in m[r]] if p is None else [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                k = m[i][c]
                if p is None:
                    m[i] = [x - k * y for x, y in zip(m[i], m[r])]
                else:
                    m[i] = [(x - k * y) % p for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def intertwines(h, source_mats, target_mats, p):
    """H . s_g == t_g . H for every generator g."""
    return all(equal(matmul(h, s, p), matmul(t, h, p), p)
               for s, t in zip(source_mats, target_mats))


def is_upper_triangular(m, p):
    return all(reduce(m[i][j], p) == 0 for i in range(len(m)) for j in range(min(i, len(m[0]))))


def jordan_hom_dim(lam, mu):
    """dim Hom(J_lam, J_mu) over k[X]/(X^n) with all parts at most n."""
    return sum(min(a, b) for a in lam for b in mu)


def kronecker_hom_dim(k, l, p):
    """dim Hom(K, L) for Kronecker representations given as (a, b, A, B)
    with arrow blocks A, B of shape b x a, solved in block coordinates:
    unknowns h1 (a_L x a_K) and h2 (b_L x b_K) with h2 . X_K = X_L . h1."""
    ak, bk, *arrows_k = k
    al, bl, *arrows_l = l
    nh1 = al * ak
    nvars = nh1 + bl * bk
    rows = []
    for xk, xl in zip(arrows_k, arrows_l):
        for i in range(bl):
            for j in range(ak):
                row = [0] * nvars
                for s in range(bk):
                    row[nh1 + i * bk + s] += xk[s][j]
                for t in range(al):
                    row[t * ak + j] -= xl[i][t]
                rows.append(row)
    return nvars - rank(rows, p)
