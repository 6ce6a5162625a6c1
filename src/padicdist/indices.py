"""Multi-index helpers shared by the series, table and symbol modules."""

from math import comb


def iter_multi_indices(d, max_total):
    """All alpha in N_0^d with |alpha| <= max_total, graded-lex order."""
    for total in range(max_total + 1):
        yield from iter_exact_degree(d, total)


def iter_exact_degree(d, total):
    if d == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in iter_exact_degree(d - 1, total - first):
            yield (first,) + rest


def grlex_key(alpha):
    return (sum(alpha), tuple(-a for a in alpha))


def add_index(a, b):
    return tuple(x + y for x, y in zip(a, b))


def le_componentwise(b, a):
    return all(x <= y for x, y in zip(b, a))


def multi_binom(alpha, beta):
    """Product of componentwise binomial coefficients binom(alpha_i, beta_i)."""
    out = 1
    for a, b in zip(alpha, beta):
        out *= comb(a, b)
    return out


def unit_index(d, i):
    return tuple(1 if k == i else 0 for k in range(d))
