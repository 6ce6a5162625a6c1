"""Multi-index helpers shared by the series, table and symbol modules, and
the one sparse sum of their term maps."""

from .errors import DegreeOverflow, InvalidArgument, PadicError


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


def unit_index(d, i, k=1):
    """k e_i in N_0^d; an index i outside 0..d-1 is refused with
    InvalidArgument."""
    if i not in range(d):
        raise InvalidArgument(f"index {i!r} is outside 0..{d - 1}")
    return tuple(k if t == i else 0 for t in range(d))


def sparse_sum(terms):
    """The map key -> sum of its values over the (key, value) pairs
    ``terms``, keys in order of first occurrence, with every key whose sum
    is zero (``is_zero``) dropped."""
    out = {}
    get = out.get
    for key, c in terms:
        prev = get(key)
        out[key] = c if prev is None else prev + c
    return {key: c for key, c in out.items() if not c.is_zero}


def check_multi_index(index, d, N, name="index"):
    """Refuse an index that is not a multi-index in N_0^d (not a tuple, of
    another length, or with an entry that is negative or not an int) with
    PadicError, and a multi-index of degree above N with DegreeOverflow;
    ``name`` names it in the message."""
    if not (isinstance(index, tuple) and len(index) == d
            and all(type(a) is int and a >= 0 for a in index)):
        raise PadicError(f"{name} {index!r} is not a multi-index in N_0^{d}")
    if sum(index) > N:
        raise DegreeOverflow(f"{name} {index} outside the degree-{N} table",
                             required_degree=sum(index))
