"""Norm radii r = p^(-a/b) and the dominant-monomial analysis of log(1+X).

All radius and norm arithmetic happens in exponent space: a norm value
p^(-q) is stored as the exact rational q, with +infinity reserved for the
zero element.  No floating point enters any comparison.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd

from .errors import CounterexampleFound, InvalidDelta, ParseError

INF = math.inf


def kappa(p):
    """The filtration constant: 1 for odd p, 2 for p = 2."""
    return 1 if p != 2 else 2


@dataclass(frozen=True)
class Radius:
    """A norm parameter r = p^(-a/b) with 0 < a/b < 1, stored exactly."""

    a: int
    b: int

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0 or self.a >= self.b:
            raise InvalidDelta(f"radius exponent {self.a}/{self.b} outside (0, 1)")
        g = gcd(self.a, self.b)
        object.__setattr__(self, "a", self.a // g)
        object.__setattr__(self, "b", self.b // g)

    @classmethod
    def from_fraction(cls, fr):
        fr = Fraction(fr)
        return cls(fr.numerator, fr.denominator)

    @cached_property
    def exponent(self):
        """q with r = p^(-q)."""
        return Fraction(self.a, self.b)

    def __str__(self):
        return f"p^-{self.a}/{self.b}"


_RADIUS_RE = re.compile(r"^\s*(\d+)\s*\^\s*-\s*(\d+)\s*(?:/\s*(\d+))?\s*$")


def parse_radius(text, p):
    """The Radius of a literal like ``3^-1/4``, whose base must be p."""
    m = _RADIUS_RE.match(text)
    if not m:
        raise ParseError(f"bad radius literal {text!r}; expected like 3^-1/4")
    base = int(m.group(1))
    if base != p:
        raise ParseError(f"radius base {base} does not match field prime {p}")
    return Radius(int(m.group(2)), int(m.group(3) or 1))


def vp_int(n, p):
    if n == 0:
        return INF
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_rational(x, p):
    """p-adic valuation of an int or Fraction; +inf for zero."""
    if isinstance(x, int):
        return vp_int(x, p)
    if x == 0:
        return INF
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def _digits_base(n, p):
    d = 0
    while n > 0:
        n //= p
        d += 1
    return d


def _scan_min_exponent(s_exp, p, k_min=1):
    """Exact minimum of E(k) = k*s_exp - v_p(k) over k >= k_min.

    Returns (min_value, sorted list of attaining k).  The scan stops once a
    lower bound L(k) = k*s_exp - digits_p(k) certifiably exceeds the
    incumbent for the entire tail: L dominates E, and E(k') >= k'*s_exp -
    log_p(k') is increasing once k*s_exp >= 2.

    It runs in ints, scaled by the denominator b of s_exp = a/b:
    b E(k) = k a - b v_p(k), and the stop test is k a >= 2b with
    k a - b digits_p(k) above the incumbent; the minimum is returned as
    the Fraction (b E) / b.
    """
    a, b = s_exp.numerator, s_exp.denominator
    best = None
    argmins = []
    k = k_min
    while True:
        e_k = k * a - b * vp_int(k, p)
        if best is None or e_k < best:
            best, argmins = e_k, [k]
        elif e_k == best:
            argmins.append(k)
        k += 1
        ka = k * a
        if ka >= 2 * b and ka - b * _digits_base(k, p) > best:
            return Fraction(best, b), argmins


def is_h0_radius(r, kappa, p):
    """Whether r^kappa < p^(-1/(p-1)), i.e. kappa a/b > 1/(p-1), exactly.

    These are the radii where log(1+X) at s = r^kappa is dominated by its
    first term (dominant index h = 0); the "dominant log index sweep"
    record checks that against ``dominant_log_index``.
    """
    return kappa * r.exponent > Fraction(1, p - 1)


def dominant_log_index(r, kappa, p):
    """Dominant-monomial index of log(1+X) at s = r^kappa.

    The supremum of |1/k| s^k over k >= 1 is always attained at a p-power
    p^h; the brute-force scan verifies that claim on every call.  Returns
    the integer h, or None when the maximum is tied (critical radius).
    """
    s_exp = kappa * r.exponent
    best, argmins = _scan_min_exponent(s_exp, p)
    if len(argmins) > 1:
        return None
    k = argmins[0]
    h = vp_int(k, p)
    if p**h != k:
        raise CounterexampleFound(
            f"dominant index {k} of log(1+X) at exponent {s_exp} is not a p-power",
            witness=(s_exp, k),
        )
    return h


def log_tail_exponent(N, r, kappa, p):
    """Certified lower bound min_{k>N} (kappa*k*(a/b) - v_p(k)).

    This is the norm exponent of the tail of the degree-N truncation of
    log(1+b_i) at radius r.
    """
    best, _ = _scan_min_exponent(kappa * r.exponent, p, k_min=N + 1)
    return best


def radius_root(delta, m, p, kappa):
    """The family member delta^(1/p^m) of the p-power-root radius family.

    Requires delta^kappa < p^(-1/(p-1)); the result again lies in
    (p^-1, 1), which ``Radius`` itself enforces with InvalidDelta.
    """
    if not is_h0_radius(delta, kappa, p):
        raise InvalidDelta(
            f"delta exponent {delta.exponent} needs kappa*exponent > 1/(p-1) = 1/{p - 1}"
        )
    return Radius.from_fraction(delta.exponent / p**m)
