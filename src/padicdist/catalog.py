"""Built-in example groups used by the verification suites and the CLI."""

from __future__ import annotations

import re

from .errors import ConfigError
from .groups import LGroupSpec, LieLattice
from .indices import unit_index
from .padics import FieldSpec
from .radii import kappa


def abelian(d, p=3):
    return LieLattice(p, d, {}, name=f"abelian({d})")


def heisenberg(p=3):
    """d = 3 with [X_1, X_2] = p^kappa X_3, the rest central."""
    return LieLattice(
        p, 3, {(0, 1): (0, 0, p**kappa(p))},
        name="heisenberg" if p == 3 else f"heisenberg(p={p})",
    )


def heisenberg2():
    """The 2-adic powerful variant, [X_1, X_2] = 4 X_3."""
    lat = heisenberg(p=2)
    lat.name = "heisenberg2"
    return lat


def o_additive(field: FieldSpec, d=1):
    """The additive group of the valuation ring of L = K, restricted.

    The v-basis is the full integral basis {w^a pi^b} with v_1 = 1; all
    brackets vanish.
    """
    basis = [field.from_coords(unit_index(field.degree, k)) for k in range(field.degree)]
    return LGroupSpec(field, basis, d, {}, name=f"o-additive({d})")


_NAME_RE = re.compile(r"^([a-z0-9_-]+)(?:\((\d+)\))?$")


def get_group(name, field=None):
    """Resolve a built-in group literal like ``abelian(2)`` or ``heisenberg``.

    Returns a LieLattice or, for the locally analytic examples, an
    LGroupSpec (which the caller restricts as needed).
    """
    m = _NAME_RE.match(name.strip())
    if not m:
        raise ConfigError(f"group: cannot parse built-in name {name!r}")
    base, arg = m.group(1), m.group(2)
    p = field.p if field is not None else 3
    if base == "abelian":
        return abelian(int(arg or 1), p=p)
    if base == "heisenberg":
        if p != 3 and field is not None:
            raise ConfigError("group: heisenberg is a p = 3 example")
        return heisenberg(p=3)
    if base == "heisenberg2":
        return heisenberg2()
    if base in ("o-additive", "o_additive"):
        if field is None:
            raise ConfigError("group: o-additive needs a field")
        return o_additive(field, int(arg or 1))
    raise ConfigError(f"group: unknown built-in {name!r}")
