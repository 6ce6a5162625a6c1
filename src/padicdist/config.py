"""Job configuration: a single declarative JSON file.

Grammar (all keys optional unless noted)::

    {
      "field":   {"p": 3, "e": 1, "f": 2, "precision": 24,
                  "unram_poly": [1, 0, 1],          # optional, monic, low-to-high
                  "eisenstein": [-3]},              # optional, a_0..a_{e-1}
      "group":   "heisenberg",                      # built-in name, e.g. abelian(2)
      "truncation": 6,                              # N
      "residual_precision": 2,                      # M' for canonicalization
      "radii":   ["3^-1/4", "3^-2/3"],
      "suites":  ["pvaluation", "norms", "symbols",
                  "quotient", "towers", "grading", "pro2"],
      "seed":    0,
      "options": {"pairs": 60, "trials": 40, "pro2_level": 5,
                  "regseq_cap": 6, "transfer_m": 2}
    }

Radii must lie in (p^-1, 1); the residual precision, the truncation and
every option are integers (not bools), ``transfer_m`` >= 0 and the rest
>= 1.  Unknown suite names and option keys are rejected up front, and
so (with SweepLimit) are a pro-2 sweep of more than MAX_PRO2_PAIRS pairs,
a ``grading`` suite whose kernel-symbol family has more than
``grading.MAX_REGSEQ_FAMILY`` members, and a suite that computes in the
residue field when q exceeds ``padics.MAX_RESIDUE_ORDER``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .catalog import get_group
from .errors import ConfigError, SweepLimit
from .grading import MAX_REGSEQ_FAMILY
from .groups import LGroupSpec, pro2_sweep_pairs
from .padics import MAX_RESIDUE_ORDER, FieldSpec
from .radii import parse_radius

KNOWN_SUITES = (
    "pvaluation",
    "pro2",
    "norms",
    "symbols",
    "quotient",
    "towers",
    "grading",
)

DEFAULT_OPTIONS = {
    "pairs": 60,
    "trials": 40,
    "pro2_level": 5,
    "regseq_cap": 6,
    "transfer_m": 2,
}

# Suites that compute in the residue field k, through its log tables.
RESIDUE_SUITES = ("symbols", "quotient", "towers", "grading")

# On a d = 3 lattice the pro-2 sweep checks 144,448 pairs at level 6 (about
# 1 s on a 2-vCPU Xeon with Python 3.11) and 1,455,168 at level 7.
MAX_PRO2_PAIRS = 200_000


@dataclass
class JobConfig:
    field: FieldSpec
    group: object
    truncation: int
    residual_precision: int
    radii: list
    suites: list
    seed: int
    options: dict
    sc_cache: str = None
    echo: dict = None

    @classmethod
    def from_dict(cls, data, sc_cache=None):
        if not isinstance(data, dict):
            raise ConfigError("config: must be a JSON object")
        try:
            fdata = dict(data.get("field", {"p": 3}))
            fld = FieldSpec(
                fdata.get("p", 3),
                e=fdata.get("e", 1),
                f=fdata.get("f", 1),
                precision=fdata.get("precision", 24),
                unram_poly=fdata.get("unram_poly"),
                eisenstein=fdata.get("eisenstein"),
            )
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"field: {exc}") from exc

        name = data.get("group", "abelian(1)")
        group = get_group(name, field=fld)

        N = _integer("truncation", data.get("truncation", 6), 1)
        mprime = _integer("residual_precision", data.get("residual_precision", 2), 1)

        radii = []
        for idx, lit in enumerate(data.get("radii", [f"{fld.p}^-1/2"])):
            try:
                _, r = parse_radius(lit, p=fld.p)
            except Exception as exc:
                raise ConfigError(f"radii[{idx}]: {exc}") from exc
            radii.append(r)

        suites = data.get("suites", [])
        if not isinstance(suites, list):
            raise ConfigError("suites: must be a list of suite names")
        for s in suites:
            if s not in KNOWN_SUITES:
                raise ConfigError(f"suites: unknown suite {s!r}")

        seed = data.get("seed", 0)
        if not isinstance(seed, int):
            raise ConfigError("seed: must be an integer")

        given = data.get("options", {})
        if not isinstance(given, dict):
            raise ConfigError("options: must be an object")
        options = dict(DEFAULT_OPTIONS)
        for key, value in given.items():
            if key not in DEFAULT_OPTIONS:
                raise ConfigError(f"options.{key}: unknown option")
            low = 0 if key == "transfer_m" else 1
            options[key] = _integer(f"options.{key}", value, low)

        echo = {
            "field": {"p": fld.p, "e": fld.e, "f": fld.f, "precision": fld.precision},
            "group": name,
            "truncation": N,
            "residual_precision": mprime,
            "radii": [f"{fld.p}^-{r.a}/{r.b}" for r in radii],
            "suites": suites,
            "seed": seed,
        }
        config = cls(
            field=fld,
            group=group,
            truncation=N,
            residual_precision=mprime,
            radii=radii,
            suites=suites,
            seed=seed,
            options=options,
            sc_cache=sc_cache,
            echo=echo,
        )
        config.check_sweep_limits()
        return config

    def check_sweep_limits(self):
        """Refuse, with SweepLimit, a pro-2 sweep above MAX_PRO2_PAIRS, a
        regular-sequence family above MAX_REGSEQ_FAMILY and a residue field
        above MAX_RESIDUE_ORDER under a suite that computes in it."""
        q = self.field.residue_field.order
        k_suites = [s for s in self.suites if s in RESIDUE_SUITES]
        if k_suites and q > MAX_RESIDUE_ORDER:
            raise SweepLimit(
                f"field: the {k_suites[0]} suite computes in the residue field F_{q}, "
                f"above the {MAX_RESIDUE_ORDER:,} elements its log tables are built for"
            )
        group = self.group
        lgroup = isinstance(group, LGroupSpec)
        if "grading" in self.suites and lgroup:
            members = (group.n - 1) * group.d
            if members > MAX_REGSEQ_FAMILY:
                raise SweepLimit(
                    f"suites: the grading suite's regular-sequence certificate sweeps "
                    f"the orderings of families of at most {MAX_REGSEQ_FAMILY} symbols; "
                    f"{group.name} over a field of degree {group.n} has {members}"
                )
        if "pro2" not in self.suites or self.field.p != 2:
            return
        d = group.n * group.d if lgroup else group.d
        level = self.options["pro2_level"]
        pairs = pro2_sweep_pairs(d, level)
        if pairs > MAX_PRO2_PAIRS:
            raise SweepLimit(
                f"options.pro2_level: the pro-2 sweep at level {level} checks "
                f"{pairs:,} pairs, above the limit of {MAX_PRO2_PAIRS:,}"
            )

    @classmethod
    def from_file(cls, path, sc_cache=None):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(data, sc_cache=sc_cache)


def _integer(key, value, low):
    """``value`` if it is an int (not a bool) >= ``low``; else ConfigError
    naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{key}: must be an integer >= {low}")
    return value
