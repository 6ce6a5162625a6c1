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

Radii must lie in (p^-1, 1); the residual precision and truncation are
positive.  Unknown suite names are rejected up front.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .catalog import get_group
from .errors import ConfigError
from .padics import FieldSpec
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
        group = get_group(name, field=fld, precision=fld.precision)

        N = data.get("truncation", 6)
        mprime = data.get("residual_precision", 2)
        if not (isinstance(N, int) and N >= 1):
            raise ConfigError("truncation: must be an integer >= 1")
        if not (isinstance(mprime, int) and mprime >= 1):
            raise ConfigError("residual_precision: must be an integer >= 1")

        radii = []
        for idx, lit in enumerate(data.get("radii", [f"{fld.p}^-1/2"])):
            try:
                _, r = parse_radius(lit, p=fld.p)
            except Exception as exc:
                raise ConfigError(f"radii[{idx}]: {exc}") from exc
            radii.append(r)

        suites = list(data.get("suites", []))
        for s in suites:
            if s not in KNOWN_SUITES:
                raise ConfigError(f"suites: unknown suite {s!r}")

        seed = data.get("seed", 0)
        if not isinstance(seed, int):
            raise ConfigError("seed: must be an integer")

        options = dict(DEFAULT_OPTIONS)
        options.update(data.get("options", {}))

        echo = {
            "field": {"p": fld.p, "e": fld.e, "f": fld.f, "precision": fld.precision},
            "group": name,
            "truncation": N,
            "residual_precision": mprime,
            "radii": [f"{fld.p}^-{r.a}/{r.b}" for r in radii],
            "suites": suites,
            "seed": seed,
        }
        return cls(
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
