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

The field is an object and the group a built-in name, the radii a list
of literals, each in (p^-1, 1); the field's p, e, f and precision, the
residual precision, the truncation, the seed and every option are
integers (not bools), p >= 2, ``transfer_m`` >= 0 and the rest >= 1.
``regseq_cap`` is accepted and validated but not read: the grading
suite's regular-sequence certificate is exact, with no degree bound.
``field.precision`` (default 24) is accepted, validated and echoed in the
report's ``# config:`` line, but no computation reads it: arithmetic in
K is exact, and ``FieldSpec`` takes no precision.
Unknown suite names and option keys are rejected up front; every refusal
is a ConfigError.  No suite bounds the size q of the residue field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .catalog import get_group
from .errors import ConfigError, PadicError
from .padics import FieldSpec
from .radii import parse_radius
from .suites import SUITES

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
        if not isinstance(data, dict):
            raise ConfigError("config: must be a JSON object")
        fdata = data.get("field", {"p": 3})
        if not isinstance(fdata, dict):
            raise ConfigError("field: must be an object")
        for key, low in (("p", 2), ("e", 1), ("f", 1), ("precision", 1)):
            if key in fdata:
                _integer(f"field.{key}", fdata[key], low)
        try:
            fld = FieldSpec(
                fdata.get("p", 3),
                e=fdata.get("e", 1),
                f=fdata.get("f", 1),
                unram_poly=fdata.get("unram_poly"),
                eisenstein=fdata.get("eisenstein"),
            )
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"field: {exc}") from exc

        name = data.get("group", "abelian(1)")
        if not isinstance(name, str):
            raise ConfigError("group: must be a built-in group name")
        group = get_group(name, field=fld)

        N = _integer("truncation", data.get("truncation", 6), 1)
        mprime = _integer("residual_precision", data.get("residual_precision", 2), 1)

        literals = data.get("radii", [f"{fld.p}^-1/2"])
        if not isinstance(literals, list):
            raise ConfigError("radii: must be a list of radius literals")
        radii = []
        for idx, lit in enumerate(literals):
            if not isinstance(lit, str):
                raise ConfigError(f"radii[{idx}]: must be a radius literal like {fld.p}^-1/2")
            try:
                r = parse_radius(lit, fld.p)
            except PadicError as exc:
                raise ConfigError(f"radii[{idx}]: {exc}") from exc
            radii.append(r)

        suites = data.get("suites", [])
        if not isinstance(suites, list):
            raise ConfigError("suites: must be a list of suite names")
        for s in suites:
            if not isinstance(s, str) or s not in SUITES:
                raise ConfigError(f"suites: unknown suite {s!r}")

        seed = data.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
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
            "field": {"p": fld.p, "e": fld.e, "f": fld.f, "precision": fdata.get("precision", 24)},
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
    def from_file(cls, path, sc_cache=None, **overrides):
        """The config in the JSON file ``path``, its keys in ``overrides``
        replaced before ``from_dict`` checks them."""
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
        if isinstance(data, dict):
            data = {**data, **overrides}
        return cls.from_dict(data, sc_cache=sc_cache)


def _integer(key, value, low):
    """``value`` if it is an int (not a bool) >= ``low``; else ConfigError
    naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{key}: must be an integer >= {low}")
    return value
