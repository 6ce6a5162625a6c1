"""Command-line interface.

``padicdist run`` executes verification suites from a config file and
writes a text or structured report; the expression commands evaluate
distribution arithmetic, norms, symbols and quotient reductions in the
documented text forms.  Exit status is 0 when every check record
passes, 1 when one fails and 2 on bad input or usage.
"""

from __future__ import annotations

import argparse
import re
import sys

from .config import JobConfig
from .distalg import _generator_index
from .errors import PadicError
from .quotient import canonicalize, quotient_norm
from .radii import parse_radius
from .suites import SuiteEnv, run_suite
from . import towers


def _load_config(args, default=None, **overrides):
    """The ``--config`` file's job, else ``default``, with the keys in
    ``overrides`` replaced, so that the config checks and echoes them."""
    sc_cache = getattr(args, "sc_cache", None)
    if getattr(args, "config", None):
        return JobConfig.from_file(args.config, sc_cache=sc_cache, **overrides)
    return JobConfig.from_dict({**(default or {}), **overrides}, sc_cache=sc_cache)


_LOG_RE = re.compile(r"^\s*log\(\s*1\s*\+\s*(b\w*)\s*\)\s*$")


def _parse_expr(algebra, text):
    m = _LOG_RE.match(text)
    if m:
        return algebra.log_series(_generator_index(algebra, m.group(1), m.start(1)))
    return algebra.parse(text)


def cmd_run(args):
    overrides = {"suites": args.suite, "seed": args.seed}
    config = _load_config(args, **{k: v for k, v in overrides.items() if v is not None})
    report = run_suite(config)
    text = report.to_text()
    structured = report.to_json(include_timing=args.timing)
    if args.out:
        # one human-readable and one machine-readable file per run
        primary, sibling, ext = (structured, text, ".txt") \
            if args.format == "structured" else (text, structured, ".json")
        with open(args.out, "w") as fh:
            fh.write(primary)
        with open(args.out + ext, "w") as fh:
            fh.write(sibling)
    else:
        sys.stdout.write(structured if args.format == "structured" else text)
    return 0 if report.passed else 1


def cmd_dist(args):
    config = _load_config(args, default={"field": {"p": args.p}} if args.p else None)
    algebra = SuiteEnv(config).algebra
    if args.action == "mul":
        lam = _parse_expr(algebra, args.expr[0])
        mu = _parse_expr(algebra, args.expr[1])
        print(algebra.format(algebra.mul(lam, mu)))
        return 0
    r = parse_radius(args.radius, config.field.p)
    lam = _parse_expr(algebra, args.expr[0])
    if args.action == "norm":
        print(f"exponent {lam.norm(r)}")
    else:  # symbol
        print(lam.principal_symbol(r))
    return 0


_DEFAULT_LGROUP = {
    "field": {"p": 3, "f": 2, "precision": 24},
    "group": "o-additive(1)",
    "truncation": 8,
    "residual_precision": 2,
    "radii": ["3^-2/3"],
}


def cmd_quotient(args):
    config = _load_config(args, default=_DEFAULT_LGROUP)
    env = SuiteEnv(config)
    if not env.is_lgroup:
        raise PadicError("quotient commands need a locally analytic group config")
    fam = env.family
    r = parse_radius(args.radius, config.field.p)
    mprime = config.residual_precision
    lam = _parse_expr(fam.algebra, args.expr)
    if args.action == "canonicalize":
        form = canonicalize(fam, lam, r, mprime)
        print(fam.algebra.format(form.as_distribution()))
        print(f"residual <= p^-({form.residual_exponent}); passes {form.levels}, "
              f"steps {form.steps}")
    elif args.action == "norm":
        print(f"exponent {quotient_norm(fam, lam, r, mprime)}")
    else:  # check: canonicalize and verify idempotence
        form = canonicalize(fam, lam, r, mprime)
        again = canonicalize(fam, form.as_distribution(), r, mprime)
        ok = again.coeffs == form.coeffs
        print(f"idempotent: {ok}; residual <= p^-({form.residual_exponent})")
        return 0 if ok else 1
    return 0


def cmd_towers(args):
    import random

    config = _load_config(args, default=_DEFAULT_LGROUP if args.action == "transfer" else None)
    rng = random.Random(config.seed)
    env = SuiteEnv(config)
    if args.action == "restrict":
        r = parse_radius(args.radius, config.field.p)
        recs = towers.restriction_check(env.algebra, args.m, r, args.samples, rng)
        print(f"{len(recs)} samples, exact agreement")
    elif args.action == "orth":
        r = parse_radius(args.radius, config.field.p)
        system = towers.orthogonal_system(env.algebra, args.m)
        out = towers.orthogonal_system_check(system, r, args.samples, rng)
        print(f"orthogonal system of {len(system)} elements; basis = {out['basis']}")
    elif args.action == "cosets":
        cs = towers.lower_p_transversal(env.lattice, args.m)
        print(towers.coset_conditions(cs, rng))
    else:  # transfer
        if not env.is_lgroup:
            raise PadicError("transfer needs a locally analytic group config")
        delta = parse_radius(args.radius, config.field.p)
        recs = towers.norm_transfer_check(config.group, delta, args.m,
                                          args.samples, rng)
        for rec in recs:
            print(rec)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="padicdist",
        description="Exact desk-scale checks for distribution algebras of "
                    "uniform pro-p groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute verification suites")
    p_run.add_argument("--config", help="path to the JSON job config")
    p_run.add_argument("--suite", action="append", help="suite name (repeatable)")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--sc-cache", dest="sc_cache",
                       help="directory for structure-constant caches")
    p_run.add_argument("--out", help="report output path (default stdout)")
    p_run.add_argument("--format", choices=("text", "structured"), default="text")
    p_run.add_argument("--timing", action="store_true",
                       help="include timings (breaks byte-identical reports)")
    p_run.set_defaults(func=cmd_run)

    p_dist = sub.add_parser("dist", help="distribution expression evaluation")
    p_dist.add_argument("action", choices=("mul", "norm", "symbol"))
    p_dist.add_argument("expr", nargs="+")
    p_dist.add_argument("-r", "--radius", help="radius literal like 3^-1/4")
    p_dist.add_argument("--config")
    p_dist.add_argument("--p", type=int, help="prime for the default field")
    p_dist.add_argument("--sc-cache", dest="sc_cache")
    p_dist.set_defaults(func=cmd_dist)

    p_q = sub.add_parser("quotient", help="canonical forms in the quotient algebra")
    p_q.add_argument("action", choices=("canonicalize", "norm", "check"))
    p_q.add_argument("expr")
    p_q.add_argument("-r", "--radius", required=True)
    p_q.add_argument("--config")
    p_q.add_argument("--sc-cache", dest="sc_cache")
    p_q.set_defaults(func=cmd_quotient)

    p_t = sub.add_parser("towers", help="subalgebra restriction and transfer checks")
    p_t.add_argument("action", choices=("restrict", "orth", "cosets", "transfer"))
    p_t.add_argument("-r", "--radius")
    p_t.add_argument("-m", type=int, default=1)
    p_t.add_argument("--samples", type=int, default=8)
    p_t.add_argument("--config")
    p_t.add_argument("--sc-cache", dest="sc_cache")
    p_t.set_defaults(func=cmd_towers)

    return parser


_NEEDS_RADIUS = {"dist": ("norm", "symbol"), "towers": ("restrict", "orth", "transfer")}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    action = getattr(args, "action", None)
    if action in _NEEDS_RADIUS.get(args.command, ()) and not args.radius:
        parser.error(f"{args.command} {action} needs -r RADIUS")
    if args.command == "dist" and len(args.expr) != (2 if action == "mul" else 1):
        parser.error(f"dist {action} needs "
                     + ("two expressions" if action == "mul" else "one expression"))
    if getattr(args, "samples", 1) < 1:
        parser.error(f"--samples must be at least 1, not {args.samples}")
    try:
        return args.func(args)
    except PadicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
