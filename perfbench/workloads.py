"""The benchmark's workloads: seeded inputs, set-up and one timed pass each.

``make(name, seed, smoke)`` builds a workload.  Its ``setup()`` does
everything a user pays before the first answer (config load, field,
group, algebra and kernel-family construction, table-cache load);
``run_pass()`` is the timed unit of work and returns (output text, ops
attempted, ops failed), the text being what the output gate digests.
Every pass of one run does the same work on the same inputs, so a pass,
and each op in it, can be timed by its fastest repeat.

Workloads (the reasons are repeated in BENCHMARK.json):

* ``heis-cold``  README heisenberg job, all 7 suites, no table cache: the
  structure-constant table build in ``mahler`` dominates.
* ``heis-warm``  the same job against a cache directory seeded with a
  filled table file: ``mahler`` runs its cache path, the time goes to
  ``distalg``, ``padics`` and ``towers``.
* ``pro2-law``   heisenberg2 with the ``pvaluation`` and ``pro2`` suites:
  the ``groups`` law (``bch`` and chart conversion) alone.
* ``lgroup-stream``  ``canonicalize`` requests over o-additive(1) on the
  unramified quadratic extension of Q_3, closed by the regular-sequence
  certificates on o-additive(2): ``quotient``, ``distalg.norm``,
  ``padics`` and ``grading``; ``mahler`` is idle (abelian lattice).
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile

from padicdist.config import JobConfig
from padicdist.errors import PadicError
from padicdist.quotient import build_kernel_family, canonicalize, kernel_symbol_family
from padicdist.grading import check_regular_sequence
from padicdist.radii import Radius, dominant_log_index
from padicdist.report import Report
import padicdist.suites as suites

HEIS_JOB = {
    "field": {"p": 3, "e": 1, "f": 2, "precision": 24,
              "unram_poly": [1, 0, 1], "eisenstein": [-3]},
    "group": "heisenberg",
    "truncation": 6,
    "residual_precision": 2,
    "radii": ["3^-1/4", "3^-2/3"],
    "suites": ["pvaluation", "norms", "symbols", "quotient",
               "towers", "grading", "pro2"],
    "options": {"pairs": 60, "trials": 40, "pro2_level": 5,
                "regseq_cap": 6, "transfer_m": 2},
}
HEIS_SMOKE = dict(HEIS_JOB, truncation=3,
                  options={"pairs": 8, "trials": 6, "pro2_level": 5,
                           "regseq_cap": 4, "transfer_m": 1})

PRO2_JOB = {
    "field": {"p": 2, "precision": 24},
    "group": "heisenberg2",
    "truncation": 6,
    "radii": ["2^-1/4"],
    "suites": ["pvaluation", "pro2"],
    "options": {"pairs": 300, "pro2_level": 5},
}
PRO2_SMOKE = dict(PRO2_JOB, options={"pairs": 20, "pro2_level": 3})

LGROUP_FIELD = {"p": 3, "f": 2, "precision": 24}
STREAM_TRUNCATION = 14
STREAM_RADIUS = "3^-2/3"
STREAM_MPRIME = 3

# One block of requests: the leading term (b11 exponent, b21 exponent,
# valuation) of each request.  Its filtration level v + (2/3)*degree sets
# how many reduction steps canonicalize needs to reach p^-3, so a fixed
# multiset per block keeps the work of a pass nearly seed-independent and
# puts each latency quantile inside one class: three light requests
# (level 8/3), four medium ones (7/3, around the median), two at level 2
# and one heavy (4/3, the top tenth, around p95).
LEAD_BLOCK = (
    (0, 4, 0), (1, 3, 0), (2, 2, 0),
    (0, 2, 1), (0, 2, 1), (0, 2, 1), (0, 2, 1),
    (0, 3, 0), (1, 2, 0),
    (1, 1, 0),
)
STREAM_BLOCKS = 3
# Other terms: b11^a b21^k with k >= 1 (never already canonical), degree
# 2..5, valuation 0..2.
TERM_SHAPES = tuple(
    (a, deg - a, v) for deg in range(2, 6) for a in range(deg) for v in range(3)
)
REGSEQ_CAP = 6


def _level(shape):
    a, k, v = shape
    return 3 * v + 2 * (a + k)  # three times v + (2/3)(a + k)


def stream_requests(seed, blocks):
    """Seeded plain-data requests: each a tuple of (alpha, (u0, u1), v).

    A term is (u0 + u1 w) p^v b^alpha with u0 + u1 w a unit of Z_9.
    """
    rng = random.Random(f"lgroup-stream:{seed}")
    requests = []
    for _ in range(blocks):
        leads = list(LEAD_BLOCK)
        rng.shuffle(leads)
        for lead in leads:
            shapes = [lead]
            deeper = [s for s in TERM_SHAPES if _level(s) > _level(lead)]
            while len(shapes) < 3:
                s = rng.choice(deeper)
                if all(s[:2] != t[:2] for t in shapes):
                    shapes.append(s)
            terms = []
            for a, k, v in shapes:
                unit = (0, 0)
                while unit == (0, 0):
                    unit = (rng.randrange(3), rng.randrange(3))
                terms.append(((a, k), unit, v))
            requests.append(tuple(terms))
    return requests


class JobWorkload:
    """A ``padicdist run`` job: suites over one config, one report per pass."""

    def __init__(self, job, seed, warm_table=None, scratch=None):
        self.job = dict(job, seed=seed)
        self.warm_table = warm_table
        self.scratch = scratch
        self.env = None
        self.config = None
        self._cache_dir = None

    def setup(self):
        self.cleanup()
        if self.warm_table is not None:
            # a fresh copy per pass, so the rewrite after the table check
            # in one pass cannot change what the next one loads
            self._cache_dir = tempfile.mkdtemp(prefix="warm-", dir=self.scratch)
            for name in os.listdir(self.warm_table):
                shutil.copy(os.path.join(self.warm_table, name), self._cache_dir)
        self.config = JobConfig.from_dict(self.job, sc_cache=self._cache_dir)
        self.env = suites.SuiteEnv(self.config)
        if self._cache_dir is not None:
            # building the algebra loads the cache; ``_rows`` is the table's
            # row memo, empty when the file was refused
            if not self.env.algebra.table._rows:
                raise RuntimeError("the seeded table cache was not loaded")

    def run_pass(self):
        """Run the configured suites as ``run_suite`` does, on the prebuilt env,
        and render both report forms as ``padicdist run`` does."""
        report = Report(config_echo=self.config.echo)
        for name in self.config.suites:
            for record in suites.SUITES[name](self.env):
                report.add(record)
        text = report.to_text()
        report.to_json()
        return text, len(report.records), report.counts[1]

    def install_clock(self, clock):
        suites._record = clock.wrap_record(suites._record)
        for name, fn in list(suites.SUITES.items()):
            suites.SUITES[name] = clock.wrap_suite(fn)

    def cleanup(self):
        if self._cache_dir is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
            self._cache_dir = None

    @staticmethod
    def shape(text):
        """The seed-independent part of a report: record names and outcomes."""
        lines = []
        for line in text.splitlines():
            if line.startswith("# config:"):
                continue
            lines.append(line.split("  expected=")[0].split("  skipped")[0])
        return "\n".join(lines)


class StreamWorkload:
    """Canonicalize requests in the quotient, closed by regular-sequence checks."""

    def __init__(self, seed, smoke=False):
        self.blocks = 1 if smoke else STREAM_BLOCKS
        self.cap = 4 if smoke else REGSEQ_CAP
        self.requests = stream_requests(seed, self.blocks)
        self.clock = None

    def setup(self):
        config = JobConfig.from_dict({
            "field": LGROUP_FIELD, "group": "o-additive(1)",
            "truncation": STREAM_TRUNCATION, "residual_precision": STREAM_MPRIME,
            "radii": [STREAM_RADIUS],
        })
        self.family = build_kernel_family(config.group, config.truncation)
        self.radius = config.radii[0]
        self.mprime = config.residual_precision
        config2 = JobConfig.from_dict({
            "field": LGROUP_FIELD, "group": "o-additive(2)", "truncation": 6,
        })
        self.family2 = build_kernel_family(config2.group, config2.truncation)
        field = config.field
        self.cert_radii = [_radius_with_index(h, field.kappa, field.p) for h in (0, 1)]
        alg = self.family.algebra
        w, p = field.unram_gen(), field.uniformizer()
        self.inputs = [
            alg.from_terms({
                alpha: (field.scalar(u0) + w * u1) * p ** v
                for alpha, (u0, u1), v in req
            })
            for req in self.requests
        ]

    def install_clock(self, clock):
        self.clock = clock

    def run_pass(self):
        """Returns (canonical forms and certificates as text, ops, failed)."""
        alg = self.family.algebra
        lines = []
        failed = 0
        self.clock.start()
        for i, lam in enumerate(self.inputs):
            try:
                form = canonicalize(self.family, lam, self.radius, self.mprime)
                line = (f"{i}: {alg.format(form.as_distribution())} "
                        f"| residual <= p^-({form.residual_exponent})")
            except PadicError as exc:
                failed += 1
                line = f"{i}: {type(exc).__name__}"
            self.clock.lap()
            lines.append(line)
        p = self.family2.algebra.lattice.p
        for h, r in enumerate(self.cert_radii):
            syms = kernel_symbol_family(self.family2, r)
            ok = check_regular_sequence(syms, max(self.cap, p**h + 2))
            lines.append(f"regular sequence h = {h}: {ok}")
        return "\n".join(lines) + "\n", len(self.inputs), failed

    def cleanup(self):
        pass

    @staticmethod
    def shape(text):
        """Seed-independent part: request count, outcome kinds, certificates."""
        out = []
        for line in text.splitlines():
            if line.startswith("regular sequence"):
                out.append(line)
            else:
                _, _, rest = line.partition(": ")
                out.append("ok" if " | residual <= " in rest else rest)
        return "\n".join(out)


def _radius_with_index(h, kappa, p):
    """The first radius a/b (by denominator) whose dominant log index is h."""
    for b in range(2, 200):
        for a in range(1, b):
            r = Radius(a, b)
            if dominant_log_index(r, kappa, p) == h:
                return r
    raise ValueError(f"no radius with dominant index {h}")


def fill_table(smoke, directory):
    """Fill the heisenberg job's structure-constant cache in ``directory``.

    ``check_filtration_bound`` builds every row and saves the table, as
    the ``norms`` suite does in a job run with ``--sc-cache``.
    """
    job = HEIS_SMOKE if smoke else HEIS_JOB
    config = JobConfig.from_dict(dict(job, seed=0), sc_cache=directory)
    suites.SuiteEnv(config).algebra.table.check_filtration_bound()


def make(name, seed, smoke=False, warm_table=None, scratch=None):
    if name in ("heis-cold", "heis-warm"):
        job = HEIS_SMOKE if smoke else HEIS_JOB
        table = warm_table if name == "heis-warm" else None
        return JobWorkload(job, seed, warm_table=table, scratch=scratch)
    if name == "pro2-law":
        return JobWorkload(PRO2_SMOKE if smoke else PRO2_JOB, seed)
    if name == "lgroup-stream":
        return StreamWorkload(seed, smoke=smoke)
    raise ValueError(f"unknown workload {name!r}")
