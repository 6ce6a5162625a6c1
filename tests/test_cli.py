import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import padicdist
from padicdist.cli import main
from padicdist.config import JobConfig
from padicdist.errors import ConfigError
from padicdist.mahler import StructureConstants
from padicdist.suites import run_suite


@pytest.fixture()
def base_config(tmp_path):
    data = {
        "field": {"p": 3, "precision": 20},
        "group": "abelian(2)",
        "truncation": 6,
        "residual_precision": 2,
        "radii": ["3^-1/4", "3^-2/3"],
        "suites": ["pvaluation", "norms"],
        "seed": 7,
        "options": {"pairs": 8, "trials": 6},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(data))
    return path


def test_run_exit_zero(base_config, capsys):
    assert main(["run", "--config", str(base_config)]) == 0
    out = capsys.readouterr().out
    assert "# summary:" in out
    assert "FAIL" not in out


def test_empty_suite_list(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"field": {"p": 3}, "suites": []}))
    assert main(["run", "--config", str(path)]) == 0
    assert "# summary: 0 passed, 0 failed" in capsys.readouterr().out


def test_unknown_group_rejected(tmp_path):
    with pytest.raises(ConfigError):
        JobConfig.from_dict({"group": "nosuchgroup"})


def test_bad_radius_rejected():
    with pytest.raises(ConfigError):
        JobConfig.from_dict({"field": {"p": 3}, "radii": ["3^-5/4"]})
    with pytest.raises(ConfigError):
        JobConfig.from_dict({"field": {"p": 3}, "radii": ["2^-1/4"]})


def test_bad_field_rejected():
    # the field's InvalidArgument is wrapped, naming the config key
    with pytest.raises(ConfigError, match="field: p = 4 is not prime"):
        JobConfig.from_dict({"field": {"p": 4}})


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        JobConfig.from_dict({"suites": ["nonsense"]})


def _pro2_job(level):
    return {"field": {"p": 2}, "group": "heisenberg2", "radii": ["2^-1/2"],
            "suites": ["pro2"], "options": {"pro2_level": level}}


def test_level_7_pro2_sweep_runs_at_load(tmp_path, capsys):
    """Level 7 on heisenberg2 covers 1,455,168 pairs in 15 step-pair
    records; no pair count is refused."""
    path = tmp_path / "pro2.json"
    path.write_text(json.dumps(_pro2_job(7)))
    assert main(["run", "--config", str(path)]) == 0
    assert "# summary: 15 passed, 0 failed" in capsys.readouterr().out


def test_level_7_pro2_sweep_runs_on_suite_override(tmp_path, capsys):
    data = {**_pro2_job(7), "suites": []}
    path = tmp_path / "pro2.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--suite", "pro2"]) == 0
    assert "# summary: 15 passed, 0 failed" in capsys.readouterr().out


@pytest.mark.parametrize("job", [
    {"field": {"p": 2}, "group": "abelian(4)", "suites": ["pro2"]},
    {"field": {"p": 2, "f": 2}, "group": "o-additive(2)", "suites": ["pro2"]},
], ids=["abelian(4)", "o-additive(2)-Q4"])
def test_pro2_sweep_on_dimension_four_at_the_default_level(tmp_path, capsys, job):
    """d = 4 at the default level 5 sweeps 205,056 pairs in 6 records."""
    path = tmp_path / "pro2.json"
    path.write_text(json.dumps(job))
    assert main(["run", "--config", str(path)]) == 0
    assert "# summary: 6 passed, 0 failed" in capsys.readouterr().out


def _regseq_job(group, suites):
    """A group over F_81: o-additive(d) has (4 - 1) * d kernel symbols."""
    return {"field": {"p": 3, "f": 4, "precision": 12}, "group": group,
            "truncation": 4, "radii": ["3^-2/3"], "suites": suites}


def _assert_nine_symbols_certified(out):
    assert "regular sequence certificate at h = 1  expected=all orderings computed=True" in out
    assert "# summary: 4 passed, 0 failed" in out


def test_nine_symbol_family_passes_grading_at_load(tmp_path, capsys):
    """o-additive(3) over F_81: nine kernel symbols in twelve variables, one
    exact certificate for every ordering; no family size is refused."""
    path = tmp_path / "f81.json"
    path.write_text(json.dumps(_regseq_job("o-additive(3)", ["grading"])))
    assert main(["run", "--config", str(path)]) == 0
    _assert_nine_symbols_certified(capsys.readouterr().out)


def test_nine_symbol_family_passes_grading_on_suite_override(tmp_path, capsys):
    path = tmp_path / "f81.json"
    path.write_text(json.dumps(_regseq_job("o-additive(3)", [])))
    assert main(["run", "--config", str(path), "--suite", "grading"]) == 0
    _assert_nine_symbols_certified(capsys.readouterr().out)


def _big_residue_job(suites):
    """Q_2 extended by degree 19: its residue field F_524288 has 2^19
    elements."""
    return {"field": {"p": 2, "f": 19, "precision": 4}, "group": "abelian(1)",
            "truncation": 2, "radii": ["2^-1/2"], "suites": suites}


def test_oversized_residue_field_refused_at_load(tmp_path, capsys):
    """Not refused any more: no suite bounds q, so norms, symbols, towers and
    grading all run over F_(2^19), above the 2^18 that residue tables once
    allowed."""
    path = tmp_path / "f2_19.json"
    path.write_text(json.dumps(_big_residue_job(["norms", "symbols", "towers", "grading"])))
    assert main(["run", "--config", str(path)]) == 0
    assert "# summary: 10 passed, 0 failed" in capsys.readouterr().out


def test_oversized_residue_field_is_a_config_error():
    """Not any more: F_(2^19) loads with every residue suite, and a config
    error over it names a faulty key, not the size of k."""
    config = JobConfig.from_dict(_big_residue_job(["symbols", "quotient", "towers", "grading"]))
    assert config.field.residue_field.order == 2**19
    with pytest.raises(ConfigError, match=re.escape("suites: unknown suite 'tower'")):
        JobConfig.from_dict(_big_residue_job(["tower"]))


@pytest.mark.parametrize("suite", ["symbols", "quotient", "towers", "grading"])
def test_oversized_residue_field_refused_on_suite_override(tmp_path, capsys, suite):
    """Not refused any more: ``run --suite`` puts a residue suite on an
    F_(2^19) config, and it runs with no record failed."""
    path = tmp_path / "f2_19.json"
    path.write_text(json.dumps(_big_residue_job(["pvaluation"])))
    assert main(["run", "--config", str(path), "--suite", suite]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert re.search(r"^# summary: [1-9]\d* passed, 0 failed$", out, re.MULTILINE)


@pytest.mark.parametrize("level", [0, 2.5, "5"])
def test_bad_pro2_level_rejected(level):
    with pytest.raises(ConfigError, match="pro2_level"):
        JobConfig.from_dict(_pro2_job(level))


@pytest.mark.parametrize("data, message", [
    ([1], "config: must be a JSON object"),
    ({"options": [1, 2]}, "options: must be an object"),
    ({"options": {"pairs": "x"}}, "options.pairs: must be an integer >= 1"),
    ({"options": {"trials": 0}}, "options.trials: must be an integer >= 1"),
    ({"options": {"regseq_cap": True}}, "options.regseq_cap: must be an integer >= 1"),
    ({"options": {"transfer_m": -1}}, "options.transfer_m: must be an integer >= 0"),
    ({"options": {"pairz": 5}}, "options.pairz: unknown option"),
    ({"truncation": True}, "truncation: must be an integer >= 1"),
    ({"residual_precision": 2.0}, "residual_precision: must be an integer >= 1"),
    ({"suites": "norms"}, "suites: must be a list of suite names"),
    ({"suites": [["norms"]]}, "suites: unknown suite ['norms']"),
    ({"group": 3}, "group: must be a built-in group name"),
    ({"radii": 3}, "radii: must be a list of radius literals"),
    ({"radii": None}, "radii: must be a list of radius literals"),
    ({"radii": [3]}, "radii[0]: must be a radius literal like 3^-1/2"),
    ({"radii": ["3^-1/2", "3^-1"]}, "radii[1]: radius exponent 1/1 outside (0, 1)"),
    ({"seed": True}, "seed: must be an integer"),
    ({"field": 3}, "field: must be an object"),
    ({"field": {"p": "3"}}, "field.p: must be an integer >= 2"),
    ({"field": {"p": 3, "precision": True}}, "field.precision: must be an integer >= 1"),
    ({"field": {"p": 3, "e": True}}, "field.e: must be an integer >= 1"),
], ids=["top-level-list", "options-list", "option-string", "option-zero", "option-bool",
        "transfer-negative", "option-unknown", "truncation-bool", "precision-float",
        "suites-string", "suite-list", "group-int", "radii-int", "radii-null", "radius-int",
        "radius-out-of-range", "seed-bool", "field-int", "field-p-string",
        "field-precision-bool", "field-e-bool"])
def test_bad_config_exits_two_naming_the_key(tmp_path, capsys, data, message):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(ConfigError, match=re.escape(message)):
        JobConfig.from_dict(data)


def test_run_echoes_its_suite_and_seed_overrides(tmp_path, capsys):
    """``run --suite`` and ``--seed`` replace the config's keys before the
    config checks them, so the report echoes what ran; an unknown suite is
    refused by the config's one check."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"suites": ["norms", "symbols"], "seed": 3,
                                "options": {"pairs": 4}}))
    assert main(["run", "--config", str(path), "--suite", "pvaluation", "--seed", "5"]) == 0
    echo = json.loads(capsys.readouterr().out.splitlines()[0].removeprefix("# config: "))
    assert (echo["suites"], echo["seed"]) == (["pvaluation"], 5)
    assert main(["run", "--config", str(path), "--suite", "nope"]) == 2
    assert capsys.readouterr().err == "error: suites: unknown suite 'nope'\n"


def test_transfer_m_zero_is_accepted():
    assert JobConfig.from_dict({"options": {"transfer_m": 0}}).options["transfer_m"] == 0


def test_reports_byte_identical(base_config):
    cfg1 = JobConfig.from_file(base_config)
    cfg2 = JobConfig.from_file(base_config)
    assert run_suite(cfg1).to_text() == run_suite(cfg2).to_text()
    assert run_suite(cfg1).to_json() == run_suite(cfg2).to_json()


def test_structured_output(base_config, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main([
        "run", "--config", str(base_config), "--format", "structured",
        "--out", str(out), "--suite", "pvaluation",
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["failed"] == 0
    assert all(rec["elapsed_ms"] is None for rec in payload["records"])
    # a run that writes files emits both forms
    assert (tmp_path / "report.json.txt").read_text().startswith("# config:")


def test_timing_fills_elapsed_ms(base_config, capsys):
    assert main(["run", "--config", str(base_config), "--format", "structured",
                 "--suite", "pvaluation", "--timing"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["records"]
    assert all(rec["elapsed_ms"] > 0 for rec in payload["records"])


def test_unexpected_exception_becomes_failing_record(base_config, capsys, monkeypatch):
    from padicdist import suites

    def boom():
        raise ValueError("not a library error")

    def crashing(env):
        return [suites._record(env, "pvaluation", "crashing check", boom)]

    monkeypatch.setitem(suites.SUITES, "pvaluation", crashing)
    assert main(["run", "--config", str(base_config), "--suite", "pvaluation"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] pvaluation: crashing check" in out
    assert "computed=ValueError: not a library error" in out
    assert "# summary: 0 passed, 1 failed" in out


def test_norm_command(capsys):
    assert main(["dist", "norm", "-r", "3^-1/4", "p*b1^2", "--p", "3"]) == 0
    assert capsys.readouterr().out.strip() == "exponent 3/2"


def test_mul_command(capsys):
    assert main(["dist", "mul", "b1", "b1", "--p", "3"]) == 0
    assert capsys.readouterr().out.strip() == "b1^2"


def test_symbol_command(capsys):
    assert main(["dist", "symbol", "-r", "2^-1/6", "log(1+b1)", "--p", "2"]) == 0
    assert capsys.readouterr().out.strip() == "e0^-2 * X1^4"


def test_parse_error_exit_code(capsys):
    assert main(["dist", "norm", "-r", "3^-1/4", "$$bad$$", "--p", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_quotient_commands(capsys):
    assert main(["quotient", "norm", "-r", "3^-2/3", "b21"]) == 0
    assert capsys.readouterr().out.strip() == "exponent 2/3"
    assert main(["quotient", "check", "-r", "3^-2/3", "b11 + p*b21"]) == 0


def test_quotient_canonicalize_output(capsys):
    """The canonical form of b21 at N = 8, M' = 2: the binomial series of
    (1 + b11)^w - 1, four levels and 74 steps."""
    assert main(["quotient", "canonicalize", "-r", "3^-2/3", "b21"]) == 0
    assert capsys.readouterr().out == (
        "w * b11 + (-1/2 + -1/2*w) * b11^2 + (1/4 + 2/3*w) * b11^3"
        " + (-11/12 + -3/4*w) * b11^4 + (5/8 + 13/12*w) * b11^5"
        " + (-33/80 + -239/360*w) * b11^6 + (7/12 + 239/126*w) * b11^7"
        " + (-163/420 + -16627/15120*w) * b11^8\n"
        "residual <= p^-(2); passes 4, steps 74\n"
    )


def test_towers_commands(capsys):
    assert main(["towers", "cosets", "--p", "3"] if False else
                ["towers", "cosets", "-m", "1"]) == 0
    assert main(["towers", "restrict", "-r", "3^-1/8", "-m", "1", "--samples", "4"]) == 0


def test_failing_record_carries_repro():
    from padicdist.report import CheckRecord

    rec = CheckRecord("norms", "demo", False, "1", "2",
                      repro="padicdist run --suite norms --seed 7")
    assert "repro: padicdist run --suite norms --seed 7" in rec.line()
    ok = CheckRecord("norms", "demo", True, "1", "1", repro="x")
    assert "repro" not in ok.line()


def test_all_suites_on_lgroup(tmp_path):
    data = {
        "field": {"p": 3, "f": 2, "precision": 20},
        "group": "o-additive(1)",
        "truncation": 8,
        "residual_precision": 2,
        "radii": ["3^-2/3", "3^-1/8"],
        "suites": ["pvaluation", "pro2", "norms", "symbols",
                   "quotient", "towers", "grading"],
        "seed": 3,
        "options": {"pairs": 6, "trials": 5, "transfer_m": 1, "regseq_cap": 5},
    }
    cfg = JobConfig.from_dict(data)
    report = run_suite(cfg)
    assert report.passed, report.to_text()


def test_grading_suite_on_ramified_lgroup():
    """v_2 = pi over e = 2: the relations and the elimination image drop
    the vbar_2 = 0 terms, and every grading record passes."""
    cfg = JobConfig.from_dict({
        "field": {"p": 3, "e": 2, "precision": 24},
        "group": "o-additive(1)",
        "radii": ["3^-2/3"],
        "suites": ["grading"],
        "options": {"trials": 6},
    })
    report = run_suite(cfg)
    assert report.passed, report.to_text()


def test_sc_cache_flag(tmp_path, base_config):
    """A heisenberg job writes its table to the cache directory; an abelian
    job, whose rows have a closed form, writes none."""
    heis = tmp_path / "heis.json"
    heis.write_text(json.dumps({**json.loads(base_config.read_text()),
                                "group": "heisenberg", "truncation": 4}))
    for config, written in ((base_config, False), (heis, True)):
        cache = tmp_path / f"cache-{config.stem}"
        assert main([
            "run", "--config", str(config), "--suite", "norms",
            "--sc-cache", str(cache), "--out", str(tmp_path / "r.txt"),
        ]) == 0
        assert bool(list(cache.glob("sc-*.json"))) == written


def test_towers_orth_matches_suite_record(tmp_path, capsys):
    data = {
        "field": {"p": 3, "precision": 20},
        "group": "heisenberg",
        "truncation": 4,
        "radii": ["3^-1/4"],
        "suites": ["towers"],
        "seed": 5,
        "options": {"trials": 4},
    }
    path = tmp_path / "orth.json"
    path.write_text(json.dumps(data))
    rec = next(r for r in run_suite(JobConfig.from_dict(data)).records
               if r.name == "orthogonal basis b'^a b^b")
    size = int(rec.computed.split()[0])
    assert main(["towers", "orth", "-r", "3^-1/4", "--samples", "4",
                 "--config", str(path)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == f"orthogonal system of {size} elements; basis = True"


def _python_m_padicdist(*argv):
    src = Path(padicdist.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "padicdist", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def test_python_m_padicdist(base_config):
    proc = _python_m_padicdist("run", "--config", str(base_config), "--suite", "pvaluation")
    assert proc.returncode == 0, proc.stderr
    assert "# summary:" in proc.stdout


@pytest.mark.parametrize("argv, message", [
    (["towers", "restrict"], "towers restrict needs -r RADIUS"),
    (["towers", "orth"], "towers orth needs -r RADIUS"),
    (["towers", "transfer"], "towers transfer needs -r RADIUS"),
    (["dist", "norm", "b1", "--p", "3"], "dist norm needs -r RADIUS"),
    (["dist", "mul", "b1", "--p", "3"], "dist mul needs two expressions"),
    (["dist", "mul", "b1", "b1", "b1", "--p", "3"], "dist mul needs two expressions"),
    (["dist", "norm", "b1", "b2", "-r", "3^-1/2", "--p", "3"], "dist norm needs one expression"),
    (["dist", "symbol", "-r", "3^-1/2", "b1", "garbage", "--p", "3"],
     "dist symbol needs one expression"),
    (["towers", "restrict", "-r", "3^-1/8", "--samples", "0"], "--samples must be at least 1"),
    (["towers", "orth", "-r", "3^-1/4", "--samples", "-3"], "--samples must be at least 1"),
], ids=["restrict", "orth", "transfer", "norm", "mul-one", "mul-three", "norm-two",
        "symbol-two", "samples-zero", "samples-negative"])
def test_usage_errors_exit_two_without_traceback(argv, message):
    proc = _python_m_padicdist(*argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage:") and message in proc.stderr


@pytest.mark.parametrize("argv, message", [
    (["towers", "restrict", "-r", "3^-1/8", "-m", "-1"], "the step m = -1 must be >= 0"),
    (["towers", "orth", "-r", "3^-1/4", "-m", "-1"], "the step m = -1 must be >= 0"),
    (["towers", "cosets", "-m", "-1"], "the step m = -1 must be >= 0"),
    (["towers", "transfer", "-r", "3^-2/3", "-m", "-1"], "the step m = -1 must be >= 0"),
    (["dist", "mul", "1/0", "b1", "--p", "3"], "zero denominator (at position 2)"),
    (["dist", "norm", "log(1+b9)", "-r", "3^-1/4"], "unknown generator 'b9' (at position 6)"),
], ids=["restrict", "orth", "cosets", "transfer", "zero-denominator", "log-unknown-label"])
def test_bad_input_exits_two_without_traceback(argv, message):
    proc = _python_m_padicdist(*argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and message in proc.stderr


def test_bij_record_sizes_its_truncation(tmp_path, capsys):
    """On o-additive(2) over F_9 at N = 6 the idempotence check of the b_ij
    record overflows the truncation; the record reruns at the N that
    canonicalize names (7) and passes."""
    data = {
        "field": {"p": 3, "f": 2, "precision": 24},
        "group": "o-additive(2)",
        "truncation": 6,
        "residual_precision": 2,
        "radii": ["3^-2/3"],
        "suites": ["quotient"],
        "seed": 1,
    }
    path = tmp_path / "oadd2.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] quotient: b_ij reduces to (1 + b_1j)^(v_i) - 1 within p^-M'  expected= " \
        "computed=every b_ij within p^-2, idempotent at N = 7" in out


@pytest.mark.parametrize("N", [3, 4, 5])
def test_quotient_suite_passes_below_the_smoke_degree(N):
    """Below N = 6 the smoke test draws lifts of degree <= N // 2, so each
    product stays within the truncation, and the b_ij record reruns at
    each truncation that canonicalize names until the reduction fits."""
    for seed in range(3):
        report = run_suite(JobConfig.from_dict({
            "field": {"p": 3, "f": 2, "precision": 20},
            "group": "o-additive(1)",
            "truncation": N,
            "residual_precision": 2,
            "radii": ["3^-2/3"],
            "suites": ["quotient"],
            "seed": seed,
        }))
        assert report.passed, report.to_text()


@pytest.mark.parametrize("f", [1, 2])
def test_bij_record_passes_over_ramified_fields(f):
    """Over e = 2, v_2 = pi has residue 0: the record compares the whole
    canonical form of b_i1 with (1 + b_11)^(v_i) - 1, not its leading
    residue with vbar_i."""
    job = {"field": {"p": 3, "e": 2, "f": f, "precision": 24}, "group": "o-additive(1)",
           "truncation": 6, "residual_precision": 2, "radii": ["3^-2/3"],
           "suites": ["quotient"], "seed": 0}
    report = run_suite(JobConfig.from_dict(job))
    [record] = [rec for rec in report.records if rec.name.startswith("b_ij reduces")]
    assert record.passed, record.computed
    assert report.passed, report.to_text()


_PINNED_SUITES = ["pvaluation", "norms", "symbols", "quotient", "towers", "grading"]
# sha256 of the default text and structured reports; a change to either
# means the library computes or prints something different for these jobs
_PINNED_JOBS = {
    "o-additive(1) over F_9": (
        {"field": {"p": 3, "f": 2, "precision": 24}, "group": "o-additive(1)",
         "truncation": 8, "residual_precision": 2, "radii": ["3^-1/4", "3^-2/3"]},
        "8a4c9f7c716e9dd3ca2f91ddffd0455735ceb79b4a18ce18a6b6e8de72bd4e90",
        "1338ce9f340d988b15e5977ebdcff94750c2a2d0caa2f78d2bb715af108bf826",
    ),
    "abelian(2) over e = f = 2 above Q_5": (
        {"field": {"p": 5, "e": 2, "f": 2, "precision": 24}, "group": "abelian(2)",
         "truncation": 6, "residual_precision": 2, "radii": ["5^-1/8", "5^-1/2"]},
        "fa34063c6fc0f6be151f8d7e7415d84600733e8bb5c23d02a89786e996d1007c",
        "ccb1a10819243b57695836b8ccac0fbdc9f1b0549f8f5aef7581bd5993acc22d",
    ),
    # the first pinned L-group over a degree-4 K: restriction reads every
    # product over the v-basis, and K inverts, by the exact Q solver
    "o-additive(1) over e = f = 2 above Q_3": (
        {"field": {"p": 3, "e": 2, "f": 2, "precision": 24}, "group": "o-additive(1)",
         "truncation": 6, "residual_precision": 2, "radii": ["3^-2/3", "3^-1/4"]},
        "323ba3dd10884b510c9c54983634204317dc835ca4d5e4b41814cebbf6b9f0da",
        "e15b93d20e6fe25403eaadad23395c7ae2e98d449598cf64d0df03da07ab85db",
    ),
}


@pytest.mark.parametrize("name", list(_PINNED_JOBS))
def test_default_reports_pinned(name):
    job, text_sha, structured_sha = _PINNED_JOBS[name]
    report = run_suite(JobConfig.from_dict({**job, "suites": _PINNED_SUITES, "seed": 0}))
    assert report.passed, report.to_text()
    assert hashlib.sha256(report.to_text().encode()).hexdigest() == text_sha
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == structured_sha


def test_field_precision_is_only_echoed():
    """``field.precision`` reaches no computation: two configs that differ
    only in it (1 and 24) build equal fields, and their reports differ
    only in the ``# config:`` line that echoes it."""
    job, _, _ = _PINNED_JOBS["o-additive(1) over F_9"]
    configs = [
        JobConfig.from_dict({**job, "field": {**job["field"], "precision": m},
                             "suites": _PINNED_SUITES, "seed": 0})
        for m in (1, 24)
    ]
    assert configs[0].field == configs[1].field
    assert hash(configs[0].field) == hash(configs[1].field)
    reports = [run_suite(config) for config in configs]
    texts = [report.to_text().splitlines() for report in reports]
    assert len(texts[0]) == len(texts[1])
    differ = [pair for pair in zip(*texts) if pair[0] != pair[1]]
    assert len(differ) == 1 and all(line.startswith("# config: ") for line in differ[0])
    echoes = [json.loads(line[len("# config: "):]) for line in differ[0]]
    assert [echo["field"]["precision"] for echo in echoes] == [1, 24]
    structured = [json.loads(report.to_json()) for report in reports]
    assert [s.pop("config") for s in structured] == echoes
    assert structured[0] == structured[1]


# A nonabelian table: ``padicdist run --sc-cache`` builds and saves it on
# the cold run and loads it on the warm one, which leaves the file as it
# is; both reports are pinned.
_PINNED_HEISENBERG = (
    {"field": {"p": 3, "f": 2, "precision": 24}, "group": "heisenberg",
     "truncation": 4, "residual_precision": 2, "radii": ["3^-1/4", "3^-2/3"],
     "suites": _PINNED_SUITES, "seed": 0},
    "7c8a540d5920a244d02c32ad1c6472971215a3a755029ed350890402b919d28e",
    "12d80614d214cc2c9374d29cf179c8b4d70b79cb30bc6afdd2f2247bf6761978",
)


# The pro-2 sweep on heisenberg2: every pair of the 13,376 in the level-5
# windows is checked, and the report is pinned as the jobs above are.
_PINNED_PRO2 = (
    {"field": {"p": 2, "precision": 24}, "group": "heisenberg2", "truncation": 6,
     "radii": ["2^-1/4"], "suites": ["pvaluation", "pro2"], "seed": 0,
     "options": {"pairs": 60, "pro2_level": 5}},
    "c47950ff3b92e5f50e437fe78116309405cd9ecab57875e9017428e7a52182a4",
    "602fe2606f605edaa82d189c91955523cf652495fa8f334d04ec741363170dd9",
)


def test_pro2_report_pinned():
    job, text_sha, structured_sha = _PINNED_PRO2
    report = run_suite(JobConfig.from_dict(job))
    assert report.passed, report.to_text()
    assert hashlib.sha256(report.to_text().encode()).hexdigest() == text_sha
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == structured_sha
    sweep = [int(rec.computed) for rec in report.records if rec.suite == "pro2"]
    assert sum(sweep) == 13_376


def test_nonabelian_report_pinned_cold_and_warm(tmp_path, monkeypatch):
    job, text_sha, structured_sha = _PINNED_HEISENBERG
    config = tmp_path / "heis.json"
    config.write_text(json.dumps(job))
    cache, out = tmp_path / "cache", tmp_path / "report.txt"
    saves = []
    save = StructureConstants.save
    monkeypatch.setattr(StructureConstants, "save", lambda sc: saves.append(1) or save(sc))
    files, counts = [], []
    for run in ("cold", "warm"):
        saves.clear()
        assert main(["run", "--config", str(config), "--sc-cache", str(cache),
                     "--out", str(out)]) == 0, run
        assert hashlib.sha256(out.read_bytes()).hexdigest() == text_sha, run
        structured = Path(f"{out}.json").read_bytes()
        assert hashlib.sha256(structured).hexdigest() == structured_sha, run
        [table] = cache.glob("sc-*.json")
        files.append(table.read_bytes())
        counts.append(len(saves))
    assert counts[0] >= 1 and counts[1] == 0, counts
    assert files[0] == files[1]
