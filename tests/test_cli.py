import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from bmwfusion import BmwError, DomainMismatch, build_context

CLI = [sys.executable, "-m", "bmwfusion.cli"]
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
# what every CLI subprocess adds to its environment: BMWF_CACHE, the
# session's shared cache directory (``shared_cache``)
SHARED_ENV = {}
# the environment of a CLI run with no cache
NO_CACHE = {"BMWF_CACHE": ""}


@pytest.fixture(scope="session", autouse=True)
def shared_cache(tmp_path_factory):
    """One cache directory for the CLI subprocesses of the session, so
    each context they use is built cold once.  A test whose subject is the
    cache, or cold against warm behaviour, passes its own --cache-dir, or
    ``NO_CACHE`` for a run with no cache."""
    SHARED_ENV["BMWF_CACHE"] = str(tmp_path_factory.mktemp("cli-cache"))


def cli_env(env=None):
    """The environment of a CLI subprocess that imports this checkout's
    ``src`` and shares the session's cache, updated by ``env``."""
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    full_env.update(SHARED_ENV)
    full_env.update(env or {})
    return full_env


def run_cli(*args, env=None):
    """The CLI in a subprocess that imports this checkout's ``src``."""
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=cli_env(env))


def test_tableaux_command():
    r = run_cli("tableaux", "--n", "2", "--contents", "all", "--omega", "5")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["count"] == 3
    rows = {row["tableau"]: row for row in data["tableaux"]}
    assert rows["1;2"]["quantum"] == ["1", "36/25"]
    assert rows["1;2"]["classical"] == ["2", "3"]
    assert rows["1;2"]["t_classical"] == ["2", "1"]


def test_params_suggest():
    r = run_cli("params", "suggest", "--n", "5")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["certified_n"] == 5


def test_idempotents_and_exit_codes(tmp_path):
    out = tmp_path / "idem.json"
    r = run_cli("idempotents", "--n", "2", "--q", "6/5", "--nu", "7/3",
                "--out", str(out))
    assert r.returncode == 0
    data = json.loads(out.read_text())
    assert len(data["records"]) == 3
    assert data["system"] == {"orthogonal": True, "complete": True}
    assert all(all(rec["verified"].values()) for rec in data["records"])


@pytest.mark.parametrize("cmd", ["tableaux", "idempotents"])
def test_out_into_a_missing_directory_exit_2(cmd, tmp_path):
    r = run_cli(cmd, "--n", "2", "--out", str(tmp_path / "missing" / "x.json"))
    assert r.returncode == 2
    assert json.loads(r.stderr.splitlines()[-1])["error"] == "BAD_INPUT"
    assert "Traceback" not in r.stderr


def test_nongeneric_exit_2():
    r = run_cli("idempotents", "--n", "2", "--q", "1/1", "--nu", "7/3")
    assert r.returncode == 2
    err = json.loads(r.stderr)
    assert err["error"] == "NOT_GENERIC"


def test_verify_relations_suite():
    r = run_cli("verify", "--suite", "relations", "--n", "3")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["pass"] and data["suites"]["relations"]["failed"] == 0


def test_closed_stdout_exits_3_without_a_traceback():
    """``bmwf verify ... | head -n 1`` ended in a BrokenPipeError
    traceback: here the reader closes the pipe before the payload is
    written, while the child still imports and builds."""
    proc = subprocess.Popen(CLI + ["verify", "--suite", "relations",
                                   "--n", "3"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=cli_env())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 3
    assert "Traceback" not in err
    assert json.loads(err.splitlines()[-1])["error"] == "INTERNAL"


def test_verify_contraction_suite():
    r = run_cli("verify", "--suite", "contraction", "--n", "2")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["suites"]["contraction"]["oracle"]["ok"]


def test_symmetrizers_command():
    r = run_cli("symmetrizers", "--n", "3")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["symmetrizer"]["forms_agree"]
    assert data["antisymmetrizer"]["forms_agree"]


def test_export_jm():
    r = run_cli("export", "--n", "3", "--kind", "jm", "--index", "2")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["algebra"] == "bmw"


def test_determinism_and_cache(tmp_path):
    cache = tmp_path / "cache"
    args = ("idempotents", "--n", "3", "--seed", "0",
            "--cache-dir", str(cache))
    cold = run_cli(*args)
    assert cold.returncode == 0
    warm = run_cli(*args)
    assert warm.returncode == 0
    assert cold.stdout == warm.stdout
    nocache = run_cli("idempotents", "--n", "3", "--seed", "0",
                      env=NO_CACHE)
    assert nocache.stdout == cold.stdout


def test_strand_cap_exit_2():
    r = run_cli("idempotents", "--n", "7")
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "CAP_EXCEEDED"


@pytest.mark.parametrize("args", [
    ("idempotents", "--n", "6"),
    ("params", "suggest", "--n", "6"),
], ids=["idempotents", "params-suggest"])
def test_n6_is_above_the_strand_cap(args):
    # n = 6 does not close at (2n-1)!! words; it fails before any build
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert json.loads(r.stderr)["error"] == "CAP_EXCEEDED"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_params_suggest_below_one_exit_2(n):
    r = run_cli("params", "suggest", "--n", n)
    assert r.returncode == 2
    assert r.stdout == ""
    assert json.loads(r.stderr)["error"] == "CAP_EXCEEDED"


@pytest.mark.parametrize("args", [
    ("idempotents",),
    ("verify",),
    ("tableaux",),
    ("symmetrizers",),
    ("export", "--kind", "jm"),
    ("export", "--kind", "idempotent", "--tableau", "1"),
], ids=["idempotents", "verify", "tableaux", "symmetrizers", "export-jm",
        "export-idempotent"])
def test_n0_is_below_the_strand_cap(args):
    # the strand count is checked before any other option
    r = run_cli(*args, "--n", "0")
    assert r.returncode == 2
    assert r.stdout == ""
    assert json.loads(r.stderr)["error"] == "CAP_EXCEEDED"


@pytest.mark.parametrize("args", [
    ("export", "--n", "2", "--kind", "jm", "--index", "2", "--q", "1/0"),
    ("export", "--n", "2", "--kind", "jm", "--index", "2", "--nu", "1/0"),
    ("tableaux", "--n", "2", "--contents", "t-classical", "--omega", "1/0"),
    ("export", "--n", "2", "--kind", "brauer-idempotent", "--tableau", "1;",
     "--omega", "1/0"),
    ("export", "--n", "2", "--kind", "hecke-idempotent", "--tableau", "1;2",
     "--c-param", "1/0"),
], ids=["q", "nu", "omega-tableaux", "omega-export", "c-param"])
def test_zero_denominator_exit_2(args):
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert json.loads(r.stderr)["error"] == "BAD_INPUT"


def test_hecke_family_pole_exit_2():
    # c_param c_a c_b = 1 on two contents of the tableau
    r = run_cli("export", "--n", "4", "--kind", "hecke-idempotent",
                "--tableau", "1;1,1;2,1;2,2", "--c-param", "1296/625")
    assert r.returncode == 2
    assert r.stdout == ""
    assert json.loads(r.stderr)["error"] == "NOT_GENERIC"


def test_export_jm_index_out_of_range_exit_2():
    r = run_cli("export", "--n", "3", "--kind", "jm", "--index", "9")
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "BAD_INPUT"


def test_export_idempotent_needs_tableau_exit_2():
    r = run_cli("export", "--n", "3", "--kind", "idempotent")
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "BAD_INPUT"


@pytest.mark.parametrize("tableau", ["bogus", "1;2", "1;2;1,1,1", ""])
def test_idempotents_unknown_tableau_exit_2(tableau):
    r = run_cli("idempotents", "--n", "3", "--tableau", tableau)
    assert r.returncode == 2
    assert r.stdout == ""
    assert json.loads(r.stderr)["error"] == "BAD_INPUT"


def test_verify_n1_runs_without_generators():
    r = run_cli("verify", "--n", "1")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["pass"]
    assert data["suites"]["baxterized"]["checked"] == 0


@pytest.mark.parametrize("args", [
    ("--kind", "hecke-idempotent", "--tableau", "1;2"),
    ("--kind", "idempotent", "--tableau", "1;2"),
    ("--kind", "brauer-idempotent", "--tableau", "1;2"),
    ("--kind", "idempotent", "--tableau", "1;2;1,1,1"),
], ids=["hecke-tableau-length", "idempotent-tableau-length",
        "brauer-tableau-length", "idempotent-not-up-down"])
def test_export_bad_input_exit_2(args):
    r = run_cli("export", "--n", "3", *args)
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "BAD_INPUT"


def test_domain_mismatch_exit_2(monkeypatch, capsys):
    from bmwfusion import cli

    def mismatch(*args, **kwargs):
        raise DomainMismatch("context of another algebra")

    monkeypatch.setattr(cli, "brauer_idempotent_via_contraction", mismatch)
    assert cli.main(["export", "--n", "2", "--kind", "brauer-idempotent",
                     "--tableau", "1;"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "DOMAIN_MISMATCH"


def test_reflection_suite_internal_error_exit_3(monkeypatch, capsys):
    # an error that every spectral draw would hit ends the suite with
    # exit 3 instead of drawing forever
    from bmwfusion import cli, fusion
    calls = []

    def annihilation_fails(*args, **kwargs):
        if calls:
            pytest.fail("the suite drew again after an internal error")
        calls.append(args)
        raise BmwError("m(y_j) != 0")

    monkeypatch.setattr(fusion, "L_operator", annihilation_fails)
    assert cli.main(["verify", "--suite", "reflection", "--n", "3"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "INTERNAL"


def test_baxterized_suite_internal_error_exit_3(monkeypatch, capsys):
    # only a pole skips a tuple; an internal error is not a pass
    from bmwfusion import cli

    def inverse_fails(*args, **kwargs):
        raise BmwError("T_i(u, v) T_i(v, u) != 1")

    monkeypatch.setattr(cli, "baxterized_T_inverse", inverse_fails)
    assert cli.main(["verify", "--suite", "baxterized", "--n", "3"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "INTERNAL"


def test_hecke_suite_internal_error_exit_3(monkeypatch, capsys):
    # only a c on a pole of the family is skipped
    from bmwfusion import cli
    family = cli.hecke_family_idempotent

    def fails_at_half(tab, c_param, *args):
        if c_param == Fraction(1, 2):
            raise BmwError("E(c) is not an idempotent")
        return family(tab, c_param, *args)

    monkeypatch.setattr(cli, "hecke_family_idempotent", fails_at_half)
    assert cli.main(["verify", "--suite", "hecke", "--n", "3"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "INTERNAL"


def test_rewrite_limit_exit_3(monkeypatch, capsys):
    # a cold build past the step cap names the word it was reducing, not
    # an intermediate word of its rewriting
    from bmwfusion import bmwcore, cli
    monkeypatch.delenv("BMWF_CACHE", raising=False)
    monkeypatch.setattr(bmwcore, "STEP_CAP", 3)
    assert cli.main(["idempotents", "--n", "3"]) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "REWRITE_LIMIT",
        "message": "step cap 3 exceeded reducing T2*K1*T2"}


def test_contraction_suite_internal_error_exit_3(monkeypatch, capsys):
    # only a block without a limit at the sampled point is skipped
    from bmwfusion import cli

    def block_fails(*args, **kwargs):
        raise BmwError("limit block check failed")

    monkeypatch.setattr(cli, "contraction_block_check", block_fails)
    assert cli.main(["verify", "--suite", "contraction", "--n", "2"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "INTERNAL"


def test_contraction_suite_skips_a_pole_of_a_limit(capsys):
    # seed 10 draws theta = (-1/6, 1/3) at omega = 7/3, where
    # th1 + th2 = omega/2 - 1: this ended in a ZeroDivisionError, exit 1
    from bmwfusion import cli
    assert cli.main(["verify", "--suite", "contraction", "--n", "2",
                     "--seed", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


@pytest.mark.parametrize("args,digest", [
    (("--n", "2", "--kind", "brauer-idempotent", "--tableau", "1;"),
     "dcaa7e84bb9c558c1a7fdf3dbba64c75d2f51d7d27ae6cfb53ce69dc97c78294"),
    (("--n", "3", "--kind", "hecke-idempotent", "--tableau", "1;1,1;2,1"),
     "1405a4f4bbb25169a61ac15937999b43c39b14ea02b5c327f9fccba5cdc7fdc9"),
    (("--n", "4", "--kind", "hecke-idempotent", "--tableau", "1;2;3;3,1",
      "--c-param", "1/2"),
     "a786411d93bfb777d1121c797e48fd0490ff9f037d175d1bdaf4a94523376755"),
], ids=["brauer", "hecke", "hecke-n4"])
def test_export_without_bmw_context(monkeypatch, capsys, args, digest):
    # these kinds never multiply in BMW_n, so no rational context is built
    from bmwfusion import cli

    def no_build(*args, **kwargs):
        pytest.fail("built a rational context the export does not use")

    monkeypatch.setattr(cli, "build_context", no_build)
    assert cli.main(["export", *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_unusable_cache_dir_is_skipped(tmp_path):
    # a regular file where the cache directory should be
    path = tmp_path / "F"
    path.write_text("")
    args = ("idempotents", "--n", "2")
    r = run_cli(*args, "--cache-dir", str(path))
    assert r.returncode == 0, r.stderr
    assert r.stdout == run_cli(*args, env=NO_CACHE).stdout


N5_TABLEAU = "1;2;2,1;2,1,1;2,1,1,1"
# at default_truncation(5) = 5 series terms; 8 terms print the same
N5_BRAUER_SHA256 = \
    "a028c228ba0b34f297682cd11e1554d0d395000ba77dc2776f554ae69236af1e"


def test_export_brauer_idempotent_n5_default_truncation(capsys):
    # the closure rounds over TruncLaurent at n = 5
    from bmwfusion import cli
    assert cli.main(["export", "--n", "5", "--kind", "brauer-idempotent",
                     "--tableau", N5_TABLEAU, "--omega", "5", "--regime",
                     "2"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == N5_BRAUER_SHA256


def test_export_brauer_idempotent_non_integer_omega(capsys):
    # series denominators from omega = 7/2 through the Laurent fold
    from bmwfusion import cli
    assert cli.main(["export", "--kind", "brauer-idempotent", "--n", "4",
                     "--tableau", "1;2;2,1;2,2", "--regime", "2",
                     "--omega", "7/2"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "4ddf13e2033dc9ac956eae86dbda9c9767896e67ff732f928ee7934b2c213128"


def test_export_brauer_idempotent_warm_cache(tmp_path):
    # the Laurent context is cached: the warm run loads it and prints the
    # same stdout
    from bmwfusion import AlgebraContext, laurent_params
    args = ("export", "--kind", "brauer-idempotent", "--n", "4", "--tableau",
            "1;2;2,1;2,2", "--regime", "1", "--omega", "5", "--cache-dir",
            str(tmp_path))
    cold = run_cli(*args)
    assert cold.returncode == 0, cold.stderr
    (path,) = tmp_path.iterdir()
    inode = path.stat().st_ino
    warm = run_cli(*args)
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout == cold.stdout
    assert path.stat().st_ino == inode, "the warm run rewrote the cache"
    ctx = AlgebraContext(4, laurent_params(1, 5, 4), cache_dir=str(tmp_path),
                         verify=False)
    assert ctx.stats["cache"] == "hit"


def test_export_rebuilds_an_edited_laurent_cache(tmp_path):
    # an edit that keeps every series in normal form passes the file's
    # format checks; the export builds its context verified, so the hit
    # fails the relation suite and is rebuilt (it used to exit 3)
    from bmwfusion import (AlgebraContext, NegativeValuation,
                           brauer_idempotent_via_contraction,
                           enumerate_tableaux, laurent_params)
    args = ("export", "--kind", "brauer-idempotent", "--n", "4", "--tableau",
            "1;2;2,1;2,2", "--regime", "1", "--omega", "5", "--cache-dir",
            str(tmp_path))
    cold = run_cli(*args)
    assert cold.returncode == 0, cold.stderr
    (path,) = tmp_path.iterdir()
    fresh = path.read_text()
    data = json.loads(fresh)
    # the constant term of the row of T1 * T1 (letter T1, basis word T1)
    # at the word 1, raised by 1
    val, _, den, nums = data["rows"][0][1][1][0][1]
    nums[-val] += den
    path.write_text(json.dumps(data))
    edited = AlgebraContext(4, laurent_params(1, 5, 4),
                            cache_dir=str(tmp_path), verify=False)
    assert edited.stats["cache"] == "hit"
    tab, = [t for t in enumerate_tableaux(4) if t.encode() == "1;2;2,1;2,2"]
    with pytest.raises(NegativeValuation):
        brauer_idempotent_via_contraction(tab, 1, 5, ctx=edited)
    warm = run_cli(*args)
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout == cold.stdout
    assert path.read_text() == fresh, "the edited file was not rewritten"


def test_broken_closure_plan_exit_3(monkeypatch, capsys):
    # a plan that does not replay fails the build; no search takes over
    from bmwfusion import bmwcore, cli
    monkeypatch.delenv("BMWF_CACHE", raising=False)
    toks = bmwcore.CLOSURE_PLANS[5].split()
    monkeypatch.setitem(bmwcore.CLOSURE_PLANS, 5, " ".join(toks[1:]))
    assert cli.main(["idempotents", "--n", "5", "--q", "6/5", "--nu", "7/3",
                     "--tableau", N5_TABLEAU]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    got = json.loads(err)
    assert got["error"] == "DIMENSION_MISMATCH"
    assert got["message"].startswith("closure plan entry ")


def _short_row_list(data):
    del data["rows"][0][-1]
    return data


def _index_outside_basis(data):
    data["rows"][1][0][1][0][0] = len(data["words"])
    return data


def _non_integer_numerator(data):
    data["rows"][1][0][1][0][1] = 0.5
    return data


def _zero_denominator(data):
    data["rows"][1][0][0] = 0
    return data


def _short_words(data):
    del data["words"][-1]
    return data


def _rows_object(data):
    # enumerate over these keys, while rows[k] was set, once raised a
    # RuntimeError outside the cache's except tuple
    data["rows"] = {"": 0}
    return data


@pytest.mark.parametrize("corrupt", [
    lambda data: [], _short_row_list, _index_outside_basis,
    _non_integer_numerator, _zero_denominator, _short_words, _rows_object],
    ids=["list", "short-row-list", "index-outside-basis",
         "non-integer-numerator", "zero-denominator", "short-words",
         "rows-object"])
def test_malformed_cache_is_a_miss(tmp_path, corrupt):
    args = ("idempotents", "--n", "2")
    cache = tmp_path / "cache"
    assert run_cli(*args, "--cache-dir", str(cache)).returncode == 0
    (path,) = cache.iterdir()
    good = json.loads(path.read_text())
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    # a copy, for the cache state of an in-process build
    spare = tmp_path / "spare"
    spare.mkdir()
    (spare / path.name).write_text(path.read_text())
    r = run_cli(*args, "--cache-dir", str(cache))
    assert r.returncode == 0, r.stderr
    assert r.stdout == run_cli(*args, env=NO_CACHE).stdout
    # the build rewrote the file
    assert json.loads(path.read_text()) == good

    def state():
        return build_context(2, q=Fraction(6, 5), nu=Fraction(7, 3),
                             cache_dir=str(spare)).stats["cache"]

    assert state() == "corrupt"
    assert state() == "hit"


@pytest.mark.parametrize("args,digest", [
    (("verify", "--suite", "all", "--n", "3"),
     "034ac17c3ced27c29a7578281ea4170d56bb6d2bb9674de31d155542a24867ff"),
    (("verify", "--suite", "reflection", "--n", "4"),
     "af7ebaa38e961b299acde19630b1d5fb4156133008a56380e2c0935b51eace37"),
    (("verify", "--suite", "hecke", "--n", "4"),
     "9ba284fdac92bc4d08f7b6e0c5e70c3d9015172cb9cd546071334f3afeb70e1a"),
], ids=["all-n3", "reflection-n4", "hecke-n4"])
def test_verify_stdout_pinned(args, digest):
    r = run_cli(*args)
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("method,digest", [
    ("jm", "a55293efdc7befd481601ed1709dc85b9717963da37893703c8a42992a3be882"),
    ("fusion",
     "959d9fa7419fda0ad06aa6290629b6aca64faffefffb51bb978d9ee2ae3afc55"),
])
def test_idempotents_stdout_pinned(method, digest):
    # the full system at (6/5, 7/3): records, flags and system checks
    r = run_cli("idempotents", "--n", "4", "--method", method)
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest
