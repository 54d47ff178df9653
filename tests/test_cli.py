import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import wishmom
from wishmom import montecarlo, wishart
from wishmom.cli import MOMENT_KINDS, main
from wishmom.matchgroup import matching_type_count
from wishmom.montecarlo import EntryProduct, Invariant, PowerTrace, RngSpec, TracePower, estimate
from wishmom.symcomb import partitions_of
from wishmom.validate import REL_TOL, entrywise_power_trace, golden_suite
from wishmom.weingarten import load_table, table_path, table_to_json, weingarten_values, zonal_spherical
from wishmom.wishart import MomentSpec, WishartParams, inverse_moment, moment, trace_power_moment


@pytest.fixture
def sigma_csv(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("2.0,0.3\n0.3,1.5\n")
    return str(path)


def _fresh(code: str, *args: str, cwd=None) -> tuple[int, str, str]:
    """Exit code, stdout and stderr (newlines as written) of ``python -c code
    args`` in a fresh interpreter that imports this wishmom."""
    src = str(Path(wishmom.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, env=env, cwd=cwd)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def test_cli_import_skips_heavy_modules():
    # scipy is a test-only dependency and numba is not used at all
    code = "import sys, wishmom.cli; print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'numba'}))"
    assert _fresh(code)[1].strip() == "[]"


# the package modules wishmom.cli defers; a deferred module that has run is
# a plain module again (reading its type does not run it)
DEFERRED = ("_kernels", "hafnian", "montecarlo", "validate", "wishart")
RAN = (
    "import sys, types; "
    f"print('modules ran:', [m for m in {DEFERRED!r} if type(sys.modules.get('wishmom.' + m)) is types.ModuleType], file=sys.stderr)"
)
# cli.main in a fresh process; the last two lines of stderr say whether numpy
# was imported and which deferred modules ran
RUN_MAIN = (
    "import sys, wishmom.cli; code = wishmom.cli.main(sys.argv[1:]); "
    f"print('numpy ran:', 'numpy' in sys.modules, file=sys.stderr); {RAN}; sys.exit(code)"
)
TABLE = ["--n", "3", "--z", "5", "--cache-dir", "c"]
# the deferred modules each command runs: wg and table none, error exits
# included; haar and moment wishart; validate what its suite reads
NONE, WISHART = [], ["wishart"]


@pytest.mark.parametrize(
    "argv, prepare, code, numpy_runs, modules_run",
    [
        (["wg", "--n", "4", "--z=17/6"], None, 0, False, NONE),
        (["wg", "--n", "3", "--gamma", "4", "--format", "json"], None, 0, False, NONE),
        (["wg", "--n", "3", "--truncate", "5", "--format", "csv"], None, 0, False, NONE),
        (["haar", "--i", "1,1,2,2", "--j", "2,2,1,1", "--N", "5", "--format", "json"], None, 0, False, WISHART),
        (["table", "build", *TABLE], None, 0, False, NONE),
        (["table", "show", *TABLE, "--format", "json"], "built", 0, False, NONE),
        (["table", "list", "--cache-dir", "c"], "built", 0, False, NONE),
        (["wg", "--n", "3", "--z", "2"], None, 3, False, NONE),
        (["wg", "--n", "200", "--z", "3"], None, 2, False, NONE),
        (["table", "build", *TABLE], "directory", 2, False, NONE),
        (["moment", "--entries", "1,2,1,2", "--beta", "9", "--sigma", "s.csv"], None, 0, False, WISHART),
        (["moment", "--inverse", "--invariant", "2,1", "--beta", "9", "--sigma", "s.csv"], None, 0, True, WISHART),
        (["moment", "--entries", "1,1", "--beta", "9", "--sigma", "npd.csv"], None, 3, False, WISHART),
        (["validate", "golden", "--format", "json"], None, 0, False, ["validate", "wishart"]),
        (["moment", "--trace-power", "3", "--beta", "9", "--sigma", "s.csv"], None, 0, False, WISHART),
        (["moment", "--inverse", "--power-trace", "2,1", "--beta", "9", "--sigma", "s.csv", "--format", "json"], None, 0, False, WISHART),
        (["moment", "--entries", "1,1", "--beta", "9", "--sigma", "asym.csv"], None, 3, False, WISHART),
        (["moment", "--invariant", "2", "--beta", "9", "--sigma", "ragged.csv"], None, 2, False, WISHART),
        (["validate", "identities", "--n", "3"], None, 0, False, ["hafnian", "validate", "wishart"]),
        (["moment", "--entries", "1,1", "--beta", "1/4", "--sigma", "s.csv"], None, 3, False, WISHART),
        (["table", "build", "--n", "3", "--cache-dir", "c"], None, 2, False, NONE),
    ],
    ids=[
        "wg-z", "wg-gamma", "wg-truncate", "haar", "table-build", "table-show", "table-list",
        "wg-pole", "wg-past-the-cap", "table-build-onto-a-directory",
        "moment", "moment-inverse-invariant", "moment-not-pd", "validate-golden",
        "moment-trace-power", "moment-inverse-power-trace", "moment-not-symmetric", "moment-ragged-sigma",
        "validate-identities", "moment-inadmissible-beta", "table-build-without-z",
    ],
)
def test_fresh_cli_process_runs_numpy_only_for_moment_and_validate(tmp_path, monkeypatch, capsys, argv, prepare, code, numpy_runs, modules_run):
    # numpy runs only for moment --invariant (its power sums stay numpy's)
    # and validate montecarlo, which samples: the other moment kinds, every
    # error exit of moment and validate golden and identities are Python
    # throughout.  The same command runs in a fresh process and in this one
    # (numpy loaded), each in a directory of its own, so relative paths
    # print alike
    fresh_dir, here_dir = tmp_path / "fresh", tmp_path / "here"
    for d in (fresh_dir, here_dir):
        d.mkdir()
        (d / "s.csv").write_text("2.0,0.3\n0.3,1.5\n")
        (d / "npd.csv").write_text("1.0,2.0\n2.0,1.0\n")
        (d / "asym.csv").write_text("1.0,0.5\n0.2,1.0\n")
        (d / "ragged.csv").write_text("1.0,0.1\n0.1\n")
        if prepare == "built":
            monkeypatch.chdir(d)
            assert main(["table", "build", *TABLE]) == 0
        elif prepare == "directory":
            table_path(d / "c", 3, 5).mkdir(parents=True)
    capsys.readouterr()
    fresh_code, out, err = _fresh(RUN_MAIN, *argv, cwd=fresh_dir)
    *err, numpy_ran, modules_ran = err.splitlines(keepends=True)
    assert numpy_ran == f"numpy ran: {numpy_runs}\n"
    assert modules_ran == f"modules ran: {modules_run}\n"
    monkeypatch.chdir(here_dir)
    assert main(argv) == fresh_code == code
    assert capsys.readouterr() == (out, "".join(err))


@pytest.mark.parametrize(
    "argv",
    [["haar", "--i", "1,1,2,2", "--j", "2,2,1,1", "--N", "5"], ["moment", "--entries", "1,2,1,2", "--beta", "9", "--sigma", "s.csv"]],
    ids=["haar", "moment-entries"],
)
def test_exact_cli_process_imports_no_dataclasses(tmp_path, argv):
    # the modules a bare interpreter starts with, a site hook's included, do not count
    (tmp_path / "s.csv").write_text("2.0,0.3\n0.3,1.5\n")
    code = (
        "import sys; bare = set(sys.modules); import wishmom.cli; code = wishmom.cli.main(sys.argv[1:]); "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - bare))); sys.exit(code)"
    )
    rc, out, err = _fresh(code, *argv, cwd=tmp_path)
    assert rc == 0, err
    assert out.splitlines()[-1] == "[]"


def test_numpy_is_imported_where_arrays_are_made():
    # the exact modules bind no numpy, and a moment on sigma's rows makes no
    # array; the first read of sigma's ndarray does, and so does montecarlo,
    # which samples, on import
    exact = (
        "import sys, wishmom.wishart, wishmom.weingarten, wishmom.hafnian, wishmom.matchgroup, wishmom.symcomb\n"
        "from wishmom.wishart import MomentSpec, WishartParams, moment\n"
        "steps = ['numpy' in sys.modules]\n"
        "params = WishartParams(d=2, beta=9, sigma=[[2.0, 0.3], [0.3, 1.5]])\n"
        "moment(params, MomentSpec((1, 2, 2, 1)))\n"
        "steps.append('numpy' in sys.modules)\n"
        "params.sigma\n"
        "print(*steps, 'numpy' in sys.modules)"
    )
    assert _fresh(exact)[1] == "False False True\n"
    assert _fresh("import sys, wishmom.montecarlo; print('numpy' in sys.modules)")[1] == "True\n"


FIRST_IMPORT_IN_THREADS = """
import sys, threading
import wishmom.wishart as w
assert "numpy" not in sys.modules

def run():
    params = w.WishartParams(d=2, beta=6, sigma=[[2.0, 0.3], [0.3, 1.5]])
    s = [[1.0, 0.2], [0.2, 0.5]]
    return w.trace_product_moment(params, [s, s, s]), w.invariant_moment(params, (2, 1)), w.invariant_moment(params, (2, 1), True)

start, out = threading.Barrier(4), [None] * 4

def lane(i):
    start.wait()
    out[i] = run()

interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=lane, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
finally:
    sys.setswitchinterval(interval)
assert not any(t.is_alive() for t in threads)
print(out == [run()] * 4, "numpy" in sys.modules)
"""


def test_a_first_numpy_import_on_four_threads_gives_the_one_thread_result():
    # numpy is imported inside the functions that make arrays, so here four
    # threads make the process's first numpy import at once; a plain import
    # is safe on threads, where a lazy module's first read is not before
    # Python 3.12
    rc, out, err = _fresh(FIRST_IMPORT_IN_THREADS)
    assert rc == 0, err
    assert out == "True True\n"


# a threaded estimate right after the CLI import
FIRST_READ_IN_THREADS = {
    "estimate_haar": "estimate_haar([((1, 1), (1, 1))], 3, 2000, RngSpec(1), streams=2, threads={t})",
    "estimate": "estimate([EntryProduct((1, 2)), TracePower(2)], WishartParams(d=2, beta=6, sigma=[[2.0, 0.3], [0.3, 1.5]]), 2000, RngSpec(1), streams=2, threads={t})",
}


@pytest.mark.parametrize("call", list(FIRST_READ_IN_THREADS))
def test_threads_after_cli_import_give_the_one_thread_result(call):
    # after the CLI import, the package modules are lazy: montecarlo, and
    # with it wishart, _kernels and numpy, run on the first read of
    # montecarlo, right before the threaded estimate, whose lanes then build
    # their generators from real modules
    def run(first_import, threads):
        rc, out, err = _fresh(
            f"import {first_import}\n"
            f"{RAN}\n"
            "from wishmom.montecarlo import EntryProduct, RngSpec, TracePower, estimate, estimate_haar\n"
            "from wishmom.wishart import WishartParams\n"
            f"print(repr({FIRST_READ_IN_THREADS[call].format(t=threads)}))"
        )
        assert rc == 0, err
        return out, err

    (two, ran), (one, _) = run("wishmom.cli", 2), run("numpy", 1)
    assert ran == "modules ran: []\n"
    assert two == one


def test_cli_import_binds_every_module_the_recorder_wraps():
    # perfbench's Recorder.install wraps functions in these modules, and its
    # self-test compares the bindings of every wishmom module in sys.modules
    # before and after: each must be there after the CLI import, the deferred
    # ones unrun and set on the package
    code = (
        "import sys, types, wishmom, wishmom.cli; "
        "mods = ['_kernels', 'hafnian', 'matchgroup', 'montecarlo', 'validate', 'weingarten', 'wishart']; "
        "print([m for m in mods if sys.modules.get('wishmom.' + m) is not getattr(wishmom, m, None)], "
        f"[m for m in {DEFERRED!r} if type(sys.modules['wishmom.' + m]) is types.ModuleType])"
    )
    assert _fresh(code)[1] == "[] []\n"


def test_domain_error_is_one_class():
    # the CLI catches weingarten's; moment-not-pd and moment-inadmissible-beta
    # above exit 3 through it
    from wishmom import weingarten, wishart

    assert wishart.DomainError is weingarten.DomainError is montecarlo.DomainError


def test_wg_table_values(capsys):
    assert main(["wg", "--n", "2", "--z", "5"]) == 0
    out = capsys.readouterr().out
    assert "-1/140" in out and "3/70" in out


def test_wg_gamma_values(capsys):
    # --gamma alone picks the inverse-Wishart table
    assert main(["wg", "--n", "3", "--gamma", "4"]) == 0
    out = capsys.readouterr().out
    assert "1/1080" in out and "1/360" in out and "19/1080" in out
    assert out == "".join(f"{rho}: {v}\n" for rho, v in weingarten_values(3, gamma=4).items())
    assert main(["wg", "--n", "3", "--gamma", "4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["options"] == {"n": 3, "gamma": "4", "truncate": None}
    assert doc["results"] == [
        {"rho": list(rho), "value": {"num": str(v.numerator), "den": str(v.denominator)}}
        for rho, v in weingarten_values(3, gamma=4).items()
    ]


def test_wg_pole_exit_code(capsys):
    assert main(["wg", "--n", "2", "--gamma", "1"]) == 3
    assert "vanishes" in capsys.readouterr().err


def test_wg_truncated(capsys):
    assert main(["wg", "--n", "2", "--truncate", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("1/9") == 2


def test_wg_missing_point(capsys):
    # exactly one of --z, --gamma and --truncate; no table is printed
    for point in (
        [],
        ["--z", "5", "--gamma", "3"],
        ["--z", "5", "--truncate", "3"],
        ["--gamma", "3", "--truncate", "3"],
        ["--z", "5", "--gamma", "3", "--truncate", "3"],
    ):
        assert main(["wg", "--n", "2", *point]) == 2, point
        out, err = capsys.readouterr()
        assert out == "", point
        # the count of points is the library's check
        assert err == "error: give exactly one of z, gamma and N\n", point


@pytest.mark.parametrize("point", [["--z", "3"], ["--gamma", "3"], ["--truncate", "3"]])
def test_wg_far_past_the_cap_exits_without_enumerating(point, monkeypatch, capsys):
    # degree 200 has ~4e12 partitions; the table must reject it before listing them
    from wishmom import symcomb

    listed = symcomb.partitions_of

    def no_large_partitions(n):
        assert n <= 10, f"partitions_of({n}) listed"
        return listed(n)

    for name, module in list(sys.modules.items()):
        if name.startswith("wishmom") and getattr(module, "partitions_of", None) is listed:
            monkeypatch.setattr(module, "partitions_of", no_large_partitions)
    assert main(["wg", "--n", "200", *point]) == 2
    assert "degree <= 10 (pairs or points), got 200" in capsys.readouterr().err


def test_moment_invariant_far_past_the_cap_exits_without_enumerating(sigma_csv, monkeypatch, capsys):
    # before the degree check, the eigenvalue of degree 200 overflowed a float
    from wishmom import symcomb

    listed = symcomb.partitions_of

    def no_large_partitions(n):
        assert n <= 10, f"partitions_of({n}) listed"
        return listed(n)

    for name, module in list(sys.modules.items()):
        if name.startswith("wishmom") and getattr(module, "partitions_of", None) is listed:
            monkeypatch.setattr(module, "partitions_of", no_large_partitions)
    for kind in ("--invariant", "--power-trace"):
        for side in ([], ["--inverse"]):
            assert main(["moment", kind, "200", "--beta", "3", "--sigma", sigma_csv, *side]) == 2
            assert "degree <= 10 (pairs or points), got 200" in capsys.readouterr().err
    assert main(["moment", "--trace-power", "200", "--beta", "3", "--sigma", sigma_csv]) == 2


def test_degree5_moments_and_degree6_usage_error(sigma_csv, capsys):
    # haar lists the column matchings and stops at degree 5; the moments list
    # nothing and stop at degree 10
    assert main(["haar", "--i", ",".join("1" * 10), "--j", ",".join("1" * 10), "--N", "3"]) == 0
    assert "value: 1/11" in capsys.readouterr().out
    assert main(["moment", "--inverse", "--power-trace", "3,2", "--beta", "9", "--sigma", sigma_csv]) == 0
    assert main(["moment", "--trace-power", "5", "--beta", "9", "--sigma", sigma_csv]) == 0
    capsys.readouterr()
    assert main(["haar", "--i", ",".join("1" * 12), "--j", ",".join("1" * 12), "--N", "3"]) == 2
    assert capsys.readouterr().err == "error: routes that list words support 1 <= n <= 5, got 6\n"
    assert main(["moment", "--inverse", "--power-trace", "6,4", "--beta", "25/2", "--sigma", sigma_csv]) == 0
    assert main(["moment", "--trace-power", "10", "--beta", "9", "--sigma", sigma_csv]) == 0
    capsys.readouterr()
    assert main(["moment", "--power-trace", "6,5", "--beta", "9", "--sigma", sigma_csv]) == 2
    assert main(["moment", "--trace-power", "11", "--beta", "9", "--sigma", sigma_csv]) == 2
    capsys.readouterr()
    assert main(["moment", "--trace-power", "-1", "--beta", "9", "--sigma", sigma_csv]) == 2
    assert capsys.readouterr().err == "error: power must be an integer >= 0, got -1\n"


def _wg_output(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_wg_negative_rational_after_z(capsys):
    want = _wg_output(["wg", "--n", "2", "--z=-7/3"], capsys)
    assert _wg_output(["wg", "--n", "2", "--z", "-7/3"], capsys) == want
    assert "27/70" in want


def test_wg_negative_rational_after_gamma(capsys):
    want = _wg_output(["wg", "--n", "2", "--gamma=-7/3"], capsys)
    assert _wg_output(["wg", "--n", "2", "--gamma", "-7/3"], capsys) == want


def test_table_build_negative_rational_after_z(tmp_path, capsys):
    cache = str(tmp_path)
    assert main(["table", "build", "--n", "2", "--z", "-7/3", "--cache-dir", cache]) == 0
    assert "built:" in capsys.readouterr().out
    assert main(["table", "build", "--n", "2", "--z=-7/3", "--cache-dir", cache]) == 0
    assert "cache hit:" in capsys.readouterr().out


def test_wg_negative_integer_and_non_number_after_z(capsys):
    assert "1/280" in _wg_output(["wg", "--n", "2", "--z", "-7"], capsys)
    with pytest.raises(SystemExit) as exc:
        main(["wg", "--n", "2", "--z", "-x"])
    assert exc.value.code == 2


def test_wg_json_schema(capsys):
    assert main(["wg", "--n", "2", "--z", "5", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["command"] == "wg"
    assert doc["results"][0] == {"rho": [2], "value": {"num": "-1", "den": "140"}}


@pytest.mark.parametrize(
    "argv",
    [
        ["wg", "--n", "2", "--truncate", "1"],
        ["moment", "--trace-power", "2", "--beta", "3"],
        ["haar", "--i", "1,1", "--j", "2,2", "--N", "3"],
        ["validate", "identities", "--n", "1"],
        ["table", "build", "--n", "2", "--z", "5"],
        ["table", "show", "--n", "2", "--z", "5"],
        ["table", "list"],
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_every_json_report_config_is_command_options_version(tmp_path, sigma_csv, capsys, argv):
    if argv[0] == "moment":
        argv = [*argv, "--sigma", sigma_csv]
    if argv[0] == "table":
        argv = [*argv, "--cache-dir", str(tmp_path / "cache")]
    assert main([*argv, "--format", "json"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert list(config) == ["command", "options", "version"]
    assert config["command"] == ("-".join(argv[:2]) if argv[0] == "table" else argv[0])
    assert config["version"] == wishmom.__version__ and isinstance(config["options"], dict)


def test_moment_entries_matches_library(sigma_csv, capsys):
    assert main(["moment", "--entries", "1,2,1,2", "--beta", "3", "--sigma", sigma_csv]) == 0
    out = capsys.readouterr().out
    value = float(out.splitlines()[0].split(":")[1])
    params = WishartParams(d=2, beta=3, sigma=np.array([[2.0, 0.3], [0.3, 1.5]]))
    assert value == pytest.approx(moment(params, MomentSpec((1, 2, 1, 2))), rel=1e-12)


def test_moment_inverse_reports_regime(sigma_csv, capsys):
    assert main(["moment", "--inverse", "--entries", "1,1", "--beta", "4", "--sigma", sigma_csv]) == 0
    out = capsys.readouterr().out
    assert "gamma regime: standard" in out
    value = float(out.splitlines()[0].split(":")[1])
    params = WishartParams(d=2, beta=4, sigma=np.array([[2.0, 0.3], [0.3, 1.5]]))
    assert value == pytest.approx(inverse_moment(params, MomentSpec((1, 1), inverse=True)), rel=1e-12)


@pytest.mark.parametrize(
    "inverse, beta, sigma",
    [
        ([], "9", "2.0,0.3\n0.3,1.5\n"),
        (["--inverse"], "9", "2.0,0.3\n0.3,1.5\n"),
        # gamma = 1/2 - 2 = -3/2: the empty product needs no positive gamma, and has no regime
        (["--inverse"], "1/2", "2.0,0.3,0.1\n0.3,1.5,0.2\n0.1,0.2,1.0\n"),
    ],
    ids=["inverse0", "inverse1", "inverse2"],
)
def test_moment_trace_power_zero_is_one(tmp_path, capsys, inverse, beta, sigma):
    path = tmp_path / "s.csv"
    path.write_text(sigma)
    argv = ["moment", *inverse, "--trace-power", "0", "--beta", beta, "--sigma", str(path)]
    assert main([*argv, "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)["results"][0]
    assert (row["value"], row["gamma_regime"]) == (1.0, None)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("value: 1\n") and "regime" not in out


def test_moment_trace_power(sigma_csv, capsys):
    assert main(["moment", "--trace-power", "4", "--beta", "2", "--sigma", sigma_csv]) == 0
    value = float(capsys.readouterr().out.splitlines()[0].split(":")[1])
    params = WishartParams(d=2, beta=2, sigma=np.array([[2.0, 0.3], [0.3, 1.5]]))
    assert value == pytest.approx(trace_power_moment(params, 4), rel=1e-12)


@pytest.mark.parametrize("inverse", [[], ["--inverse"]])
def test_moment_trace_power_is_power_trace_of_ones(sigma_csv, capsys, inverse):
    reports = []
    for kind, value in (("--trace-power", "4"), ("--power-trace", "1,1,1,1")):
        assert main(["moment", *inverse, kind, value, "--beta", "9", "--sigma", sigma_csv, "--format", "json"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    tp, pt = reports
    assert tp["results"][0]["value"] == pt["results"][0]["value"]
    assert [r["formula"] for r in (tp["results"][0], pt["results"][0])] == ["trace-power-sum", "power-trace-sum"]
    options = ["sigma", "d", "beta", "kind", "inverse", "entries", "trace_power", "power_trace", "invariant"]
    assert list(tp["config"]["options"]) == list(pt["config"]["options"]) == options
    assert (tp["config"]["options"]["trace_power"], pt["config"]["options"]["power_trace"]) == (4, [1, 1, 1, 1])


# the descriptor class of each moment kind, and the value of its flag at
# degrees 1, 2 and 3, as the library reads it
KIND_ARGS = {
    "entries": (EntryProduct, [(1, 2), (1, 2, 3, 3), (1, 1, 2, 3, 2, 3)]),
    "trace_power": (TracePower, [1, 2, 3]),
    "power_trace": (PowerTrace, [(1,), (2,), (2, 1)]),
    "invariant": (Invariant, [(1,), (1, 1), (2, 1)]),
}
SIGMA3 = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])


def _assembled(kind, params):
    """The target of a trace or invariant kind from entrywise moments alone."""
    if isinstance(kind, TracePower):
        return entrywise_power_trace(params, (1,) * kind.power, kind.inverse)
    if isinstance(kind, PowerTrace):
        return entrywise_power_trace(params, kind.mu, kind.inverse)
    # Z_lam = sum_rho M_rho omega^lam(rho) p_rho
    return sum(
        float(matching_type_count(rho) * zonal_spherical(kind.lam, rho)) * entrywise_power_trace(params, rho, kind.inverse)
        for rho in partitions_of(kind.order)
    )


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("flag", list(MOMENT_KINDS))
def test_every_moment_kind_is_its_class(tmp_path, monkeypatch, capsys, flag, degree, inverse):
    # d = 3, gamma = 15/2 > 3: every inverse moment of degree <= 3 exists and can be estimated
    path = tmp_path / "s.csv"
    path.write_text("\n".join(",".join(map(str, row)) for row in SIGMA3) + "\n")
    params = WishartParams(d=3, beta=Fraction(19, 2), sigma=SIGMA3)
    cls, args = KIND_ARGS[flag]
    arg = args[degree - 1]
    kind = cls(arg, inverse)
    assert kind.order == degree
    # the degrees passed to gamma_regime: the CLI's one call, as the formulas test gamma > 0 themselves
    degrees = []
    monkeypatch.setattr(wishart, "gamma_regime", lambda gamma, n: degrees.append(n) or "standard")
    value = ",".join(map(str, arg)) if isinstance(arg, tuple) else str(arg)
    argv = ["moment", f"--{flag.replace('_', '-')}", value, "--beta", "19/2", "--sigma", str(path), "--format", "json"]
    assert main(argv + ["--inverse"] * inverse) == 0
    assert degrees == ([degree] if inverse else [])
    monkeypatch.undo()
    [row] = json.loads(capsys.readouterr().out)["results"]
    target = float(kind.target(params))
    assert (row["value"], row["formula"]) == (target, MOMENT_KINDS[flag])
    if cls is not EntryProduct:
        assert target == pytest.approx(_assembled(kind, params), rel=REL_TOL)
    one, two = (estimate([kind], params, 20_000, RngSpec(11), streams=2, threads=t) for t in (1, 2))
    assert one == two and abs(one[0].zscore) < 5, one


@pytest.mark.parametrize("cls", [EntryProduct, TracePower, PowerTrace, Invariant, montecarlo.TraceProduct])
def test_descriptor_classes_define_target_and_values(cls):
    # perfbench's Recorder.install wraps both methods through each class's own vars()
    assert {"target", "values"} <= vars(cls).keys()


def test_moment_option_conflicts(sigma_csv):
    assert main(["moment", "--beta", "2", "--sigma", sigma_csv]) == 2
    assert main(["moment", "--entries", "1,1", "--trace-power", "2", "--beta", "2", "--sigma", sigma_csv]) == 2


def test_moment_malformed_sigma(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n")
    assert main(["moment", "--entries", "1,1", "--beta", "2", "--sigma", str(bad)]) == 2
    missing = tmp_path / "nope.csv"
    assert main(["moment", "--entries", "1,1", "--beta", "2", "--sigma", str(missing)]) == 2


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_moment_non_finite_sigma(tmp_path, cell, capsys):
    bad = tmp_path / f"{cell}.csv"
    bad.write_text(f"2.0,{cell}\n{cell},1.5\n")
    assert main(["moment", "--entries", "1,1,2,2", "--beta", "3", "--sigma", str(bad)]) == 2
    assert "sigma has non-finite entries" in capsys.readouterr().err


def test_moment_inverse_error_exit_codes(sigma_csv):
    entries = ",".join(["1", "2"] * 11)
    # gamma = 1/2 - 3/2 <= 0 is a domain error before any degree limit
    assert main(["moment", "--inverse", "--entries", entries, "--beta", "1/2", "--sigma", sigma_csv]) == 3
    assert main(["moment", "--inverse", "--entries", entries, "--beta", "9", "--sigma", sigma_csv]) == 2
    assert main(["moment", "--entries", entries, "--beta", "9", "--sigma", sigma_csv]) == 2


def test_moment_asymmetric_sigma(tmp_path):
    bad = tmp_path / "asym.csv"
    bad.write_text("1.0,0.5\n0.2,1.0\n")
    # the library's DomainError, as for a sigma that is not positive definite
    assert main(["moment", "--entries", "1,1", "--beta", "2", "--sigma", str(bad)]) == 3


@pytest.mark.parametrize(
    "name, text",
    [
        ("scalar.json", "5"),
        ("vector.json", "[1.0, 2.0]"),
        ("ragged.json", "[[1.0, 0.1], [0.1]]"),
        ("ragged.csv", "1.0,0.1\n0.1\n"),
        ("object.json", '{"sigma": 1}'),
    ],
)
def test_moment_sigma_not_a_matrix(tmp_path, capsys, name, text):
    bad = tmp_path / name
    bad.write_text(text)
    assert main(["moment", "--entries", "1,1", "--beta", "2", "--sigma", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_moment_index_error(sigma_csv):
    assert main(["moment", "--entries", "1,9", "--beta", "2", "--sigma", sigma_csv]) == 2


def test_moment_non_pd_sigma(tmp_path):
    bad = tmp_path / "npd.csv"
    bad.write_text("1.0,2.0\n2.0,1.0\n")
    assert main(["moment", "--entries", "1,1", "--beta", "2", "--sigma", str(bad)]) == 3


def test_moment_pole_exit(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1.0,0.0,0.0\n0.0,1.0,0.0\n0.0,0.0,1.0\n")
    # beta=3, d=3 -> gamma=1: a degree-2 inverse pole
    assert main(["moment", "--inverse", "--entries", "1,1,2,2", "--beta", "3", "--sigma", str(path)]) == 3


def test_moment_sigma_json(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text("[[2.0, 0.3], [0.3, 1.5]]")
    assert main(["moment", "--entries", "1,1", "--beta", "2", "--sigma", str(path)]) == 0


def test_haar_command(capsys):
    assert main(["haar", "--i", "1,1,2,2", "--j", "1,1,2,2", "--N", "3"]) == 0
    assert "2/15" in capsys.readouterr().out


def test_validate_golden_passes_its_42_rows_at_every_seed(capsys):
    for seed in range(20):
        rows = golden_suite(seed)
        assert len(rows) == 42 and all(r["passed"] for r in rows), (seed, [r for r in rows if not r["passed"]])
    # the report the benchmark's cli pool checks
    assert main(["validate", "golden", "--seed", "217", "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert [len(results), all(r["passed"] for r in results)] == [42, True]


def test_validate_identities(capsys):
    assert main(["validate", "identities", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "PASS" in out


def test_validate_identities_runs_every_degree_it_is_given(capsys):
    assert main(["validate", "identities", "--n", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "30/30 checks passed"
    assert "PASS  zonal orthogonality n=5 (reduced)" in lines
    assert main(["validate", "identities", "--n", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "25/25 checks passed"
    assert not any("n=5" in line for line in lines)


@pytest.mark.parametrize("n", ["0", "-1", "6", "9"])
def test_validate_identities_rejects_degrees_outside_the_tables(capsys, n):
    assert main(["validate", "identities", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the reduced convolution kernel lists matching words, so --n has the listing limit
    assert captured.err == f"error: routes that list words support 1 <= n <= 5, got {n}\n"


def test_validate_montecarlo_small(capsys):
    assert main(["validate", "montecarlo", "--samples", "20000", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_validate_montecarlo_rejects_thread_count(capsys, threads):
    assert main(["validate", "montecarlo", "--samples", "1000", "--threads", threads]) == 2
    assert f"threads must be a positive integer, got {threads}" in capsys.readouterr().err


def test_table_build_show_list_cache(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["table", "build", "--n", "2", "--z", "7/2", "--cache-dir", cache]) == 0
    first = capsys.readouterr().out
    assert "built:" in first
    path = first.split(":", 1)[1].strip()
    cold = Path(path).read_bytes()
    assert main(["table", "build", "--n", "2", "--z", "7/2", "--cache-dir", cache]) == 0
    assert "cache hit:" in capsys.readouterr().out
    assert Path(path).read_bytes() == cold
    assert main(["table", "show", "--n", "2", "--z", "7/2", "--cache-dir", cache]) == 0
    shown = capsys.readouterr().out
    assert "-8/385" in shown and "36/385" in shown
    assert main(["table", "list", "--cache-dir", cache]) == 0
    assert "z_7_2.json" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_build_and_list_follow_format(tmp_path, capsys, fmt):
    cache = str(tmp_path / "cache")
    path = str(table_path(cache, 3, 5))
    reports = []
    for action in (["build", "--n", "3", "--z", "5"], ["build", "--n", "3", "--z", "5"], ["list"]):
        assert main(["table", *action, "--cache-dir", cache, "--format", fmt]) == 0
        reports.append(capsys.readouterr().out)
    if fmt == "json":
        docs = [json.loads(r) for r in reports]
        assert [d["config"]["command"] for d in docs] == ["table-build", "table-build", "table-list"]
        assert docs[0]["config"]["options"] == {"n": 3, "z": "5", "cache_dir": cache}
        assert [d["results"] for d in docs] == [
            [{"status": "built", "path": path}],
            [{"status": "cache hit", "path": path}],
            [{"path": path}],
        ]
    else:
        assert reports == [f"status,path\r\nbuilt,{path}\r\n", f"status,path\r\ncache hit,{path}\r\n", f"path\r\n{path}\r\n"]


def test_empty_table_list_csv_prints_its_header(tmp_path, capsys):
    assert main(["table", "list", "--cache-dir", str(tmp_path / "cache"), "--format", "csv"]) == 0
    assert capsys.readouterr().out == "path\r\n"


def test_table_build_and_list_write_to_out(tmp_path, capsys):
    cache, out = str(tmp_path / "cache"), tmp_path / "report.txt"
    path = table_path(cache, 2, "7/2")
    for action, want in ((["list"], "(no cached tables)\n"), (["build", "--n", "2", "--z", "7/2"], f"built: {path}\n"),
                         (["build", "--n", "2", "--z", "7/2"], f"cache hit: {path}\n"), (["list"], f"{path}\n")):
        assert main(["table", *action, "--cache-dir", cache, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == want


def test_table_list_shows_only_table_files(tmp_path, capsys):
    cache = tmp_path / "cache"
    real = [table_path(cache, 2, "7/2"), table_path(cache, 4, "-13/5")]
    for n, z in ((2, "7/2"), (4, "-13/5")):
        assert main(["table", "build", "--n", str(n), "--z", z, "--cache-dir", str(cache)]) == 0
    root = cache / "tables" / "wg_o"
    (root / "notes.json").write_text("{}")
    (root / "n2" / "other.json").write_text("{}")
    for name in ("n03/z_5_1.json", "n3/z_10_2.json", "n3/z_5_0.json", "n3/sub/z_5_1.json"):  # not where table_path puts a table
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(table_to_json(3, 5, weingarten_values(3, z=5)))
    (root / "n5" / "z_5_1.json").mkdir(parents=True)
    capsys.readouterr()
    assert main(["table", "list", "--cache-dir", str(cache)]) == 0
    assert capsys.readouterr().out == "".join(f"{p}\n" for p in sorted(real))


def test_table_build_reads_the_cached_file_as_a_table(tmp_path, capsys):
    # the same table in another layout is a cache hit, and the file is left alone
    cache = tmp_path / "cache"
    path = table_path(cache, 3, 5)
    path.parent.mkdir(parents=True)
    compact = json.dumps(json.loads(table_to_json(3, 5, weingarten_values(3, z=5))))
    path.write_text(compact)
    assert main(["table", "build", "--n", "3", "--z", "5", "--cache-dir", str(cache)]) == 0
    assert capsys.readouterr().out == f"cache hit: {path}\n"
    assert path.read_text() == compact


def test_table_build_takes_a_file_from_another_version_as_a_hit(tmp_path, capsys):
    # the generator and version are not part of the table; the file is left alone
    cache = tmp_path / "cache"
    path = table_path(cache, 3, 5)
    path.parent.mkdir(parents=True)
    doc = json.loads(table_to_json(3, 5, weingarten_values(3, z=5)))
    doc["provenance"]["version"] = "0.0.0"
    old = json.dumps(doc, indent=2) + "\n"
    path.write_text(old)
    assert main(["table", "build", "--n", "3", "--z", "5", "--cache-dir", str(cache)]) == 0
    assert capsys.readouterr().out == f"cache hit: {path}\n"
    assert path.read_text() == old
    assert main(["table", "show", "--n", "3", "--z", "5", "--cache-dir", str(cache), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["options"]["cached"] is True


def _foreign_table_doc():
    # a well-formed table document for another degree and schema, with no entries
    return json.dumps({"n": 2, "z": {"num": "5", "den": "1"}, "entries": [], "provenance": {"schema": 99}})


def _truncated_table_doc():
    text = table_to_json(3, 5, weingarten_values(3, z=5))
    return text[: text.index('"rho"') + 4]


@pytest.mark.parametrize("doc", [_foreign_table_doc, _truncated_table_doc], ids=["foreign", "truncated"])
def test_table_show_and_build_replace_a_file_that_is_not_the_table(tmp_path, capsys, doc):
    cache = tmp_path / "cache"
    path = table_path(cache, 3, 5)
    path.parent.mkdir(parents=True)
    path.write_text(doc())
    assert load_table(cache, 3, 5) is None
    assert main(["table", "show", "--n", "3", "--z", "5", "--cache-dir", str(cache), "--format", "json"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["config"]["options"]["cached"] is False
    assert [r["rho"] for r in shown["results"]] == [[3], [2, 1], [1, 1, 1]]
    assert main(["table", "build", "--n", "3", "--z", "5", "--cache-dir", str(cache)]) == 0
    assert "built:" in capsys.readouterr().out
    assert path.read_text() == table_to_json(3, 5, weingarten_values(3, z=5))
    assert load_table(cache, 3, 5) == weingarten_values(3, z=5)


def test_table_show_rebuilds_and_build_rejects_a_directory_at_the_cache_path(tmp_path, capsys):
    cache = tmp_path / "cache"
    path = table_path(cache, 3, 5)
    path.mkdir(parents=True)
    assert load_table(cache, 3, 5) is None
    assert main(["table", "show", "--n", "3", "--z", "5", "--cache-dir", str(cache), "--format", "json"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["config"]["options"]["cached"] is False
    assert [r["rho"] for r in shown["results"]] == [[3], [2, 1], [1, 1, 1]]
    assert main(["table", "build", "--n", "3", "--z", "5", "--cache-dir", str(cache)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(path) in captured.err
    assert path.is_dir()


@pytest.mark.parametrize("flag", ["--out", "--sigma"])
def test_directory_as_out_or_sigma_is_a_usage_error(tmp_path, capsys, flag):
    folder = tmp_path / "folder"
    folder.mkdir()
    if flag == "--out":
        argv = ["wg", "--n", "2", "--z", "5", "--out", str(folder)]
    else:
        argv = ["moment", "--entries", "1,1", "--beta", "3", "--sigma", str(folder)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(folder) in captured.err


def test_table_requires_n_and_z(tmp_path):
    assert main(["table", "build", "--cache-dir", str(tmp_path)]) == 2


def test_table_cache_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WW_CACHE_DIR", str(tmp_path / "envcache"))
    assert main(["table", "build", "--n", "1", "--z", "3"]) == 0
    out = capsys.readouterr().out
    assert "envcache" in out


def test_out_file_and_csv(tmp_path, capsys):
    target = tmp_path / "wg.csv"
    assert main(["wg", "--n", "2", "--z", "5", "--format", "csv", "--out", str(target)]) == 0
    text = target.read_text()
    assert "rho,value" in text.splitlines()[0]
    assert "-1/140" in text


SIGMA_FILES = {
    "bools.json": "[[true, false], [false, true]]",
    "strings.json": '[["2.0", "0.3"], ["0.3", "1.5"]]',
    "mixed.json": "[[2.0, false], [false, 1.5]]",
    "nan.json": "[[NaN, 0.3], [0.3, 1.5]]",
}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["moment", "--entries", "1,1", "--beta", "3", "--sigma", "bools.json"], 2),
        (["moment", "--entries", "1,1", "--beta", "3", "--sigma", "strings.json"], 2),
        (["moment", "--entries", "1,1", "--beta", "3", "--sigma", "mixed.json"], 2),
        (["moment", "--entries", "1,1", "--beta", "3", "--sigma", "nan.json"], 2),
        (["moment", "--entries", "1,1", "--beta", "3", "--sigma", __file__], 2),
        (["haar", "--i", "1,1", "--j", "1,1", "--N", "0"], 2),
        (["validate", "montecarlo", "--samples", "10"], 2),
        (["wg", "--n", "2", "--z", "1/0"], 2),
        (["wg", "--n", "2", "--z", "1"], 3),
    ],
    ids=["bools", "numeric-strings", "mixed-bools", "nan-sigma", "this-file", "N-0", "samples-10", "z-1/0", "pole"],
)
def test_bad_argv_exits_2_or_3_without_a_traceback(tmp_path, capsys, argv, code):
    for name, text in SIGMA_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in SIGMA_FILES else a for a in argv]
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        got = exc.code
    err = capsys.readouterr().err
    assert got == code and "Traceback" not in err and err
