"""End-to-end tests of the command-line interface.

Most tests drive ``main`` in-process for speed; two spawn real
subprocesses to cover the module entry point and the console script.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from decimal import Decimal
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import runnerspec
from runnerspec import cli
from runnerspec.cli import main
from runnerspec.lattice import ball_volume, basis_length_bound

from test_spectrum import _edit, _edit_result, _line, _set


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- point queries --------------------------------------------------------


def test_ml(capsys):
    code, out, _ = run(capsys, "ml", "1", "2", "3")
    assert code == 0
    assert out.splitlines() == [
        "ml = 1/4 (approx 0.25)",
        "witness_time = 1/4 (approx 0.25)",
        "d = 1/4 (approx 0.25)",
    ]


def test_ml_rejects_zero_speed(capsys):
    code, _, err = run(capsys, "ml", "0", "1")
    assert code == 2
    assert err.startswith("error:")


def test_dist_cyclic(capsys):
    code, out, _ = run(capsys, "dist", "cyclic", "12/25", "9/25")
    assert code == 0
    assert "order = 25" in out
    assert "d = 7/50" in out


def test_dist_line(capsys):
    code, out, _ = run(capsys, "dist", "line", "1", "2", "--shift", "0", "0")
    assert code == 0
    assert "d = 1/6" in out


def test_dist_line_shift_sees_the_center(capsys):
    code, out, _ = run(capsys, "dist", "line", "1", "--shift", "1/2")
    assert code == 0
    assert "d = 0" in out


def test_dist_line_shift_length_mismatch(capsys):
    code, _, err = run(capsys, "dist", "line", "1", "2", "--shift", "1/2")
    assert code == 2
    assert "shift" in err


def test_dist_plane(capsys):
    code, out, _ = run(capsys, "dist", "plane", "1", "0", "1", "--", "0", "1", "1")
    assert code == 0
    assert "d = 1/6" in out


def test_dist_plane_help_and_errors(capsys):
    code, out, _ = run(capsys, "dist", "plane", "-h")
    assert code == 0
    assert "usage" in out
    code, _, err = run(capsys, "dist", "plane", "1", "2")
    assert code == 2
    assert "--" in err


# --- lift and constants ---------------------------------------------------


def test_lift_writes_checkable_certificate(tmp_path, capsys):
    path = str(tmp_path / "cert.json")
    code, out, _ = run(
        capsys, "lift", "--v", "2", "3", "--eps", "1/7", "--out", path, "--check"
    )
    assert code == 0
    assert "guaranteed = True" in out
    assert "spacing_identity_ok = True" in out
    with open(path) as fh:
        data = json.load(fh)
    assert data["guaranteed"] is True
    assert data["epsilon"] == "1/7"


def test_constants(capsys):
    code, out, _ = run(capsys, "constants", "--n", "3")
    assert code == 0
    assert "omega_1 = 2 (approx 2)" in out
    assert "lrc_threshold(3) = 144/pi" in out
    assert "lrc_threshold(3) < n^(5n/2): True" in out


def test_constants_beyond_float_range(capsys):
    code, out, _ = run(capsys, "constants", "--n", "100")
    assert code == 0
    assert "lrc_threshold(100) = " in out
    assert "(approx inf)" in out


def test_constants_print_huge_exact_values(capsys):
    # 1/180! is 0.0 as a float though omega_360 is not, and the exact
    # coefficient of ell(360, 1) has more digits than int-to-str allows.
    code, out, err = run(capsys, "constants", "--n", "400", "--k", "360")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == (
        f"omega_360 = {ball_volume(360).coefficient}*pi^180 (approx 1.5275859671e-240)"
    )
    head, tail = "ell(k=360, V=1) = ", "*pi^-180 (approx inf)"
    assert lines[1].startswith(head) and lines[1].endswith(tail)
    num, _, den = lines[1][len(head) : -len(tail)].partition("/")
    ell = basis_length_bound(360, 1).coefficient
    assert Decimal(num) == ell.numerator and Decimal(den or 1) == ell.denominator
    assert len(num) > 4300
    assert [line.split(" = ")[0] for line in lines[2:]] == [
        "c_star(n=400, k=360, eps=1/80200)",
        "lrc_threshold(400)",
        "lrc_threshold(400) enclosure",
        "lrc_threshold(400) < n^(5n/2): True",
    ]


def test_constants_rejects_bad_k(capsys):
    code, _, err = run(capsys, "constants", "--n", "3", "--k", "3")
    assert code == 2
    assert "error:" in err


# --- enumeration and tables -----------------------------------------------


def test_enumerate(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "2", "--max-vol2", "25")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "1 1"
    assert "6 tuples" in err


def test_spectrum_outputs_are_reproducible(tmp_path, capsys):
    first = tmp_path / "a"
    second = tmp_path / "b"
    for directory, threads in ((first, "1"), (second, "2")):
        directory.mkdir()
        code, out, _ = run(
            capsys,
            "spectrum",
            "--n", "3",
            "--max-vol2", "300",
            "--out", str(directory / "t.json"),
            "--flat", str(directory / "t.tsv"),
            "--threads", threads,
        )
        assert code == 0
        assert "max_key = 1/4" in out
    for name in ("t.json", "t.tsv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def _spectrum_args(tmp_path, *extra):
    return ("spectrum", "--n", "3", "--max-vol2", "30", "--out", str(tmp_path / "t.json"), *extra)


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda text: _edit(text, 1, lambda e: e.pop("result")), "has no 'result' field"),
        (lambda text: _line(text, 1, lambda s: s[: len(s) // 2]), "is not valid JSON"),
        (lambda text: _edit_result(text, 1, _set(1, 0, "2/20")), "'2/20' is not in lowest terms"),
        (lambda text: _edit(text, 3, lambda e: e.update(block="02")), "key '02' is not a block start"),
    ],
)
def test_spectrum_rejects_a_corrupt_checkpoint(tmp_path, capsys, damage, message):
    ckpt = tmp_path / "ckpt.json"
    args = _spectrum_args(tmp_path, "--threads", "1", "--checkpoint", str(ckpt))
    assert run(capsys, *args)[0] == 0
    ckpt.write_text(damage(ckpt.read_text()))
    code, out, err = run(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: checkpoint {ckpt} ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args, target",
    [
        (("spectrum", "--n", "2", "--max-vol2", "10", "--out", "{file}/t.json"), "{file}/t.json"),
        (
            ("spectrum", "--n", "2", "--max-vol2", "10", "--out", "{dir}/t.json", "--checkpoint", "{dir}"),
            "{dir}",
        ),
        (("lift", "--v", "2", "3", "--eps", "1/7", "--out", "{file}/c.json"), "{file}/c.json"),
        (("repro", "--small", "--out", "{file}/sub"), "{file}/sub"),
        (("spectrum", "--n", "3", "--max-vol2", "10000", "--out", "{missing}/x.json"), "{missing}/x.json"),
        (
            ("spectrum", "--n", "2", "--max-vol2", "10", "--out", "{dir}/t.json", "--flat", "{missing}/t.tsv"),
            "{missing}/t.tsv",
        ),
        (("spectrum", "--n", "2", "--max-vol2", "10", "--out", "{dir}"), "{dir}"),
        (("lift", "--v", "3", "7", "199", "--eps", "1/25", "--out", "{missing}/c.json"), "{missing}/c.json"),
    ],
)
def test_unusable_paths_are_usage_errors(tmp_path, capsys, monkeypatch, args, target):
    # Every path is checked before the work that would write it starts.
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran before its output path was checked")

    monkeypatch.setattr(cli, "build_spectrum", no_work)
    monkeypatch.setattr(cli, "kronecker_lift", no_work)
    paths = {"file": tmp_path / "file", "dir": tmp_path, "missing": tmp_path / "missing"}
    paths["file"].write_text("")
    code, out, err = run(capsys, *(a.format(**paths) for a in args))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert target.format(**paths) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        ("dist", "cyclic", "1/0", "1/2"),
        ("dist", "cyclic", "1/0"),
        ("lift", "--v", "3", "7", "199", "--eps", "1/0"),
        ("verify", "prop81", "--target", "1/0"),
        ("report", "acc", "--n", "2", "--max-vol2", "10", "--targets", "1/0", "--window", "1/10"),
    ],
)
def test_zero_denominator_is_a_usage_error(capsys, args):
    code, out, err = run(capsys, *args)
    assert code == 2
    assert out == ""
    assert err == "error: zero denominator in '1/0'\n"


_TABLE = ("--n", "2", "--max-vol2", "10")


@pytest.mark.parametrize(
    "args, message",
    [
        (("ml", "0", "1"), "zero speed in (0, 1)"),
        (("ml", "2", "4"), "speeds (2, 4) share the common factor 2"),
        (("dist", "cyclic", "abc"), "Invalid literal for Fraction: 'abc'"),
        (("dist", "cyclic", "1/759250125"), "order 759250125 is past the exact scan's bound, 2*q^2 < 2^60"),
        (("dist", "line", "1", "2", "--shift", "1/3"), "shift needs one rational per coordinate"),
        (("dist", "line", "0", "0"), "zero speed in (0, 0)"),
        (("dist", "plane", "1", "x", "--", "0", "1"), "invalid literal for int() with base 10: 'x'"),
        (("dist", "plane", "1", "0", "--", "2", "0"), "(1, 0) and (2, 0) are linearly dependent"),
        (
            ("dist", "plane", "11", "-12", "5", "5", "-3", "-7", "10", "--", "-1", "0", "-1", "0", "1", "0", "1"),
            "plane (11, -12, 5, 5, -3, -7, 10), (-1, 0, -1, 0, 1, 0, 1) needs 158748025"
            " candidate times, past the coset scan's bound 33554432",
        ),
        (("lift", "--v", "1", "--eps", "1/5"), "ambient dimension 1 is not supported"),
        (("lift", "--v", "2", "4", "--eps", "1/5"), "(2, 4) is not primitive (gcd 2)"),
        (("lift", "--v", "1", "2", "--eps", "-1"), "epsilon must be positive"),
        (("lift", "--v", "1", "2", "3", "4", "5", "--eps", "1/5"), "ambient dimension 5 is not supported"),
        (("constants", "--n", "1"), "need 1 <= k < n"),
        (("constants", "--n", "3", "--eps", "0"), "epsilon must be positive"),
        (("enumerate", "--n", "0", "--max-vol2", "5"), "need n >= 1"),
        (("spectrum", *_TABLE, "--out", "{dir}/t.json", "--threads", "0"), "worker count must be at least 1"),
        (("verify", "fan-sun", "--r-max", "-1"), "need r_max >= 0"),
        (("verify", "window", "--table", "{dir}/empty.json"), "{dir}/empty.json: unsupported table version None"),
        (("verify", "window", "--n", "3", "--max-vol2", "100", "--threads", "0"), "worker count must be at least 1"),
        (("verify", "prop81", "--cutoff", "1"), "max_volume_sq below the all-ones tuple; nothing to enumerate"),
        (("report", "acc", *_TABLE, "--targets", "1/6", "--window", "0"), "window must be positive"),
        (("report", "acc", *_TABLE, "--targets", "x", "--window", "1/10"), "Invalid literal for Fraction: 'x'"),
        (("report", "mult", *_TABLE, "--threshold", "0"), "threshold must be at least 1"),
        (("verify", "prop81", "--target", "1"), "target 1 is not a distance in [0, 1/2]"),
        (("verify", "prop81", "--target", "-1"), "target -1 is not a distance in [0, 1/2]"),
        (
            ("verify", "fan-sun", "--r-max", "100000"),
            "r_max 100000 needs 100001 family members, past the budget of 6000",
        ),
        (
            ("ml", "1", "100000000000000000000"),
            "speed 100000000000000000000 is too large for the exact scan,"
            " which needs 2*v^2 < 2^60 (|v| <= 759,250,124)",
        ),
    ],
)
def test_bad_input_is_a_usage_error(tmp_path, capsys, args, message):
    # The zero-denominator cases are in test_zero_denominator_is_a_usage_error.
    (tmp_path / "empty.json").write_text("{}")
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in args))
    assert code == 2
    assert out == ""
    assert err == f"error: {message.format(dir=tmp_path)}\n"


@pytest.mark.parametrize(
    "args, top",
    [
        (("spectrum", "--n", "2", "--max-vol2", "1" + "0" * 20), 9_999_999_999),
        (("spectrum", "--n", "3", "--max-vol2", "1" + "0" * 18), 999_999_999),
        (("verify", "prop81", "--cutoff", "1" + "0" * 20), 9_999_999_999),
    ],
)
def test_a_huge_table_bound_is_refused_before_any_work(tmp_path, capsys, args, top):
    # The bound's top speed is past the kernel's; the tuple budget refuses it first.
    assert top > 759_250_124
    files = ("--out", str(tmp_path / "x.json"), "--checkpoint", str(tmp_path / "x.jsonl"))
    code, out, err = run(capsys, *args, *(files if args[0] == "spectrum" else ()))
    assert code == 2
    assert out == ""
    assert err.startswith("error: max_volume_sq at n=")
    assert err.endswith(" canonical tuples, the tuple budget\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["spectrum", "enumerate", "prop81"])
def test_a_table_bound_past_the_tuple_budget_is_refused(tmp_path, capsys, command):
    args = {
        "spectrum": ("spectrum", "--n", "3", "--max-vol2", "10000000000000", "--out", str(tmp_path / "x.json")),
        "enumerate": ("enumerate", "--n", "3", "--max-vol2", "10000000000000"),
        "prop81": ("verify", "prop81", "--cutoff", "10000000000000"),
    }[command]
    code, out, err = run(capsys, *args)
    assert code == 2
    assert out == ""
    assert err == "error: max_volume_sq at n=3 allows more than 10000000 canonical tuples, the tuple budget\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["spectrum", "enumerate"])
def test_a_budget_refusal_at_large_n_is_quick(tmp_path, capsys, command):
    # The tuple bound stops growing its recursion once past the budget, so
    # n = 3000 is refused at once, without formatting a number of thousands of digits.
    files = ("--out", str(tmp_path / "x.json"), "--checkpoint", str(tmp_path / "x.jsonl"))
    args = (command, "--n", "3000", "--max-vol2", "3000", *(files if command == "spectrum" else ()))
    start = time.perf_counter()
    code, out, err = run(capsys, *args)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == "error: max_volume_sq at n=3000 allows more than 10000000 canonical tuples, the tuple budget\n"
    assert list(tmp_path.iterdir()) == []


def test_enumerate_n1_prints_its_one_tuple_at_any_bound(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "1", "--max-vol2", "1" + "0" * 20)
    assert code == 0
    assert out == "1\n"


def test_an_internal_value_error_is_not_a_usage_error(monkeypatch):
    def boom(speeds):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "max_loneliness", boom)
    with pytest.raises(ValueError, match="boom"):
        main(["ml", "1", "2"])


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read table"),
        ('{"version": 1}', "table has no 'n' field"),
        ('{"version": 1, "n": 2, "k": 1, "max_volume_sq": 10,'
         ' "canonicalization": "sorted-positive (one per permutation/sign class)"}',
         "table has no 'entries' field"),
        ("{", "is not valid JSON"),
        ("[]", "table is not a JSON object"),
        ('{"version": 1, "n": 2, "k": 1, "max_volume_sq": 10,'
         ' "canonicalization": "sorted-positive (one per permutation/sign class)",'
         ' "entries": []}',
         "table has no entries"),
        ('{"version": 1, "n": 2, "k": 1, "max_volume_sq": 10,'
         ' "canonicalization": "sorted-positive (one per permutation/sign class)",'
         ' "entries": [{"d": "1/6", "mult": 0, "witnesses": [[1, 2]]}]}',
         "multiplicity 0"),
    ],
)
def test_verify_rejects_a_bad_table_file(tmp_path, capsys, content, message):
    path = tmp_path / "t.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run(capsys, "verify", "s2", "--table", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert str(path) in err
    assert message in err
    assert "Traceback" not in err


def test_spectrum_names_a_bad_threads_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RUNNERSPEC_THREADS", "abc")
    code, out, err = run(capsys, *_spectrum_args(tmp_path))
    assert code == 2
    assert out == ""
    assert err == "error: RUNNERSPEC_THREADS must be an integer, not 'abc'\n"


# --- verifiers ------------------------------------------------------------


def test_verify_s2_from_saved_table(tmp_path, capsys, table_n2_1e4):
    path = str(tmp_path / "n2.json")
    table_n2_1e4.save_json(path)
    code, out, _ = run(capsys, "verify", "s2", "--table", path)
    assert code == 0
    assert "largest_key = 1/6" in out
    assert "passed = True" in out


def test_verify_s2_takes_no_n(capsys, monkeypatch):
    # The verb checks the n=2 closed form, so it builds at n=2 only.
    def no_build(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "build_spectrum", no_build)
    code, out, err = run(capsys, "verify", "s2", "--n", "3", "--max-vol2", "2000")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --n 3" in err


def test_verify_window_from_saved_table(tmp_path, capsys, table_n3_1e3):
    path = str(tmp_path / "n3.json")
    table_n3_1e3.save_json(path)
    for mode in ("strict", "amended"):
        code, out, _ = run(capsys, "verify", "window", "--table", path, "--mode", mode)
        assert code == 0
        assert "passed = True" in out


def test_verify_fan_sun(capsys):
    code, out, _ = run(capsys, "verify", "fan-sun", "--r-max", "3")
    assert code == 0
    assert "checked = 4" in out
    assert "passed = True" in out


def test_verify_prop81_small_cutoff_fails_honestly(capsys):
    code, out, _ = run(capsys, "verify", "prop81", "--cutoff", "400")
    assert code == 1
    assert "phase_a: passed = True" in out
    assert "passed = False" in out


# --- reports --------------------------------------------------------------


def test_report_acc(tmp_path, capsys, table_n3_1e3):
    path = str(tmp_path / "n3.json")
    table_n3_1e3.save_json(path)
    code, out, _ = run(
        capsys,
        "report", "acc",
        "--table", path,
        "--targets", "1/6,1/10",
        "--window", "1/100",
    )
    assert code == 0
    assert "target 1/6: above = 4  below = 0" in out


def test_report_mult(tmp_path, capsys, table_n3_1e3):
    path = str(tmp_path / "n3.json")
    table_n3_1e3.save_json(path)
    code, out, _ = run(capsys, "report", "mult", "--table", path, "--threshold", "100")
    assert code == 0
    assert "0: multiplicity" in out
    assert "[expected-unbounded]" in out


# --- dispatch and entry points --------------------------------------------


def test_unknown_verb(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_help(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "runnerspec" in out


def _child_env():
    """Environment in which a child interpreter imports this runnerspec.

    The directory holding the imported package goes first on
    ``PYTHONPATH``, so the child cannot pick up another installed copy.
    """
    env = dict(os.environ)
    root = str(Path(runnerspec.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def _toml():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        return pytest.importorskip("tomli")
    return tomllib


def test_package_exports_each_module_list():
    # `import runnerspec` loads every library module, and the package
    # exports exactly the union of their __all__ lists.
    probe = "import runnerspec, sys; print(*sorted(m for m in sys.modules if m.startswith('runnerspec.')))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env()
    )
    modules = ["core", "lattice", "loneliness", "spectrum", "subgroups"]
    assert proc.stdout.split() == [f"runnerspec.{m}" for m in modules]
    owners = {}
    for m in modules:
        module = getattr(runnerspec, m)
        for name in module.__all__:
            assert name not in owners
            assert getattr(runnerspec, name) is getattr(module, name)
            owners[name] = m
    assert sorted(runnerspec.__all__) == sorted(owners)
    assert len(owners) == 59
    retired = (
        "ProductSubgroup",
        "d_subgroup",
        "extremal_face_contacts",
        "find_rational_witness",
        "is_proper",
        "linf_center_distance",
        "pad_subgroup",
    )
    for gone in ("d_min_max", "covolume_sq_2", "volume_sq_1") + retired:
        assert not hasattr(runnerspec, gone)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "runnerspec", "ml", "1", "2", "3"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "ml = 1/4" in proc.stdout


def test_ml_refuses_a_speed_past_the_int64_bound():
    # The smallest refused tuple; scanning it would take minutes.
    proc = subprocess.run(
        [sys.executable, "-m", "runnerspec", "ml", "1", "759250125"],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: speed 759250125 ")


def test_cyclic_refuses_an_order_past_the_int64_bound():
    # The smallest refused order; scanning it would take minutes.
    proc = subprocess.run(
        [sys.executable, "-m", "runnerspec", "dist", "cyclic", "1/759250125"],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: order 759250125 ")


def test_coset_refuses_a_direction_past_its_candidate_bound():
    # About 10^9 candidate times; scanning them would take about half an hour.
    proc = subprocess.run(
        [sys.executable, "-m", "runnerspec", "dist", "line", "1", "100000000", "100000001",
         "--shift", "1/3", "0", "0"],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: direction (1, 100000000, 100000001) needs 1000000009 ")
    assert "Traceback" not in proc.stderr


def test_console_script():
    # The [project.scripts] entry point, run through the same launcher body
    # that installers write, so no install is needed; an installed launcher
    # on PATH is run as well.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        value = _toml().load(fh)["project"]["scripts"]["runnerspec"]
    ep = EntryPoint(name="runnerspec", value=value, group="console_scripts")
    assert callable(ep.load())
    launcher = (
        "import sys\n"
        f"from {ep.module} import {ep.attr}\n"
        "sys.argv[0] = 'runnerspec'\n"
        f"sys.exit({ep.attr}())\n"
    )
    commands = [[sys.executable, "-c", launcher]]
    exe = shutil.which("runnerspec")
    if exe:
        commands.append([exe])
    for command in commands:
        proc = subprocess.run(
            command + ["constants", "--n", "2"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "lrc_threshold(2) = 3" in proc.stdout


# --- reproduction run -----------------------------------------------------


@pytest.mark.slow
def test_repro_small_profile(tmp_path, capsys):
    out_dir = tmp_path / "repro"
    code, out, _ = run(capsys, "repro", "--small", "--out", str(out_dir))
    # the reduced cutoff cannot carry the density phase, so the overall
    # verdict is an honest failure while every rebuilt table still checks
    assert code == 1
    assert "passed = False" in out
    with open(out_dir / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["profile"] == "small"
    assert manifest["passed"] is False
    res = manifest["results"]
    assert res["fan_sun"]["passed"] is True
    assert res["s2_closed_form"]["passed"] is True
    assert res["s2_closed_form"]["largest_key"] == "1/6"
    assert res["n3_max_key"]["value"] == "1/4"
    assert res["window_n3"]["passed"] is True
    assert res["prop81"]["phase_a"] is True
    assert res["prop81"]["phase_b"] is False
    assert all(c == 0 for c in res["accumulation_below"]["counts"].values())
    above = res["accumulation_above_1_6"]
    assert above["at_1000"] < above["at_2000"]
    assert (out_dir / "spectrum_n2_10000.json").exists()
    assert (out_dir / "spectrum_n3_4000.tsv").exists()
