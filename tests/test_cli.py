import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import treebmo
from treebmo import cli, jsonio, suites
from treebmo.cli import main
from treebmo.funcs import FinFunc
from treebmo.maximal import sharp_maximal
from treebmo.randgen import nonzero_function
from treebmo.tree import Tree, Vertex, Window, format_vertex, parse_vertex, parse_window

T2 = Tree(2)
U = Vertex(0, (1,))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write_func(tmp_path, name, f):
    path = tmp_path / name
    path.write_text(json.dumps(jsonio.finfunc_json(f)))
    return str(path)


def test_measure_vertex(capsys):
    code, data = run(capsys, "measure", "--vertex", "0:1")
    assert code == 0 and data["measure"] == "1/2"


def test_measure_ball(capsys):
    code, data = run(capsys, "--m", "3", "measure", "--ball", "0:", "2")
    assert code == 0 and data["measure"] == "17"


def test_measure_cz(capsys):
    code, data = run(capsys, "measure", "--cz", "cz root=0: h=2")
    assert code == 0 and data["measure"] == "7"


def test_ball_agreement(capsys):
    code, data = run(capsys, "ball", "--center", "0:", "--radius", "3", "--members")
    assert code == 0 and data["agree"] and len(data["members"]) > 4


def test_cz_report(capsys):
    code, data = run(capsys, "cz", "--trapezoid", "trapezoid root=0: h=2")
    assert code == 0
    assert data["envelope"]["measure"] == "7"
    assert data["envelope_ratio"] == "7/2"


def test_cover(capsys):
    code, data = run(capsys, "cover", "--n", "1")
    assert code == 0 and data["set"]["root"] == "1:" and data["set"]["h"] == 2
    code, data = run(capsys, "cover", "--vertex", "7:")
    assert code == 0 and data["index"] == 15


def test_bmo_norm(tmp_path, capsys):
    path = write_func(tmp_path, "f.json", FinFunc.indicator(U))
    code, data = run(capsys, "bmo-norm", "--q", "1", "--in", path)
    assert code == 0
    assert data["value"] == {"mode": "exact", "value": "5/18"}
    assert data["witness"]["root"] == "0:" and data["witness"]["h"] == 1


def test_sharp_at(tmp_path, capsys):
    path = write_func(tmp_path, "f.json", FinFunc.indicator(U))
    code, data = run(capsys, "sharp", "--q", "1", "--at", "0:1", "--in", path)
    assert code == 0
    assert data["0:1"]["value"] == {"mode": "exact", "value": "5/18"}
    assert data["0:1"]["certificate"]["measure_bound"] is not None


@pytest.mark.parametrize(
    "where", [("--at", "0:1"), ("--window", "root=1:,depth=3"), ("--window", "root=2:,depth=4")]
)
def test_sharp_prints_the_per_point_bytes(tmp_path, capsys, where):
    f = nonzero_function(T2, Window(Vertex(2, ()), 4), 7, "sparse", 0)
    path = write_func(tmp_path, "f.json", f)
    assert main(["sharp", "--q", "2", *where, "--in", path]) == 0
    flag, spec = where
    pts = [parse_vertex(T2, spec)] if flag == "--at" else parse_window(T2, spec).members(T2)
    per_point = {
        format_vertex(x): jsonio.maximal_json(T2, sharp_maximal(T2, f, 2, x)) for x in pts
    }
    assert capsys.readouterr().out == jsonio.dumps(per_point) + "\n"


def test_oracles_load_only_for_check(tmp_path):
    path = write_func(tmp_path, "f.json", FinFunc.indicator(U))
    script = (
        "import sys\n"
        "from treebmo.cli import main\n"
        f"assert main(['sharp', '--at', '0:1', '--in', {path!r}]) == 0\n"
        "print([m for m in ('treebmo.suites', 'treebmo.bruteforce') if m in sys.modules])\n"
    )
    src = str(Path(treebmo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_check_choices_are_the_suites():
    assert cli.SUITES == suites.SUITES


def test_maximal_at(tmp_path, capsys):
    path = write_func(tmp_path, "f.json", FinFunc.indicator(U))
    code, data = run(capsys, "maximal", "--at", "0:", "--in", path)
    assert code == 0
    assert data["0:"]["value"] == {"mode": "exact", "value": "1/16"}


def test_decompose_single_level(tmp_path, capsys):
    path = write_func(tmp_path, "g.json", FinFunc.indicator(U))
    code, data = run(capsys, "decompose", "--q", "2", "--j", "-1", "--in", path)
    assert code == 0
    assert data["omega"] == ["-1:", "0:1"]
    assert data["c_good"] == "1"


def test_decompose_all(tmp_path, capsys):
    atom = FinFunc({U: Fraction(1, 3), Vertex(-1, ()): Fraction(-1, 3)})
    path = write_func(tmp_path, "g.json", atom)
    code, data = run(capsys, "decompose", "--q", "2", "--all", "--in", path)
    assert code == 0 and data["upper"] == "1"


def test_h1(tmp_path, capsys):
    atom = FinFunc({U: Fraction(1, 3), Vertex(-1, ()): Fraction(-1, 3)})
    path = write_func(tmp_path, "g.json", atom)
    code, data = run(
        capsys,
        "h1",
        "--in",
        path,
        "--family",
        "auto:root=1:,depth=4",
        "--candidates",
        "random:3:4",
    )
    assert code == 0
    assert Fraction(data["upper"]["value"]) <= 1
    assert Fraction(data["lower"]["value"]) <= Fraction(data["upper"]["value"])


def test_hormander(tmp_path, capsys):
    kernel = {
        "window": "root=4:,depth=8",
        "entries": [
            {"y": "0:1", "x": "0:1", "val": "1"},
            {"y": "-1:", "x": "-1:", "val": "1"},
        ],
    }
    path = tmp_path / "k.json"
    path.write_text(json.dumps(kernel))
    code, data = run(capsys, "hormander", "--kernel", str(path), "--h-max", "1",
                     "--family", "auto:root=4:,depth=8")
    assert code == 0
    assert Fraction(data["value"]) >= 0


def test_hormander_far_row(tmp_path, capsys):
    # a row a billion levels below the window is held by no set
    entries = [
        {"y": "0:1", "x": "0:1", "val": "1"},
        {"y": "-1:", "x": "-1:", "val": "1/3"},
    ]
    far = {"y": "-1000000000:", "x": "0:1", "val": "5"}
    out = []
    for rows in (entries, entries + [far]):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"window": "root=4:,depth=8", "entries": rows}))
        out.append(run(capsys, "hormander", "--kernel", str(path), "--h-max", "1",
                       "--family", "auto:root=4:,depth=8"))
    assert out[0] == out[1] and out[0][0] == 0


def test_check_geometry_exit_zero(capsys):
    code, data = run(capsys, "check", "geometry", "--size", "4")
    assert code == 0 and data["ok"]


def test_check_counterexample_exit_one(monkeypatch, capsys):
    # a frozen bound below what the seeded data reaches is a counterexample:
    # exit 1, and the one JSON report on stdout names and serializes it
    monkeypatch.setattr(suites, "FROZEN_BMO_REVERSE_RATIO", 1.0)
    code, data = run(capsys, "--seed", "3", "check", "bmo", "--size", "4")
    assert code == 1 and data["ok"] is False
    sandwich = [v for v in data["violations"] if v["name"] == "bmo-sandwich"]
    assert any({"observed", "extremizer"} <= set(v["counterexample"]) for v in sandwich)


def test_constants_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["--seed", "5", "--out", str(out1), "check", "bmo", "--size", "4"]) == 0
    capsys.readouterr()
    assert main(["--seed", "5", "--out", str(out2), "check", "bmo", "--size", "4"]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "j, message",
    [
        ("-3000", "level set holds a trapezoid of 261632 vertices, over the budget 100000"),
        ("100000", "threshold 2**200000 is too large to print: |jq| exceeds 14284"),
        ("10000000000", "threshold 2**20000000000 is too large to print: |jq| exceeds 14284"),
    ],
)
def test_decompose_far_threshold_exit_two(tmp_path, capsys, j, message):
    # refused before 2**(jq) is formed or the level-set climb starts
    path = write_func(tmp_path, "g.json", FinFunc.indicator(U))
    code = main(["decompose", "--q", "2", "--j", j, "--in", path])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_decompose_unprintable_report_exit_two(tmp_path, capsys):
    # |jq| = 14284 passes the threshold check, but the report's measure bound
    # l1/2**14284 = 1/2**14285 has 4 301 digits, one more than CPython prints
    path = write_func(tmp_path, "g.json", FinFunc.indicator(U))
    code = main(["decompose", "--q", "2", "--j", "7142", "--in", path])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: a rational of 14286 bits is too large to print: "
        "its numerator or denominator passes 4300 digits\n"
    )


def test_usage_error_exit_two(capsys):
    code = main(["measure", "--vertex", "0:9"])
    capsys.readouterr()
    assert code == 2


def test_missing_file_exit_two(capsys):
    code = main(["bmo-norm", "--q", "1", "--in", "/nonexistent/f.json"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "data",
    [
        [1],
        ["0:1"],
        [{"val": "1"}],
        [{"v": "0:1"}],
        [{"v": 5, "val": "1"}],
        [{"v": "0:1", "val": "1/0"}],
    ],
)
def test_malformed_function_exit_two(tmp_path, capsys, data):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    code = main(["bmo-norm", "--q", "1", "--in", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "data",
    [
        [{"y": "0:", "x": "0:", "val": "1"}],
        {"entries": []},
        {"window": "root=2:,depth=3"},
        {"window": 5, "entries": []},
        {"window": "root=2:,depth=3", "entries": {"y": "0:"}},
        {"window": "root=2:,depth=3", "entries": ["0:"]},
        {"window": "root=2:,depth=3", "entries": [{"y": "0:"}]},
        {"window": "root=2:,depth=3", "entries": [{"x": "0:", "val": "1"}]},
        {"window": "root=2:,depth=3", "entries": [{"y": "0:", "x": "0:"}]},
        {"window": "root=2:,depth=3", "entries": [{"y": 0, "x": "0:", "val": "1"}]},
        {"window": "root=2:,depth=3", "entries": [{"y": "0:", "x": [], "val": "1"}]},
        {"window": "root=2:,depth=3", "entries": [{"y": "0:", "x": "0:", "val": "1/0"}]},
    ],
)
def test_malformed_kernel_exit_two(tmp_path, capsys, data):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(data))
    code = main(["hormander", "--kernel", str(path), "--h-max", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
