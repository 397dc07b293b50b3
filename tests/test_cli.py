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
from treebmo.maximal import hl_maximal, sharp_maximal
from treebmo.randgen import nonzero_function
from treebmo.sets import CZSet
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


def test_maximal_window_prints_the_per_point_bytes(tmp_path, capsys):
    phi = abs(nonzero_function(T2, Window(Vertex(2, ()), 4), 11, "sparse", 0))
    path = write_func(tmp_path, "phi.json", phi)
    assert main(["maximal", "--window", "root=0:,depth=8", "--in", path]) == 0
    per_point = {
        format_vertex(x): jsonio.maximal_json(T2, hl_maximal(T2, phi, x))
        for x in Window(Vertex(0, ()), 8).members(T2)
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


@pytest.mark.parametrize(
    "option, value, message",
    [
        # about 2**38 roots: refused from the closed-form count, before any is listed
        ("--family", "auto:root=1:,depth=40",
         "family auto:root=1:,depth=40 holds more than the cap of 64 CZ sets"),
        ("--family", "auto:root=1:,depth=1000000000",
         "family auto:root=1:,depth=1000000000 holds more than the cap of 64 CZ sets"),
        ("--candidates", "random:3:-5", "candidate count -5 is not in 0..10000"),
        # refused before any of the 10**8 candidates is built
        ("--candidates", "random:3:100000000", "candidate count 100000000 is not in 0..10000"),
    ],
)
def test_h1_over_budget_exit_two(tmp_path, capsys, option, value, message):
    atom = FinFunc({U: Fraction(1, 3), Vertex(-1, ()): Fraction(-1, 3)})
    path = write_func(tmp_path, "g.json", atom)
    code = main(["h1", "--in", path, option, value])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("spec", ["random:3", "sparse:3:4", "random:x:4", "random:3:many"])
def test_malformed_candidates_exit_two(tmp_path, capsys, spec):
    atom = FinFunc({U: Fraction(1, 3), Vertex(-1, ()): Fraction(-1, 3)})
    path = write_func(tmp_path, "g.json", atom)
    code = main(["h1", "--in", path, "--candidates", spec])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_hormander_set_of_a_million_members(tmp_path, capsys, monkeypatch):
    # CZSet(0:, 5) holds 1 048 568 members.  The auto family of a window
    # deep enough for it lists about 4 million sets, so the family here is
    # that window's one set of height h_max at its root.
    def one_set(tree, window, h_max):
        return [CZSet(window.root, h_max)]

    monkeypatch.setattr(cli, "cz_in_window", one_set)
    monkeypatch.setattr(cli, "cz_in_window_count", lambda tree, window, h_max, cap: 1)
    path = tmp_path / "k.json"
    entries = [{"y": "0:1111", "x": "0:1", "val": "1"}]
    path.write_text(json.dumps({"window": "root=0:,depth=21", "entries": entries}))
    code, data = run(capsys, "hormander", "--kernel", str(path), "--h-max", "5",
                     "--family", "auto:root=0:,depth=21")
    assert code == 0
    assert (data["value"], data["witness_pair"]) == ("1/2", ["-19:", "0:1111"])


@pytest.mark.parametrize(
    "options, message",
    [
        # about 2**38 roots: refused from the closed-form count, before any is listed
        (["--h-max", "1", "--family", "auto:root=1:,depth=40"],
         "family auto:root=1:,depth=40 holds more than the cap of 10000 CZ sets"),
        (["--h-max", "0", "--family", "auto:root=4:,depth=8"], "--h-max 0 is below 1"),
        (["--h-max", "-3"], "--h-max -3 is below 1"),
    ],
)
def test_hormander_refusals_exit_two(tmp_path, capsys, options, message):
    path = tmp_path / "k.json"
    entries = [{"y": "0:1", "x": "0:1", "val": "1"}]
    path.write_text(json.dumps({"window": "root=4:,depth=8", "entries": entries}))
    code = main(["hormander", "--kernel", str(path), *options])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


ATOM = FinFunc({U: Fraction(1, 3), Vertex(-1, ()): Fraction(-1, 3)})
SIX = FinFunc({U: Fraction(6), Vertex(-1, ()): Fraction(-6)})  # 6**1000 passes the largest float
TWO = FinFunc({Vertex(30, ()): Fraction(2)})  # 2**1000 does not, but times the weight 2**30 does
BUDGET = "holds more than the budget of 100000 vertices"
POWER = "a float |x|**q passes the largest float at q = 1000"
UNPRINTABLE = "bits is too large to print: its numerator or denominator passes 4300 digits"


@pytest.mark.parametrize(
    "argv, message",
    [
        # refused from the closed-form count, before any vertex is listed
        (["sharp", "--window", "root=0:,depth=1000000000"],
         f"window root=0:,depth=1000000000 {BUDGET}"),
        (["maximal", "--window", "root=0:,depth=17"], f"window root=0:,depth=17 {BUDGET}"),
        (["ball", "--center", "0:", "--radius", "20"], f"ball of radius 20 about 0: {BUDGET}"),
        # refused from the digits of m**|level| before the power is formed
        (["--m", "3", "measure", "--ball", "0:", "100000000"],
         f"a rational of 158496252 {UNPRINTABLE}"),
        (["measure", "--vertex", "1000000000:"], f"a rational of 1000000001 {UNPRINTABLE}"),
        (["cover", "--n", "1000000000"], f"a rational of 1000000001 {UNPRINTABLE}"),
        (["cover", "--vertex=-1000000000:"], f"a rational of 1000000001 {UNPRINTABLE}"),
        (["maximal", "--at", "1000000000:"], f"a rational of 1000000001 {UNPRINTABLE}"),
        (["sharp", "--at=-1000000000:"], f"a rational of 1000000001 {UNPRINTABLE}"),
        (["sharp", "--q", "1/0", "--at", "0:"], "rational '1/0' has a zero denominator"),
        (["bmo-norm", "--q=-3/0"], "rational '-3/0' has a zero denominator"),
        (["sharp", "--q=1e1000000000", "--at", "0:"], f"a rational of 3321928095 {UNPRINTABLE}"),
        # |1/3|**(10**9) and 2**(-10**9) are refused before they are formed
        (["decompose", "--q", "1000000000", "--j", "0"], f"a rational of 1584962501 {UNPRINTABLE}"),
        (["decompose", "--q", "1000000000", "--all"], f"a rational of 1584962501 {UNPRINTABLE}"),
        # a float route's |x|**q is refused where it overflows, before any climb
        (["bmo-norm", "--q=1000", "--in", "SIX"], POWER),
        (["sharp", "--q=1000", "--at", "0:", "--in", "SIX"], POWER),
        (["check", "sharp", "--q", "1000", "--size", "1"], POWER),
        # or where the sum overflows to inf without raising
        (["bmo-norm", "--q=1000", "--in", "TWO"], POWER),
        (["sharp", "--q=1000", "--at", "30:", "--in", "TWO"], POWER),
    ],
)
def test_far_input_exit_two(tmp_path, capsys, argv, message):
    path = write_func(tmp_path, "g.json", ATOM)
    named = {"SIX": SIX, "TWO": TWO}
    argv = [write_func(tmp_path, f"{a}.json", named[a]) if a in named else a for a in argv]
    if argv[0] in {"sharp", "maximal", "bmo-norm", "decompose"} and "--in" not in argv:
        argv = [*argv, "--in", path]
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_decompose_far_exponent_of_a_unit_function_exit_two(tmp_path, capsys):
    # |g|**q = 1 is formed; the thresholds 2**(jq) are refused
    path = write_func(tmp_path, "g.json", FinFunc({U: Fraction(1), Vertex(-1, ()): Fraction(-1)}))
    for extra in (["--j", "-1"], ["--all"]):
        assert main(["decompose", "--q", "1000000000", "--in", path, *extra]) == 2
        assert capsys.readouterr().err == (
            "error: threshold 2**-1000000000 is too large to print: |jq| exceeds 14284\n"
        )


def test_h1_candidates_from_a_window_too_long_to_draw_from_exit_two(tmp_path, capsys):
    path = write_func(tmp_path, "g.json", ATOM)
    code = main(["--m", "1000000000", "h1", "--in", path, "--family", "auto:root=1:,depth=3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: window root=1:,depth=3 has over ") and err.count("\n") == 1


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
        [{"v": "0:1", "val": "1e100000000"}],
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
