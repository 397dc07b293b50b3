"""Seeded fuzz of every command but `check` and `constants`.

Each case starts from valid arguments and input files and replaces some of
them with far vertices, huge or negative integers, zero denominators,
far decimal exponents, malformed strings or empty lists.  Run in-process through `cli.main`, every
case must end with exit code 0 and a JSON report, or exit code 2 and no
traceback: a one-line "error: ..." from the command, or argparse's usage
message.
"""

import json
import random

import pytest

from treebmo.cli import main

FAR = ["1000000000:", "-1000000000:", "1000000000:1", "-999999999:10"]
BAD_VERTEX = ["", "x", ":", "0:9", "0:-1", "1:2:3", "0:1 1"]
HUGE = ["1000000000", "-1000000000", "-1", "0"]
BAD_INT = ["", "x", "1.5", "1/2"]
BAD_FRAC = ["1/0", "-3/0", "x", "", "1//2", "nan", "inf", "1e1000000000"]
BELOW_ONE = ["-1000000000", "-1", "0", "1/2"]
MUTATE = 0.15  # the chance that one input is replaced


def _pick(rng: random.Random, valid: str, *pools: list[str]) -> str:
    return rng.choice(rng.choice(pools)) if rng.random() < MUTATE else valid


def _vertex(rng: random.Random, valid: str) -> str:
    return _pick(rng, valid, FAR, BAD_VERTEX)


def _int(rng: random.Random, valid: str) -> str:
    return _pick(rng, valid, HUGE, BAD_INT)


def _frac(rng: random.Random, valid: str) -> str:
    return _pick(rng, valid, BAD_FRAC, HUGE)


def _window(rng: random.Random, root: str, depth: str) -> str:
    if rng.random() < MUTATE / 2:
        return rng.choice(["", "root=0:", "depth=2", "root=0:,depth=", "x=1,y=2"])
    return f"root={_vertex(rng, root)},depth={_int(rng, depth)}"


def _set(rng: random.Random, tag: str) -> str:
    if rng.random() < MUTATE / 2:
        return rng.choice([tag, f"{tag} root=0:", f"{tag} h=2", "cz root=0: h=2 extra"])
    return f"{tag} root={_vertex(rng, '0:')} h={_int(rng, '2')}"


def _function(rng: random.Random, entries: list[tuple[str, str]]):
    if rng.random() < MUTATE / 3:
        return rng.choice([[], {}, "0:1", [1], [{"v": "0:1"}], [{"val": "1"}]])
    return [{"v": _vertex(rng, v), "val": _frac(rng, val)} for v, val in entries]


def _kernel(rng: random.Random):
    if rng.random() < MUTATE / 3:
        return rng.choice([[], {}, {"window": "root=4:,depth=8"}, {"entries": []}])
    entries = [
        {"y": _vertex(rng, y), "x": _vertex(rng, x), "val": _frac(rng, val)}
        for y, x, val in (("0:1", "0:1", "1"), ("-1:", "-1:", "1/3"))
    ]
    if rng.random() < MUTATE / 3:
        entries = []
    return {"window": _window(rng, "4:", "8"), "entries": entries}


def _argv(rng: random.Random, command: str, tmp_path) -> list[str]:
    def dump(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    f = dump("f.json", _function(rng, [("0:1", "1"), ("-1:", "1/3")]))
    g = dump("g.json", _function(rng, [("0:1", "1/3"), ("-1:", "-1/3")]))
    # no huge exponent: at q = 1000 the float q-oscillations of values 1/3
    # underflow to 0.0, and a bmo-norm climb never leaves its zero best
    q = f"--q={_pick(rng, rng.choice(['1', '2', '3/2']), BAD_FRAC, BELOW_ONE)}"
    where = rng.choice(
        [[f"--at={_vertex(rng, '0:1')}"], [f"--window={_window(rng, '1:', '2')}"]]
    )
    argv = {
        "measure": rng.choice(
            [
                [f"--vertex={_vertex(rng, '0:1')}"],
                ["--ball", _vertex(rng, "0:"), _int(rng, "2")],
                [f"--cz={_set(rng, 'cz')}"],
                [f"--trapezoid={_set(rng, 'trapezoid')}"],
            ]
        ),
        "ball": [f"--center={_vertex(rng, '0:')}", f"--radius={_int(rng, '2')}", "--members"],
        "cz": [f"--trapezoid={_set(rng, 'trapezoid')}"],
        "cover": rng.choice([[f"--n={_int(rng, '3')}"], [f"--vertex={_vertex(rng, '2:1')}"]]),
        "bmo-norm": [q, "--in", g],
        "sharp": [q, *where, "--in", g],
        "maximal": [*where, "--in", f],
        "decompose": [
            f"--q={_int(rng, '2')}",
            "--in",
            g,
            *rng.choice([["--all"], [f"--j={_int(rng, '-1')}"]]),
        ],
        "h1": [
            "--in",
            g,
            f"--family=auto:{_window(rng, '1:', '3')}",
            f"--candidates=random:{_int(rng, '3')}:{_int(rng, '1')}",
        ],
        "hormander": [
            f"--kernel={dump('k.json', _kernel(rng))}",
            f"--family=auto:{_window(rng, '4:', '8')}",
            f"--h-max={_int(rng, '1')}",
        ],
    }[command]
    head = []
    if rng.random() < MUTATE:
        head.append(f"--m={_int(rng, '3')}")
    if rng.random() < MUTATE:
        head.append(f"--window={_window(rng, '2:', '2')}")
    return [*head, command, *argv]


CASES = 40  # per command
COMMANDS = ["measure", "ball", "cz", "cover", "bmo-norm", "sharp", "maximal",
            "decompose", "h1", "hormander"]


@pytest.mark.parametrize("command", COMMANDS)
def test_mutated_inputs_exit_zero_or_two(command, tmp_path, capsys):
    rng = random.Random(f"cli-fuzz:{command}")
    for _ in range(CASES):
        argv = _argv(rng, command, tmp_path)
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's usage error
            code, usage = e.code, True
        except Exception as e:
            raise AssertionError(f"{argv} raised") from e
        else:
            usage = False
        out, err = capsys.readouterr()
        assert code in (0, 2), (argv, code, err)
        assert "Traceback" not in err, argv
        if code == 0:
            json.loads(out)
        elif not usage:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
