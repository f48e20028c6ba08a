"""Fuzz the CLI's file boundary: mutated dataset, query, prediction and model files.

Each case takes a valid file, mutates its bytes (or, for a model file, one JSON value),
and runs the command that reads it through ``cli.main`` in process. Whatever the input,
the command must end with a documented exit code (0, 2, 3 or 4) and no exception may
escape. The mutations are drawn from a fixed seed per target, so every run tries the
same inputs.
"""

import json
import random

import pytest

from ivforest.cli import main

MUTATIONS_PER_TARGET = 400
EXIT_CODES = {0, 2, 3, 4}
BAD_VALUES = [1e308, -1e308, 10**30, -(10**30), 1e30, -1, -1.5, 0, 2**63, [[1, [2]]],
              {"a": [1]}, [], {}, "x", "", None, True, [None]]
MODELS = ("ccrm", "ke", "rf")


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid inputs: a training dataset, a query file, a model file per model and a
    prediction file."""
    d = tmp_path_factory.mktemp("fuzz")
    out = {"dataset": d / "train.csv", "query": d / "query.csv"}
    assert run("simulate", "--setting", 2, "--n", 30, "--seed", 1, "--out", out["dataset"]) == 0
    assert run("simulate", "--setting", 2, "--n", 12, "--seed", 2, "--out", out["query"]) == 0
    for model in MODELS:
        out[model] = d / f"{model}.json"
        assert run("fit", "--model", model, "--in", out["dataset"], "--out", out[model],
                   "--trees", 3, "--seed", 1) == 0
    out["predictions"] = d / "pred.csv"
    assert run("predict", "--model-file", out["rf"], "--in", out["query"],
               "--out", out["predictions"]) == 0
    return out


def mutate_bytes(data: bytes, rng: random.Random) -> tuple[str, bytes]:
    """One byte-level mutation of ``data`` and its description."""
    at = rng.randrange(len(data) + 1)
    kind = rng.choice(["truncate", "flip", "non-utf8", "nul", "blank lines", "long cell",
                       "underscore", "non-ascii digit"])
    if kind == "truncate":
        return f"truncate at {at}", data[:at]
    if kind == "flip":
        at = min(at, len(data) - 1)
        mask = rng.randrange(1, 256)
        return f"flip byte {at} by {mask:#x}", data[:at] + bytes([data[at] ^ mask]) + data[at + 1:]
    insert = {"non-utf8": rng.choice([b"\xff", b"\xc3\x28", b"\x80", b"\xed\xa0\x80"]),
              "nul": b"\x00", "blank lines": b"\n\n\r\n",
              "long cell": rng.choice([b"9", b" ", b"x"]) * 140_000,
              "underscore": b"_", "non-ascii digit": "\u0663".encode()}[kind]  # Arabic-Indic 3
    return f"insert {kind} at {at}", data[:at] + insert + data[at:]


def json_slots(doc, path=()):
    """The key path of every value inside ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from json_slots(value, path + (key,))


def mutate_json(data: bytes, rng: random.Random) -> tuple[str, bytes]:
    """Swap one value of a model file for a huge, negative, nested or wrong-typed one."""
    doc = json.loads(data)
    slots = list(json_slots(doc))
    # the tree arrays hold most slots; weight the envelope and bodies' own keys alike
    slot = rng.choice(slots if rng.random() < 0.5 else [s for s in slots if len(s) <= 2])
    value = rng.choice(BAD_VALUES)
    parent = doc
    for key in slot[:-1]:
        parent = parent[key]
    parent[slot[-1]] = value
    return f"set {list(slot)} to {value!r}", json.dumps(doc).encode()


def argv_for(target: str, path, files, out, i: int) -> list:
    """The command that reads ``path`` in place of the ``target`` file."""
    model = MODELS[i % len(MODELS)]
    if target == "dataset":
        return ["fit", "--model", model, "--in", path, "--out", out, "--trees", 3, "--seed", i]
    if target == "query":
        return ["predict", "--model-file", files[model], "--in", path, "--out", out]
    if target == "predictions":
        return ["evaluate", "--pred", path, "--truth", files["query"], "--out", out]
    return ["predict", "--model-file", path, "--in", files["query"], "--out", out]


@pytest.mark.parametrize("target", ["dataset", "query", "predictions", *MODELS])
def test_mutated_file_exits_with_documented_code(target, files, tmp_path, capsys):
    rng = random.Random(f"fuzz/{target}")
    valid = files[target].read_bytes()
    path, out = tmp_path / files[target].name, tmp_path / "out"
    for i in range(MUTATIONS_PER_TARGET):
        if target in MODELS and rng.random() < 0.5:
            what, data = mutate_json(valid, rng)
        else:
            what, data = mutate_bytes(valid, rng)
        path.write_bytes(data)
        try:
            code = run(*argv_for(target, path, files, out, i))
        except Exception as exc:  # any escape is the failure this test reports
            pytest.fail(f"mutation {i} ({what}) of {target} raised {exc!r}")
        assert code in EXIT_CODES, f"mutation {i} ({what}) of {target} exited {code}"
    capsys.readouterr()
