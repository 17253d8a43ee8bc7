"""Mutated demo configs: `validate` and `run` agree on what is a config error.

Hypothesis mutates the ten demo configs: it drops, retypes and misspells keys
at every level, adds an unknown key to any object, puts NaN, inf or a
3-number entry into a matrix (or NaN or inf in place of a number), zeroes a
number (a zero tau or coupling entry can break a theorem's hypothesis), bends
a matrix's shape and repeats a seed. For every mutant, `ries validate` exits
2 exactly when `ries run` does (and both do for an unknown key), neither
exits 4 (internal error), and neither prints a traceback. A run that exits 1
has written its summary with at least one false check, and one that exits 0
a summary whose checks are all true.

Before mutating, each config's `n_total` is lowered to 50, only to bound the
runtime of the runs; the mutations themselves do not depend on it.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ries.cli import main

DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
NAMES = sorted(p.stem for p in DEMO_CONFIGS.glob("*.json"))
N_TOTAL = 50  # lowered only to bound the runtime (see the module docstring)
# values of another type than most fields hold
OTHER_TYPES = ("text", 1.5, 2, True, None, [], {}, [[1.0, 0.0]])
EXTRA_KEY = "extra"  # a key no object of a config has


def _load(name: str) -> dict:
    doc = json.loads((DEMO_CONFIGS / f"{name}.json").read_text())
    if "n_total" in doc:
        doc["n_total"] = N_TOTAL
    return doc


def _paths(node, path=()):
    """Every (path, value) below `node`, containers included, the root excluded."""
    if isinstance(node, (dict, list)):
        children = node.items() if isinstance(node, dict) else enumerate(node)
    else:
        children = ()
    for key, value in children:
        yield path + (key,), value
        yield from _paths(value, path + (key,))


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_pair(x) -> bool:
    return isinstance(x, list) and len(x) == 2 and all(map(_is_number, x))


def _is_matrix(x) -> bool:
    return isinstance(x, list) and bool(x) and all(
        isinstance(row, list) and row and all(map(_is_pair, row)) for row in x
    )


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutants(draw):
    name = draw(st.sampled_from(NAMES))
    doc = _load(name)
    paths = list(_paths(doc))
    keyed = [p for p, _ in paths if isinstance(p[-1], str)]
    numbers = [p for p, v in paths if _is_number(v)]
    matrices = [p for p, v in paths if _is_matrix(v)]
    pairs = [p for p, v in paths if _is_pair(v)]
    objects = [()] + [p for p, v in paths if isinstance(v, dict)]
    kinds = ["drop", "retype", "misspell", "extra_key", "non_finite", "zero", "three_numbers", "bend"]
    if "seeds" in doc:
        kinds.append("repeat_seed")
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        path = draw(st.sampled_from(keyed))
        del _get(doc, path[:-1])[path[-1]]
    elif kind == "retype":
        path = draw(st.sampled_from([p for p, _ in paths]))
        _get(doc, path[:-1])[path[-1]] = draw(st.sampled_from(OTHER_TYPES))
    elif kind == "misspell":
        path = draw(st.sampled_from(keyed))
        parent = _get(doc, path[:-1])
        parent[path[-1] + draw(st.sampled_from(("x", "_", "s")))] = parent.pop(path[-1])
    elif kind == "extra_key":
        _get(doc, draw(st.sampled_from(objects)))[EXTRA_KEY] = draw(st.sampled_from(OTHER_TYPES))
    elif kind == "non_finite":
        path = draw(st.sampled_from(numbers))
        _get(doc, path[:-1])[path[-1]] = draw(st.sampled_from((math.nan, math.inf, -math.inf)))
    elif kind == "zero":
        path = draw(st.sampled_from(numbers))
        _get(doc, path[:-1])[path[-1]] = 0.0
    elif kind == "three_numbers":
        _get(doc, draw(st.sampled_from(pairs))).append(0.0)
    elif kind == "bend":
        matrix = _get(doc, draw(st.sampled_from(matrices)))
        how = draw(st.sampled_from(("drop_row", "drop_entry", "add_row", "add_column")))
        if how == "drop_row":
            matrix.pop()
        elif how == "drop_entry":
            matrix[0].pop()
        elif how == "add_row":
            matrix.append(list(matrix[0]))
        else:
            for row in matrix:
                row.append([0.0, 0.0])
    else:
        doc["seeds"] = doc["seeds"] + doc["seeds"][:1]
    return name, kind, doc


def _cli(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, err.getvalue()


@settings(max_examples=120, derandomize=True, deadline=timedelta(seconds=10), database=None)
@given(mutants())
def test_validate_and_run_agree_on_mutated_demo_configs(mutant):
    name, kind, doc = mutant
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        rc_validate, err_validate = _cli("validate", path)
        rc_run, err_run = _cli("run", path, "--out", os.path.join(tmp, "out"))
        if rc_run in (0, 1):
            checks = json.loads(Path(tmp, "out", "summary.json").read_text())["checks"]
    assert rc_validate in (0, 2), (name, kind, err_validate)
    if kind == "extra_key":
        assert rc_validate == rc_run == 2, (name, doc, rc_validate, rc_run)
    if rc_run == 0:
        assert all(checks.values()), (name, kind, checks)
    if rc_run == 1:
        assert not all(checks.values()), (name, kind, checks)
    assert (rc_validate == 2) == (rc_run == 2), (name, kind, rc_validate, rc_run, err_validate, err_run)
    assert rc_run != 4, (name, kind, err_run)
    assert "Traceback" not in err_validate + err_run
