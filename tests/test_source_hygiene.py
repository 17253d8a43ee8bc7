"""Static checks on the package source, so dead code cannot grow back.

Every module-level import in ``src/ries/*.py`` must be used (names listed
in ``__all__`` count as used), and no module may reach into another
``ries`` module's underscore-prefixed names, by import or by attribute.
``ries.__all__`` lists exactly the names the package namespace imports.
A seed becomes a random stream in one place only, and a walk turns its
seeds into paths in one place, so no second seed convention can grow
back, and a window family is data (A_S and a per-slot table of B), so
``ries.thermo`` builds no per-tuple window. Probes that skip
their own checks are built for the presample alone, which checks its draws.
A config is built into typed inputs in one place, the cli asks the oracle
about every m in one call, only the cli builds summary payloads, and helpers
that only the tests use stay out of the package. Only construction and validation code
raises the library's own errors: a theorem's hypothesis is a runner's check.
"""

import ast
from pathlib import Path

import pytest

import ries

SRC = Path(__file__).resolve().parent.parent / "src" / "ries"
MODULES = sorted(SRC.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _used_names(tree: ast.Module) -> set[str]:
    used = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            annotations = [a.annotation for a in args] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for ann in annotations:  # quoted annotations such as "rdo_mod.Rdo"
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _names(ast.parse(ann.value, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def _is_ries_import(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "ries"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = _parse(path)
    used = _used_names(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_access(path):
    tree = _parse(path)
    module_aliases = set()
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_ries_import(node):
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append(alias.name)
                if node.module is None or node.module == "ries":  # `from . import rdo`
                    module_aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases
            and node.attr.startswith("_")
        ):
            private.append(f"{node.value.id}.{node.attr}")
    assert not private, f"{path.name}: uses private names of other modules {private}"


def test_all_lists_exactly_the_package_imports():
    """`ries.__all__` names what `ries/__init__.py` imports, no more and no less."""
    imported = [
        alias.asname or alias.name
        for node in _parse(SRC / "__init__.py").body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(ries.__all__) == sorted(imported)


def _uses_by_function(tree: ast.Module, name: str, scope: str = "") -> set[str]:
    """Qualified names of the functions whose bodies read `name`."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= _uses_by_function(node, name, f"{scope}{node.name}.")
        elif any(
            (isinstance(n, ast.Name) and n.id == name)
            or (isinstance(n, ast.Attribute) and n.attr == name)
            for n in ast.walk(node)
        ):
            found.add(scope.rstrip(".") or "<module>")
    return found


@pytest.mark.parametrize(
    "name, allowed",
    [
        (
            "trajectory_rng",
            {
                "ensemble.py:RrdoEnsemble.sample_paths",
                "ensemble.py:RrdoEnsemble.presampled",
                "cli.py:_run_oracle_check",
            },
        ),
        ("SeedSequence", {"ensemble.py:trajectory_rng"}),
    ],
)
def test_one_seed_convention(name, allowed):
    """Trajectory streams come from `RrdoEnsemble.sample_paths`; seeds go nowhere else."""
    used = {f"{p.name}:{f}" for p in MODULES for f in _uses_by_function(_parse(p), name)}
    assert used == allowed


@pytest.mark.parametrize(
    "name, allowed",
    [
        ("_purified_chain", {"model.py:full_chain_expectation"}),
        ("reduce_windows", {"model.py:reduce_instant", "thermo.py:observable_family"}),
        ("step_unitaries", {"model.py:encounters"}),
        ("_word_tables", {"ensemble.py:cesaro_means", "ensemble.py:_walk_tables"}),
        ("_word_length", {"ensemble.py:cesaro_means", "ensemble.py:_walk_tables"}),
        ("sample_paths", {"ensemble.py:_start"}),
        ("_e1_frame", {"ensemble.py:RrdoEnsemble.e1", "ensemble.py:RrdoEnsemble.e1_heisenberg"}),
        (
            "_walk_tables",
            {
                "ensemble.py:simulate_forward",
                "ensemble.py:decay_estimator",
                "ensemble.py:simulate_reverse",
                "ensemble.py:lyapunov",
            },
        ),
        ("walk_tables", {"ensemble.py:RrdoEnsemble.__init__", "ensemble.py:_walk_tables"}),
    ],
)
def test_one_path_per_reduction(name, allowed):
    """The chain engine serves only the oracle, and every window reduction is the
    stacked one, so an oracle check compares two independent code paths; every
    step unitary comes from one `Encounters` stack, which the reductions read;
    every trajectory walk that steps words reads them from one table builder, at
    one word length rule: the Monte Carlo means, per call, and the forward,
    reverse and Lyapunov kernels, whose word walks `_words` cuts; the four
    matrix kernels, decay's single steps included, read their tables at every
    k from the ensemble's one cache, which only `_walk_tables` fills; every
    walk steps atoms in the e_1 basis of one helper, which only the ensemble's
    cached stacks call: the kernels' and the instant means' (`e1`) and the flux
    walk's (`e1_heisenberg`), so plain products keep the conserved component;
    and every walk turns its seeds into paths in `_start`."""
    used = {f"{p.name}:{f}" for p in MODULES for f in _uses_by_function(_parse(p), name)}
    assert used == allowed


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_oracle_is_called_outside_loops():
    """The cli asks the oracle about every m in one call, which evolves the chain once:
    no `full_chain_oracle` or `full_chain_expectation` call sits in a loop body, where
    it would evolve the chain from step 1 again on every pass."""
    oracles = {"full_chain_oracle", "full_chain_expectation"}
    looped = [
        call.func.id
        for loop in ast.walk(_parse(SRC / "cli.py"))
        if isinstance(loop, _LOOPS)
        for call in ast.walk(loop)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id in oracles
    ]
    assert _uses_by_function(_parse(SRC / "cli.py"), "full_chain_oracle") == {"_run_oracle_check"}
    assert not looped, looped


def test_thermo_reads_no_observable_window():
    """Window families pass A_S and a table of B to `reduce_windows`, never a window."""
    tree = _parse(SRC / "thermo.py")
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert "ObservableWindow" not in imported and not _uses_by_function(tree, "ObservableWindow")


def test_unchecked_probes_only_in_presampled():
    """`scaled_probes` skips ProbeSpec's per-probe checks, so its one caller is the
    presample, which checks its draws; and the ensemble does not copy probes with
    `dataclasses.replace`, which would re-run those checks once per atom."""
    used = {f"{p.name}:{f}" for p in MODULES for f in _uses_by_function(_parse(p), "scaled_probes")}
    assert used == {"ensemble.py:RrdoEnsemble.presampled"}
    tree = _parse(SRC / "ensemble.py")
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert "replace" not in imported


def _defined(tree: ast.AST) -> set[str]:
    return {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}


def test_test_only_helpers_stay_out_of_the_package():
    """Taking spectral norms, writing vectors, matrices, model documents and JSON text
    and drawing random complex matrices serve the tests alone: they live in
    ``tests/dense_reference.py``. One
    probe's step unitary, Heisenberg map or Gibbs state is the one-row case of its
    stacked builder, which the tests call directly."""
    defined = set().union(*(_defined(_parse(p)) for p in MODULES))
    test_only = {
        "model_to_json",
        "dumps_json",
        "random_complex_matrix",
        "matrix_to_json",
        "complex_to_json",
        "vector_to_json",
        "spectral_norm",
    }
    one_row = {"step_unitary", "reduced_heisenberg_map", "gibbs"}
    assert not defined & (test_only | one_row)


def test_only_the_cli_builds_payloads():
    """The cli alone knows the run formats: no other module gives a report a JSON form
    (a ``to_json`` method) or turns a dataclass into a dict (``asdict``)."""
    found = []
    for path in MODULES:
        if path.name == "cli.py":
            continue
        tree = _parse(path)
        calls = {
            call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))
        }
        if "to_json" in _defined(tree):
            found.append(f"{path.name} defines to_json")
        if "asdict" in calls:
            found.append(f"{path.name} calls asdict")
    assert not found, found


def test_configs_are_built_in_one_place():
    """The cli's loader is the one place where a config's model, ensemble and
    matrices become typed inputs: no runner calls a ``*_from_json`` builder, and
    the cli keeps no copy of the builders' checks."""
    cli = _parse(SRC / "cli.py")
    for name in ("model_from_json", "ensemble_from_json", "matrix_from_json"):
        assert _uses_by_function(cli, name) == {"_load"}, name
    copies = {"_check_model_doc", "_check_presample", "_check_ensemble", "_check_psi_s", "_parse_matrix"}
    assert not _defined(cli) & copies


def _raisers(tree: ast.AST, names: set[str], scope: str = "") -> set[str]:
    """Qualified names of the functions that raise one of `names`, called or bare."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= _raisers(node, names, f"{scope}{node.name}.")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in names:
                found.add(scope.rstrip(".") or "<module>")
        else:
            found |= _raisers(node, names, scope)
    return found


def test_library_errors_only_in_construction_and_validation():
    """EnsembleError and RdoValidationError reject malformed input while it is built or
    validated; no kernel raises on a theorem's hypothesis, which the runners check."""
    allowed = {
        "ensemble.py:RrdoEnsemble.__init__",
        "ensemble.py:RrdoEnsemble.from_matrices",
        "thermo.py:_require_models",
        "rdo.py:Rdo.__post_init__",
        "rdo.py:validate",
        "rdo.py:rank_one_split",
        "rdo.py:_spectral_projection_one",
    }
    names = {"EnsembleError", "RdoValidationError"}
    raised = {f"{p.name}:{f}" for p in MODULES for f in _raisers(_parse(p), names)}
    assert raised and raised <= allowed, sorted(raised - allowed)


def test_checks_see_every_module():
    assert {p.name for p in MODULES} >= {"cli.py", "ensemble.py", "model.py", "thermo.py"}
