"""Each library name has one import path: a module imports a name only
from the module that defines it, and the package itself imports nothing.
The coset windows are named in one place too."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cosetlfun"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _defined(tree: ast.Module) -> set:
    """Names bound at top level by a def, a class or an assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(
                    n.id for n in ast.walk(target) if isinstance(n, ast.Name)
                )
    return names


DEFINED = {p.stem: _defined(_tree(p)) for p in MODULES}


def test_package_imports_nothing():
    tree = _tree(SRC / "__init__.py")
    imports = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_relative_imports_name_their_definition(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                assert alias.name in DEFINED[node.module], (
                    f"{path.name}:{node.lineno} imports {alias.name} from "
                    f".{node.module}, which does not define it"
                )


def test_window_names_only_where_the_windows_are_stated():
    # `characters.classify_regime` names the windows and `gauss.eps_regimes`
    # maps them to closed forms; every other module reads eps_regimes
    names = {"thm11", "thm12", "both"}
    found = {
        path.name
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Constant) and node.value in names
    }
    assert found == {"characters.py", "gauss.py"}


def test_cli_import_loads_neither_fft_nor_random():
    # numpy.fft (about 0.56 MiB and 1.5 ms) is reached only inside the calls
    # that use it, no subcommand reads numpy.random (about 6 MiB) or
    # cosetlfun.batched, and the seeded stream is imported on the first
    # draw: every child would otherwise compile it
    script = (
        "import sys, cosetlfun.cli\n"
        "names = ('numpy.fft', 'numpy.random', 'cosetlfun.batched', 'cosetlfun.seeded')\n"
        "print(sorted(m for m in names if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _modules_raising(message: str) -> set:
    """Names of the modules with a raise statement whose text has message."""
    return {
        path.name
        for path in MODULES
        for raised in ast.walk(_tree(path))
        if isinstance(raised, ast.Raise)
        for node in ast.walk(raised)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and message in node.value
    }


def test_modulus_rule_stated_only_in_modular():
    # `modular.check_modulus` states which (p, k) are moduli; the CLI
    # applies it to the grid instead of restating its checks
    cli_imports = {
        alias.name
        for node in ast.walk(_tree(SRC / "cli.py"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not cli_imports & {"MAX_MODULUS", "is_prime", "check_size"}
    for message in ("is not an odd prime", "exponent must be >= 1"):
        assert _modules_raising(message) == {"modular.py"}, message


def test_moment_level_rule_stated_only_in_characters():
    # `characters.proper_level` states 1 <= j < k; the moment and recipe
    # handlers take every power of p from its q0, so none is formed before
    # the level is checked
    assert _modules_raising("outside [1,") == {"characters.py"}
    handlers = {
        node.name: node
        for node in _tree(SRC / "cli.py").body
        if isinstance(node, ast.FunctionDef)
    }
    for name in ("cmd_moment", "cmd_recipe"):
        powers = [
            ast.unparse(node)
            for node in ast.walk(handlers[name])
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        ]
        assert powers == [], name


def test_work_cap_and_level_range_stated_once():
    # `lcentral.require_work` is the one refusal of work over the cap, and
    # `characters.level_modulus` states 0 <= j <= k and forms q0 = p^j, so
    # the hybrid scans and the coset shift identity form no power of p
    raisers = {
        (path.name, func.name)
        for path in MODULES
        for func in ast.walk(_tree(path))
        if isinstance(func, ast.FunctionDef)
        for raised in ast.walk(func)
        if isinstance(raised, ast.Raise) and "point-terms" in ast.unparse(raised)
    }
    assert raisers == {("lcentral.py", "require_work")}
    assert _modules_raising("outside [0,") == {"characters.py"}
    handlers = {
        node.name: node
        for node in _tree(SRC / "cli.py").body
        if isinstance(node, ast.FunctionDef)
    }
    scopes = {
        "cmd_hybrid": handlers["cmd_hybrid"],
        "hybrid.py": _tree(SRC / "hybrid.py"),
        "vdc.py": _tree(SRC / "vdc.py"),
    }
    for name, scope in scopes.items():
        bases = {
            ast.unparse(node.left)
            for node in ast.walk(scope)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        }
        assert not bases & {"p", "m.p"}, (name, bases)


def test_lemma9_scan_runs_as_whole_array_passes():
    # `char_sum_S` loops only over blocks of shifts and `lemma9_scan` forms
    # its shifts and frequencies as arrays, so no Python work is done per
    # shift, frequency or cell
    source = (SRC / "hybrid.py").read_text()
    assert ".tolist()" not in source and "map(abs" not in source
    funcs = {
        node.name: node
        for node in _tree(SRC / "hybrid.py").body
        if isinstance(node, ast.FunctionDef)
    }
    loops = [
        node for node in ast.walk(funcs["char_sum_S"])
        if isinstance(node, (ast.For, ast.comprehension))
    ]
    assert len(loops) == 1 and ast.unparse(loops[0].iter).startswith("blocks(")
    ranges = {
        ast.unparse(gen.iter)
        for node in ast.walk(funcs["lemma9_scan"])
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp))
        for gen in node.generators
    }
    assert not ranges & {"range(1, A + 1)", "range(1, B + 1)"}


def test_dataclasses_are_the_validated_and_mutable_records():
    # value-only records are NamedTuples; a dataclass either checks its
    # fields in __post_init__, is mutated, or has a factory default
    found = {
        node.name
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
    }
    assert found == {
        "DirichletCharacter", "CosetSpec", "FiniteSequence",
        "RunResult", "Lemma9Scan", "Subcommand",
    }
