"""Every cusketch name the benchmark harness reads still exists.

The harness under perfbench/ imports cusketch names and reads cusketch
attributes; deleting one breaks the benchmark without failing any other
test here. Its sources are parsed, never imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

import cusketch
from cusketch import cli
from cusketch.kernel import TransitionKernel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _dotted(node: ast.Attribute) -> list[str] | None:
    """["cusketch", "cli", "main"] for `cusketch.cli.main`; None for another root."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == cusketch.__name__:
        return [node.id, *reversed(parts)]
    return None


def _reads(tree: ast.AST):
    """Yield the dotted cusketch name of each import and outermost attribute read."""
    inner = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == cusketch.__name__:
                for alias in node.names:
                    yield [*node.module.split("."), alias.name]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == cusketch.__name__:
                    yield alias.name.split(".")
        elif isinstance(node, ast.Attribute):
            outermost = id(node) not in inner  # ast.walk meets outer reads first
            inner.add(id(node.value))
            parts = _dotted(node) if outermost else None
            if parts:
                yield parts


def _resolves(parts: list[str]) -> bool:
    """An attribute resolves if it exists or names an importable submodule."""
    obj = importlib.import_module(parts[0])
    for i, attr in enumerate(parts[1:], start=2):
        if not hasattr(obj, attr):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ModuleNotFoundError:
                return False
        obj = getattr(obj, attr)
    return True


def _all_reads() -> list[tuple[str, str]]:
    reads = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        reads += [(path.name, ".".join(parts)) for parts in _reads(tree)]
    return sorted(set(reads))


READS = _all_reads()


def test_the_harness_reads_cusketch_names():
    assert len(READS) >= 20


@pytest.mark.parametrize("source, name", READS)
def test_name_resolves(source, name):
    assert _resolves(name.split(".")), f"{source} reads {name}, which is gone"


def _kernel_reads() -> list[str]:
    """Each attribute the harness reads off a variable named `kernel`, a TransitionKernel."""
    names = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "kernel":
                names.add(node.attr)
    return sorted(names)


@pytest.mark.parametrize("name", _kernel_reads())
def test_kernel_attribute_exists(name):
    fields = TransitionKernel.__dataclass_fields__
    assert hasattr(TransitionKernel, name) or name in fields, f"perfbench reads kernel.{name}"


def _pinned_verify_checks() -> list[str]:
    """`VERIFY_CHECKS` as perfbench/workloads.py assigns it, read without importing it."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    for node in tree.body:
        names = [getattr(target, "id", None) for target in getattr(node, "targets", [])]
        if names == ["VERIFY_CHECKS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("workloads.py assigns no VERIFY_CHECKS")


def test_verify_runs_the_checks_the_benchmark_pins():
    # verify-full's output check fails on any added, renamed or reordered check
    assert [name for name, _ in cli._verify_checks("full")] == _pinned_verify_checks()
