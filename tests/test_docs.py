"""Documentation gates: docstring coverage and docs-tree integrity.

Locally-enforced mirrors of the CI lint job:

* a docstring-coverage floor over ``src/repro`` (the CI job runs the
  real ``interrogate`` with the config in ``pyproject.toml``; this AST
  walk applies the same counting rules so the gate cannot pass locally
  and fail in CI);
* every relative markdown link in the documentation tree must resolve
  to an existing file;
* every fully qualified ``repro.…`` name the documentation cites in
  backticks must import and resolve (skipped where ``repro`` itself
  cannot be imported).
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: Must match ``[tool.interrogate] fail-under`` in pyproject.toml.
COVERAGE_FLOOR = 80.0

#: Documentation surfaces whose relative links are checked.
DOC_FILES = sorted([REPO_ROOT / "README.md", REPO_ROOT / "DESIGN.md",
                    REPO_ROOT / "ROADMAP.md",
                    *(REPO_ROOT / "docs").glob("*.md")])

MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: A fully qualified name in backticks, e.g. `repro.fleet.wire`.
QUALIFIED_NAME = re.compile(r"`(repro(?:\.\w+)+)`")


def _is_magic(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _countable_nodes(tree: ast.Module):
    """Yield the definitions interrogate would count under our config:
    module + public classes/functions/methods; skipping private names,
    ``__init__`` and other magic methods, and nested functions."""
    yield tree
    stack = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if not child.name.startswith("_"):
                    yield child
                    stack.append(child)
            elif isinstance(child, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                if child.name.startswith("_") or _is_magic(child.name):
                    continue
                yield child
                # nested functions are deliberately not walked


def docstring_coverage() -> tuple[float, list[str]]:
    """(coverage percent, missing-definition labels) over src/repro."""
    total = have = 0
    missing: list[str] = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in _countable_nodes(tree):
            total += 1
            if ast.get_docstring(node):
                have += 1
            else:
                name = getattr(node, "name", "<module>")
                lineno = getattr(node, "lineno", 1)
                missing.append(f"{path.relative_to(REPO_ROOT)}:"
                               f"{lineno} {name}")
    return 100.0 * have / total, missing


class TestDocstringCoverage:
    def test_coverage_meets_the_interrogate_floor(self):
        coverage, missing = docstring_coverage()
        assert coverage >= COVERAGE_FLOOR, (
            f"docstring coverage {coverage:.1f}% fell below the "
            f"{COVERAGE_FLOOR:.0f}% floor; undocumented:\n  "
            + "\n  ".join(missing))

    def test_public_fleet_scenarios_bench_apis_are_documented(self):
        # The PR-4 docstring pass: these packages are held to 100 %.
        for package in ("fleet", "scenarios", "bench"):
            for path in sorted((SRC_ROOT / package).rglob("*.py")):
                tree = ast.parse(path.read_text())
                undocumented = [
                    f"{path.name}:{node.lineno} "
                    f"{getattr(node, 'name', '<module>')}"
                    for node in _countable_nodes(tree)
                    if not ast.get_docstring(node)]
                assert not undocumented, (
                    f"public API without docstring in repro.{package}: "
                    f"{undocumented}")


class TestDocsLinks:
    def test_doc_pages_exist(self):
        names = {path.name for path in DOC_FILES}
        assert {"architecture.md", "energy-model.md", "fleet.md",
                "benchmarks.md", "governor.md"} <= names

    @pytest.mark.parametrize(
        "doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
    def test_relative_links_resolve(self, doc: Path):
        broken = []
        for target in MARKDOWN_LINK.findall(doc.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                broken.append(target)
        assert not broken, f"{doc.name}: broken relative links {broken}"

    def test_readme_links_into_the_docs_tree(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for page in ("docs/architecture.md", "docs/energy-model.md",
                     "docs/governor.md", "docs/fleet.md",
                     "docs/benchmarks.md"):
            assert page in readme, f"README lost its link to {page}"


def _resolve(name: str) -> object:
    """Import the longest module prefix of ``name``, then walk the rest
    as attributes; raise ImportError/AttributeError if it is gone."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            target = getattr(target, attr)
        return target
    raise ModuleNotFoundError(name)


class TestDocsNames:
    @pytest.mark.parametrize(
        "doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
    def test_qualified_names_resolve(self, doc: Path):
        pytest.importorskip("repro")
        broken = []
        for name in sorted(set(QUALIFIED_NAME.findall(doc.read_text()))):
            try:
                _resolve(name)
            except (ImportError, AttributeError) as exc:
                broken.append(f"{name}: {exc}")
        assert not broken, f"{doc.name}: unresolvable names {broken}"
