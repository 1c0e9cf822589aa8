"""Acceptance: the repo lints clean; the seeded fixture does not."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.cli import main as cli_main
from repro.lintkit.modules import load_modules
from repro.lintkit.runner import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
SEEDED = Path(__file__).resolve().parent / "fixtures" / "seeded"
ENTRY_POINTS = ("repro", "repro.cli", "repro.lintkit.__main__")


def test_repo_is_clean_with_no_stale_baseline():
    report = run_lint(REPO_ROOT)
    assert report.findings == [], "\n".join(f.render() for f in report.findings)
    # Every baseline entry must still earn its keep: a fixed violation
    # means the entry gets deleted, not silently carried.
    assert report.unused_baseline == []
    assert report.modules_checked > 50


def _imported_modules(tree: ast.Module, known: set[str]) -> set[str]:
    """Every ``repro`` module an AST imports, lazy imports included.

    ``from repro.pkg import name`` resolves to the submodule
    ``repro.pkg.name`` when one exists, else to the package itself.
    """

    reached: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            reached.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                reached.add(submodule if submodule in known else node.module)
    return reached & known


def test_every_module_is_reachable_from_an_entry_point():
    # A module no entry point imports is code nothing runs: delete it
    # (and its tests) rather than let it drift from the real data path.
    # A package's ``__init__`` is followed only when the package itself is
    # imported, so re-exporting a module does not count as using it; a
    # package counts as reached once anything under it is.
    trees = {module.name: module.tree for module in load_modules(REPO_ROOT)}
    known = set(trees)
    reached: set[str] = set()
    assert set(ENTRY_POINTS) <= known
    frontier = list(ENTRY_POINTS)
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        frontier.extend(_imported_modules(trees[name], known) - reached)
    packages = {
        name.rsplit(".", depth)[0]
        for name in reached
        for depth in range(1, name.count(".") + 1)
    }
    orphans = sorted(n.removeprefix("repro.") for n in known - reached - packages)
    assert orphans == [], f"modules no entry point imports: {orphans}"


def test_seeded_fixture_trips_every_rule_family():
    report = run_lint(SEEDED)
    rules = {f.rule for f in report.findings}
    assert {
        "layering-edge",
        "lock-init",
        "lock-order",
        "lock-blocking",
        "det-wallclock",
        "det-rng",
        "tax-raise",
    } <= rules


def test_cli_exit_codes_and_output(capsys):
    assert cli_main(["lint", "--root", str(REPO_ROOT)]) == 0
    capsys.readouterr()
    code = cli_main(["lint", "--root", str(SEEDED)])
    out = capsys.readouterr().out
    assert code == 1
    assert "daemon.py" in out
    assert "lock-order" in out
    assert "hint:" in out


def test_cli_missing_root_is_a_spec_error(tmp_path, capsys):
    code = cli_main(["lint", "--root", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "src/repro" in err
