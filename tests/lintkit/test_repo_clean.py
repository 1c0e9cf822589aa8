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


def test_no_module_imports_numpy():
    # The package's data path is plain buffers for the native kernels,
    # with the per-packet codec as the one fallback: nothing under
    # src/repro imports numpy, lazily or at module level.
    importers = sorted(
        module.name
        for module in load_modules(REPO_ROOT)
        for node in ast.walk(module.tree)
        if isinstance(node, ast.Import)
        and any(alias.name.partition(".")[0] == "numpy" for alias in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").partition(".")[0] == "numpy"
    )
    assert importers == [], f"modules importing numpy: {importers}"


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


#: Definitions nothing under ``src/repro`` calls, kept on purpose; each
#: entry says who relies on it.  Anything else unreferenced is code no
#: part of the package runs: delete it, or move it into ``tests/`` when
#: a test needs it as an oracle.  The functions ``layerbench/layers.py``
#: wraps all sit on the data path, so none of them needs an entry.
UNREFERENCED_ALLOWED = {
    # Public API: the service client's graceful shutdown (DESIGN
    # "Process boundary": the open windows drain() closes on the way
    # out) and the single-dealer Shamir scheme's inverse of ``split``,
    # the oracle the sss tests hold ``split`` to.
    "repro.service.client.ServiceClient.drain",
    "repro.sss.scheme.ShamirScheme.reconstruct",
    # The in-process twin of ``REPRO_FASTPATH=0`` (DESIGN "Reference path
    # vs. fast path").
    "repro.fastpath.forced",
    # Layerbench's restarts and the commissioning-cache tests drop the
    # process pools through this.
    "repro.fastpath.clear_process_caches",
    # Called by the CI benchmark scripts: perf_microbench.py's
    # parallel-campaign tier, scenario_smoke.py and chaos_smoke.py.
    "repro.analysis.campaign.CampaignExecutor.warm_up",
    "repro.scenarios.registry.Scenario.smoke_spec",
    # examples/ntx_tuning.py reads the coverage profile through it.
    "repro.ct.coverage.CoverageProfile.min_full_coverage_ntx",
}


def _definitions(module):
    """``(qualified name, line)`` of a module's top-level functions and
    methods, less those something calls by protocol: dunders, ``visit_*``
    (``ast.NodeVisitor`` dispatch) and functions a decorator call
    registers (``@scenario(...)``)."""
    for node in module.tree.body:
        bodies = [(node, "")]
        if isinstance(node, ast.ClassDef):
            bodies = [(sub, f"{node.name}.") for sub in node.body]
        for sub, prefix in bodies:
            if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = sub.name
            if name.startswith("__") and name.endswith("__") or name.startswith("visit_"):
                continue
            if any(isinstance(d, ast.Call) for d in sub.decorator_list):
                continue
            yield f"{module.name}.{prefix}{name}", sub.lineno


def _referenced_names(modules) -> set[str]:
    """Every identifier the package uses: names, attributes, imports,
    and strings spelled like identifiers (``__all__``, ``getattr``)."""
    names: set[str] = set()
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    names.add(node.value)
    return names


def test_every_function_and_method_is_referenced_in_the_package():
    # The function-level twin of the reachability test above: a
    # definition only tests call is API nothing runs.  Matching is by
    # name, so a definition whose name the package uses anywhere passes.
    modules = load_modules(REPO_ROOT)
    referenced = _referenced_names(modules)
    found = {
        f"{qualified} (line {line})"
        for module in modules
        for qualified, line in _definitions(module)
        if qualified.rsplit(".", 1)[-1] not in referenced
        and qualified not in UNREFERENCED_ALLOWED
    }
    assert sorted(found) == [], f"definitions nothing in src/repro references: {sorted(found)}"
    # An entry earns its keep only while its definition exists and
    # nothing in the package references it.
    defined = {qualified for module in modules for qualified, _ in _definitions(module)}
    stale = sorted(
        qualified
        for qualified in UNREFERENCED_ALLOWED
        if qualified not in defined or qualified.rsplit(".", 1)[-1] in referenced
    )
    assert stale == [], f"allowlist entries no longer needed: {stale}"


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
