"""Acceptance: the repo lints clean; the seeded fixture does not."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.cli import main as cli_main
from repro.lintkit.modules import load_modules
from repro.lintkit.runner import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"
SEEDED = FIXTURES / "seeded"
REACHABILITY = FIXTURES / "reachability"
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


#: The functions the package is run through: the ``repro`` console script
#: and ``python -m repro.lintkit``.
ENTRY_FUNCTIONS = ("repro.cli.main", "repro.lintkit.runner.main")
#: Directories of scripts that drive the package from outside it: the CI
#: benchmark scripts, the examples and layerbench.  They are parsed, never
#: imported; every identifier their non-test files use is a root.
SCRIPT_DIRS = ("benchmarks", "examples", "layerbench")

#: Definitions no entry point reaches, kept on purpose; each entry says
#: who relies on it.  Anything else unreached is code nothing runs:
#: delete it, or move it into ``tests/`` when a test needs it as an
#: oracle.  Entries are roots of the walk, so what they call stays live.
UNREFERENCED_ALLOWED = {
    # Public API: the service client's graceful shutdown (DESIGN
    # "Process boundary": the open windows drain() closes on the way
    # out).
    "repro.service.client.ServiceClient.drain",
    # Lockdep (``REPRO_LOCKDEP=1``) records lock order process-wide; a
    # harness that runs many differently-shaped daemons in one process,
    # like the service suite's autouse fixture, starts each from an empty
    # acquisition graph through this.
    "repro.lintkit.lockdep.reset",
    # Keeps the instrumented lock a drop-in ``threading.Lock``.
    "repro.lintkit.lockdep._LockdepLock.locked",
}


class _Definition:
    """A module-level function or class, or a method of such a class."""

    def __init__(self, qualified: str, node: ast.AST, names: set[str], owner: str | None):
        self.qualified = qualified
        self.line = node.lineno
        self.names = names  # every identifier its code uses
        self.owner = owner  # a method's class
        self.simple = qualified.rsplit(".", 1)[-1]
        # Called by protocol once its class is live: dunders, ``visit_*``
        # (``ast.NodeVisitor`` dispatch) and functions a decorator call
        # registers (``@scenario(...)``).
        self.protocol = not isinstance(node, ast.ClassDef) and (
            self.simple.startswith("__") and self.simple.endswith("__")
            or self.simple.startswith("visit_")
            or any(isinstance(d, ast.Call) for d in node.decorator_list)
        )


def _used_names(nodes, aliases: dict[str, set[str]]) -> set[str]:
    """Every identifier ``nodes`` use: names, attributes, and strings
    spelled like dotted identifiers (``getattr``, layerbench's wrap
    names).  An import names a definition without running it: it counts
    only through the alias it binds, recorded in ``aliases``."""
    names: set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias) and node.asname:
                aliases.setdefault(node.asname, set()).add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(part for part in node.value.split(".") if part.isidentifier())
    return names


def _functions(body):
    return [s for s in body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _walk_inputs(root: Path):
    """``(definitions, root names, aliases)`` of the tree at ``root``."""
    aliases: dict[str, set[str]] = {}
    definitions: list[_Definition] = []
    roots: set[str] = set()
    for module in load_modules(root):
        for statement in module.tree.body:
            qualified = f"{module.name}.{getattr(statement, 'name', '')}"
            if isinstance(statement, ast.ClassDef):
                methods = _functions(statement.body)
                header = [*statement.bases, *statement.keywords, *statement.decorator_list]
                body = [s for s in statement.body if s not in methods]
                definitions.append(
                    _Definition(qualified, statement, _used_names(header + body, aliases), None)
                )
                definitions.extend(
                    _Definition(f"{qualified}.{m.name}", m, _used_names([m], aliases), qualified)
                    for m in methods
                )
            elif _functions([statement]):
                definitions.append(
                    _Definition(qualified, statement, _used_names([statement], aliases), None)
                )
            elif not (
                isinstance(statement, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in statement.targets)
            ):
                # Runs at import: ``_self_check()``, table builds, ``__main__`` blocks.
                roots |= _used_names([statement], aliases)
    for directory in SCRIPT_DIRS:
        for path in sorted((root / directory).glob("*.py")):
            if path.name != "conftest.py" and not path.name.startswith("test_"):
                roots |= _used_names([ast.parse(path.read_text(encoding="utf-8"))], aliases)
    return definitions, roots, aliases


def _live(definitions, names, aliases, root_definitions) -> set[str]:
    """The fixpoint of "a definition is live once its simple name appears
    in live code" (a method: once its class is live, too), from the
    identifiers ``names`` and the definitions ``root_definitions``."""
    names = set(names)
    for name in list(names):
        names |= aliases.get(name, set())
    live: set[str] = set()
    pending = definitions
    while True:
        reached = [
            d
            for d in pending
            if d.qualified in root_definitions
            or (d.owner is None or d.owner in live) and (d.simple in names or d.protocol)
        ]
        if not reached:
            return live
        for d in reached:
            live.add(d.qualified)
            for name in d.names:
                names.add(name)
                names |= aliases.get(name, set())
        pending = [d for d in pending if d.qualified not in live]


def _unreached(root: Path, allowed=frozenset()) -> dict[str, int]:
    """``{qualified name: line}`` of the definitions under ``root``'s
    ``src/repro`` that no entry point, import-time statement, script or
    ``allowed`` entry reaches.  A dead class's methods go with it."""
    definitions, names, aliases = _walk_inputs(root)
    defined = {d.qualified for d in definitions}
    assert set(ENTRY_FUNCTIONS) <= defined
    live = _live(definitions, names, aliases, set(ENTRY_FUNCTIONS) | set(allowed))
    return {
        d.qualified: d.line
        for d in definitions
        if d.qualified not in live and (d.owner is None or d.owner in live)
    }


def test_every_definition_is_reachable_from_an_entry_point():
    # The function-level twin of the module walk above.  Matching is by
    # simple name, so the walk over-approximates: a dead ``run`` stays
    # live while live code calls any ``.run``.  It can miss dead code but
    # never flags what dynamic dispatch reaches.
    found = _unreached(REPO_ROOT, UNREFERENCED_ALLOWED)
    assert sorted(found) == [], f"definitions no entry point reaches: {found}"
    # An entry earns its keep only while its definition exists and the
    # walk does not reach it without the allowlist.
    unallowed = _unreached(REPO_ROOT)
    stale = sorted(q for q in UNREFERENCED_ALLOWED if q not in unallowed)
    assert stale == [], f"allowlist entries no longer needed: {stale}"


def test_walk_flags_reexports_and_mutual_callers_only():
    # The fixture plants (a) a function only its package ``__init__``
    # re-exports, (b) two methods that only call each other, (c) a
    # function only an ``examples/`` script names and (d) a function a
    # ``@scenario(...)`` call registers.  A name-anywhere check passes
    # all four; the walk flags exactly (a) and (b).
    assert sorted(_unreached(REACHABILITY)) == [
        "repro.meters.core.Counter.ping",
        "repro.meters.core.Counter.pong",
        "repro.meters.core.reexported",
    ]


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
