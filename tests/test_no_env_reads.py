"""Library behaviour depends only on its arguments, never on the environment.

A run is described by one :class:`repro.config.ScenarioConfig`.  The only
functions under ``src/repro`` allowed to read environment variables are
the two harness helpers that a CLI or ``conftest.py`` calls by name.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: (path relative to the package, function name) allowed to read the env
HARNESS_HELPERS = {
    ("sweep.py", "processes_from_env"),
    ("bench/experiment.py", "quality_from_env"),
}

_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def env_reads(tree: ast.AST):
    """``(lineno, enclosing function or None)`` of every environment read."""
    os_aliases = {"os"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_aliases.update(a.asname or a.name for a in node.names if a.name == "os")
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = func
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if (isinstance(child, ast.Attribute) and child.attr in _ENV_NAMES
                    and isinstance(child.value, ast.Name)
                    and child.value.id in os_aliases):
                found.append((child.lineno, func))
            if (isinstance(child, ast.ImportFrom) and child.module == "os"
                    and any(a.name in _ENV_NAMES for a in child.names)):
                found.append((child.lineno, func))
            visit(child, inner)

    visit(tree, None)
    return found


def test_only_harness_helpers_read_the_environment():
    offenders = []
    seen_helpers = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for lineno, func in env_reads(ast.parse(path.read_text(), filename=str(path))):
            if (rel, func) in HARNESS_HELPERS:
                seen_helpers.add((rel, func))
            else:
                offenders.append(f"src/repro/{rel}:{lineno} (in {func or 'module scope'})")
    assert not offenders, "library code reads the environment:\n" + "\n".join(offenders)
    # the allow-list names live helpers, not stale entries
    assert seen_helpers == HARNESS_HELPERS


def test_scanner_finds_every_spelling():
    src = (
        "import os\n"
        "import os as o\n"
        "from os import getenv\n"
        "A = os.environ.get('X')\n"
        "def f():\n"
        "    return o.getenv('Y')\n"
    )
    assert env_reads(ast.parse(src)) == [(3, None), (4, None), (6, "f")]
