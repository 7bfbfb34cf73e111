"""Structure checks that read the source instead of running it.

* Every module under ``src/repro`` is imported by something that ships
  (the census that found ``chain/persistence.py`` dead).
* Protocol timers have one owner: ``protocols/reliability.py`` holds the
  probe pacing constants and — bar the sweep timer and the
  validation-cost delay — every ``clock.schedule`` of ``protocols/`` and
  ``dht/``.
* The per-engine request bookkeeping that owner replaced stays gone.
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

from repro.protocols.reliability import RequestTracker

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
#: Where an importer counts: the program and what ships beside it.
IMPORTER_ROOTS = (PACKAGE, ROOT / "benchmarks", ROOT / "examples", ROOT / "perfbench")
#: Entry points: run, never imported.
ENTRY_POINTS = {"__init__.py", "__main__.py", "cli.py"}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_names(path: Path) -> set[str]:
    """Dotted names ``path`` imports; ``from a import b`` yields a and a.b."""
    if PACKAGE in path.parents:
        package = module_name(path).split(".")
        if path.name != "__init__.py":
            package = package[:-1]
    else:
        package = []
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            if node.module:
                base = base + node.module.split(".")
            origin = ".".join(base)
            names.add(origin)
            names.update(f"{origin}.{alias.name}" for alias in node.names)
    return names


def test_every_module_has_an_importer_outside_tests():
    imported: dict[str, set[Path]] = {}
    for root in IMPORTER_ROOTS:
        for path in root.rglob("*.py"):
            for name in imported_names(path):
                imported.setdefault(name, set()).add(path)
    orphans = [
        str(path.relative_to(ROOT))
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name not in ENTRY_POINTS
        and not imported.get(module_name(path), set()) - {path}
    ]
    assert orphans == []


def sources(*packages: str):
    for package in packages:
        for path in sorted((PACKAGE / package).rglob("*.py")):
            yield path, path.read_text()


def test_the_probe_constants_are_named_in_one_module():
    named_in = {
        str(path.relative_to(PACKAGE))
        for path, text in sources(".")
        if re.search(r"\bPROBE_(RETRY_POLICY|ATTEMPTS)\b", text)
    }
    assert named_in == {"protocols/reliability.py"}


def test_protocol_timers_are_scheduled_by_the_reliability_layer():
    """``clock.schedule`` sites of protocols/ and dht/, by enclosing def."""
    sites: set[tuple[str, str]] = set()
    for path, text in sources("protocols", "dht"):
        for scope in ast.walk(ast.parse(text)):
            if not isinstance(scope, ast.FunctionDef):
                continue
            for node in ast.walk(scope):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("schedule", "schedule_at", "post")
                    and ast.unparse(node.func.value).endswith("clock")
                ):
                    sites.add((path.name, scope.name))
    assert sites == {
        ("reliability.py", "_arm"),
        ("reliability.py", "_attempt"),
        ("repair.py", "start"),  # the sweep timer
        ("repair.py", "_sweep"),
        ("intracluster.py", "start_verification"),  # validation-cost delay
    }


GONE = (
    "_request_kind", "_kind_of", "allocate_request", "release_request",
    "_digest_requests", "_repair_requests", "query_plan", "degraded_results",
    "probed", "_probe_finality", "_probe_bootstrap", "_probe_body",
    "_schedule_body_probe",
)  # fmt: skip


def test_the_side_tables_stay_deleted():
    pattern = re.compile(r"\b(" + "|".join(GONE) + r")\b")
    found = {
        (str(path.relative_to(PACKAGE)), match)
        for path, text in sources(".")
        for match in pattern.findall(text)
    }
    assert found == set()
    # The tracker reports to the router itself: no notifier callables.
    assert list(inspect.signature(RequestTracker).parameters) == [
        "clock", "router", "policy",
    ]  # fmt: skip
