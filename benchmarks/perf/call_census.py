"""Which functions under ``src/repro`` no entry point ever runs.

    PYTHONPATH=src python benchmarks/perf/call_census.py

One process installs ``sys.setprofile`` / ``threading.setprofile``, then
runs every entry point that is not a test: ``repro bench`` (the 20
experiment kernels, twice), ``pytest benchmarks``, each CLI sub-command
CI runs plus ``run`` / ``compare`` / ``join`` / ``experiments`` /
``trace {ici,full,rapidchain,diff}`` (a ``chaos --trace`` storm diffed
against the ``ici`` trace), the seven ``examples/``,
and perfbench's four workloads at ``--scale 4`` through ``child.main``,
with and without its probe.  It prints every function and method defined
under ``src/repro`` whose code never ran, with its module, line count
and how many files outside ``tests/`` name it, then the totals.  A
module-level function or class counts the files that use its own
module's binding, by the rule ``tests/test_architecture.py`` gates on
(a same-named definition elsewhere, or the word in a help text, is not
a referencer); a method counts the files naming it, so a method kept
alive only by a same-named definition elsewhere looks referenced: each
unrun method's row is followed by a ``same name:`` line listing every
other definition of that name, marked ``ran`` where its code ran.  A
function with no such referencer is one only tests call.  Prints only;
gates nothing (``tests/test_architecture.py`` holds the static half).
About 130 s on a 2-core box.
"""

import ast
import contextlib
import io
import re
import runpy
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
#: Where a referencer counts: the program and what ships beside it.
REFERENCER_ROOTS = (PACKAGE, ROOT / "benchmarks", ROOT / "examples", ROOT / "perfbench")
WORKLOADS = ("steady_write", "zipf_read", "membership_churn", "churn_storm")


def definitions() -> dict[tuple[str, int], tuple[str, str, int]]:
    """``(file, first line) -> (module, qualname, lines)`` for every def.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found = {}

    def visit(node: ast.AST, prefix: str, path: Path, module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path, module)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = (
                    module, prefix + child.name, child.end_lineno - first + 1
                )  # fmt: skip
                visit(child, f"{prefix}{child.name}.<locals>.", path, module)
            else:
                visit(child, prefix, path, module)

    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        visit(ast.parse(path.read_text(), str(path)), "", path, module)
    return found


def referencers(name: str, texts: dict[Path, str]) -> int:
    """Files outside ``tests/`` naming ``name`` other than at its def."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    own = re.compile(rf"\b(def|class)\s+{re.escape(name)}\b")
    return sum(
        1
        for text in texts.values()
        if any(word.search(line) and not own.search(line) for line in text.splitlines())
    )


def module_referencers() -> Counter:
    """``(module, name) -> files`` using that module-level definition,
    counted with the static census's own rule."""
    sys.path.insert(0, str(ROOT))
    from tests.test_architecture import (
        IMPORTER_ROOTS,
        MODULES,
        module_references,
        top_level,
    )

    defined = {module: top_level(path) for module, path in MODULES.items()}
    return Counter(
        reference
        for root in IMPORTER_ROOTS
        for path in root.rglob("*.py")
        for reference in module_references(path, defined)
    )


def run_entry_points(scratch: Path) -> list[str]:
    """Run everything; returns one line per entry point that failed."""
    from repro import cli

    failures = []

    def repro(*argv, expect: int = 0) -> None:
        argv = [str(arg) for arg in argv]
        code = cli.main(argv)
        if code != expect:
            failures.append(f"repro {' '.join(argv)}: exit {code}")

    small = ("--nodes", 16, "--groups", 4, "--blocks", 4, "--txs", 4)
    repro("experiments")
    for strategy in ("ici", "full", "rapidchain"):
        repro("run", "--strategy", strategy, *small, "--report", scratch / f"{strategy}.md")
        repro("join", "--strategy", strategy, *small)
        repro("trace", strategy, *small, "--out", scratch / f"{strategy}.json",
              "--jsonl", scratch / f"{strategy}.jsonl", "--summary", scratch / f"{strategy}-trace.md")  # fmt: skip
    repro("run", "--relay", *small)
    repro("compare", *small)
    repro("chaos", *small, "--trace", scratch / "chaos.json")
    repro("trace", "diff", scratch / "ici.json", scratch / "chaos.json", expect=1)
    repro("bench")
    # The CI feature smokes, then the soak lane at SOAK_SCALE=1.
    for name, *argv in (
        ("adaptive", "endurance", "--adaptive", "--seed", 42, "--nodes", 15, "--groups", 3, "--blocks", 6),
        ("archival", "endurance", "--archival", "--seed", 42, "--nodes", 15, "--groups", 3, "--blocks", 6),
        ("domains", "chaos", "--domains", "--seed", 42),
        ("soak-chaos", "chaos", "--seed", 42, "--nodes", 16, "--groups", 4, "--drop-rate", 0.2,
         "--duplicate-rate", 0.05, "--delay-rate", 0.05, "--crash-count", 1, "--partition"),
        ("soak-endurance", "endurance", "--seed", 42),
        ("soak-domains", "endurance", "--domains", "--seed", 42, "--nodes", 15, "--groups", 3),
    ):  # fmt: skip
        repro(*argv, "--report", scratch / f"{name}.md", "--trace", scratch / f"{name}.json")

    for path in sorted((ROOT / "examples").glob("*.py")):
        sys.argv = [str(path)]
        runpy.run_path(str(path), run_name="__main__")

    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "benchmarks")])
    if code:
        failures.append(f"pytest benchmarks: exit {code}")

    sys.path.insert(0, str(ROOT / "perfbench"))
    import child

    for traced in (False, True):
        for workload in WORKLOADS:
            argv = ["--workload", workload, "--seed", "1", "--scale", "4", "--t0", str(time.time())]
            if traced:
                argv += ["--trace-out", str(scratch / f"{workload}-spans.json")]
            if child.main(argv):
                failures.append(f"perfbench child {' '.join(argv)}: failed")
    return failures


def main() -> int:
    ran: set = set()
    add = ran.add

    def profile(frame, event, arg):
        add(frame.f_code)

    started = time.perf_counter()
    threading.setprofile(profile)
    sys.setprofile(profile)
    quiet = io.StringIO()
    try:
        with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(
            quiet
        ), contextlib.redirect_stderr(quiet):
            failures = run_entry_points(Path(scratch))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    seconds = time.perf_counter() - started

    reached = {(code.co_filename, code.co_firstlineno) for code in ran}
    defined = definitions()
    texts = {
        path: path.read_text()
        for root in REFERENCER_ROOTS
        for path in root.rglob("*.py")
    }
    by_module = module_referencers()
    missed = sorted(
        (
            module,
            qualname,
            lines,
            by_module[module, qualname]
            if "." not in qualname
            else referencers(qualname.rpartition(".")[2], texts),
        )
        for key, (module, qualname, lines) in defined.items()
        if key not in reached
    )
    namesakes: dict[str, list[tuple[str, bool]]] = {}
    for key, (module, qualname, _) in defined.items():
        if "." in qualname:
            namesakes.setdefault(qualname.rpartition(".")[2], []).append(
                (f"{module}:{qualname}", key in reached)
            )
    for module, qualname, lines, refs in missed:
        print(f"{module:34} {qualname:52} {lines:4} lines  {refs:3} referencers")
        if "." in qualname:
            others = [
                f"{where}{' (ran)' if did else ''}"
                for where, did in sorted(namesakes[qualname.rpartition(".")[2]])
                if where != f"{module}:{qualname}"
            ]
            if others:
                print(f"{'':34} same name: {', '.join(others)}")
    test_only = [row for row in missed if row[3] == 0]
    print(
        f"{len(missed)} of {len(defined)} functions "
        f"({sum(row[2] for row in missed):,} lines) never ran; "
        f"{len(test_only)} of them ({sum(row[2] for row in test_only):,} lines) "
        f"are named nowhere outside tests/  [{seconds:.0f} s]"
    )
    for failure in failures:
        print(f"entry point failed: {failure}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
