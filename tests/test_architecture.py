"""Structure checks that read the source instead of running it.

* Every module under ``src/repro`` is imported by something that ships
  (the census that found ``chain/persistence.py`` dead), and every
  function, class and method is used by something that ships, bar the
  :data:`KEEP` list; a module-level definition counts only through its
  own module's binding (``benchmarks/perf/call_census.py`` is the
  dynamic half: what no entry point runs).
* Imports run one way: down :data:`LAYERS`, with no cycle between
  modules, and only the CLI's lazy sub-commands import inside a function.
* Every settable value — a field of a settings dataclass or a parameter
  of an ``enable`` method — is set by something that ships, bar the
  :data:`KEEP_SETTINGS` list: a value only tests set is a constant.
* The frozen perfbench probe still finds every name it shims.
* Protocol timers have one owner: ``protocols/reliability.py`` holds the
  probe pacing constants and — bar the sweep timer and the
  validation-cost delay — every ``clock.schedule`` of ``protocols/`` and
  ``dht/``.
* The per-engine request bookkeeping that owner replaced stays gone, and
  so do the second storm driver and the DHT paths the placement
  directory replaced.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import re
from graphlib import TopologicalSorter
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


def import_targets(node: ast.AST, path: Path) -> set[str]:
    """Dotted names one import statement names; ``from a import b``
    yields a and a.b."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if not isinstance(node, ast.ImportFrom):
        return set()
    package: list[str] = []
    if node.level and PACKAGE in path.parents:
        package = module_name(path).split(".")
        if path.name != "__init__.py":
            package = package[:-1]
        package = package[: len(package) - node.level + 1]
    origin = ".".join(package + (node.module.split(".") if node.module else []))
    return {origin} | {f"{origin}.{alias.name}" for alias in node.names}


def imported_names(path: Path) -> set[str]:
    """Every dotted name ``path`` imports, wherever the import sits."""
    return {
        name
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        for name in import_targets(node, path)
    }


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


#: Defined under ``src/repro`` and named only by tests, on purpose.
#: Kept without an entry because something that ships names them:
#: ``UtxoSet.serialize_snapshot`` / ``deserialize_snapshot`` and
#: ``bench.runner.calibrate`` (the frozen perfbench probe), and the error
#: and recovery paths no entry point happens to run (``_mark_unrecoverable``,
#: ``_strand``, ``RequestTracker.abandon``): safety code.
KEEP = {
    "is_connected": "test oracle: connectivity of built topologies",
    "ClusterTable.check_invariants": "test oracle: the membership invariants",
    "RoutingTable.check_invariants": "test oracle: the k-bucket invariants",
    "ClusterTable.move_node": "the dissolution primitive ROADMAP item 10 builds on",
    "UtxoSet.outpoints_of": "test fixture: spendable outputs of one address",
    "UtxoSet.total_value": "test oracle: value conservation across blocks",
    "VerificationRound.prepare_votes": "the round-model oracle's view of a round",
    "ChainStore.tip": "test oracle: the header store's fork choice",
    "BlockHeader.deserialize": "test oracle: inverts serialize, the hash preimage",
    "distance": "test oracle: the XOR order RoutingTable.closest must keep",
}
WORD = re.compile(r"[A-Za-z_]\w*")
#: A ``"module:name"`` spec, as the perfbench probe names its targets.
SPEC = re.compile(r"\b(repro(?:\.\w+)*):(\w+)")


def quiet_nodes(tree: ast.AST) -> set[int]:
    """Ids of the nodes that name nothing: docstrings and ``__all__``."""
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skipped.add(id(node.value))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            skipped.update(id(sub) for sub in ast.walk(node.value))
    return skipped


def names_used(path: Path) -> set[str]:
    """Names ``path``'s code uses: names, attributes, imports and the
    words of its string literals (``getattr`` targets, probe specs).

    Docstrings and ``__all__`` name nothing, and neither does a package
    ``__init__``'s re-export.
    """
    tree = ast.parse(path.read_text(), str(path))
    skipped = quiet_nodes(tree)
    found: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias) and path.name != "__init__.py":
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(WORD.findall(node.value))
    return found


def top_level(path: Path) -> set[str]:
    """The module-level defs and classes of ``path``."""
    return {
        node.name
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def owner(module: str, name: str, defined: dict[str, set[str]]) -> str | None:
    """The module that defines ``module.name``, following package
    ``__init__`` re-exports; ``None`` for anything else."""
    while module in MODULES:
        if name in defined[module]:
            return module
        path = MODULES[module]
        if path.name != "__init__.py":
            return None
        origins = [
            origin
            for node in ast.parse(path.read_text(), str(path)).body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if (alias.asname or alias.name) == name
            for origin in import_targets(node, path)
            if not origin.endswith(f".{alias.name}")
        ]
        if not origins:
            return None
        module = origins[0]
    return None


def dotted(node: ast.AST) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; ``None`` unless names all the way."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        head = dotted(node.value)
        return None if head is None else [*head, node.attr]
    return None


def module_references(path: Path, defined: dict[str, set[str]]) -> set[tuple]:
    """``(module, name)`` of each module-level definition ``path`` uses:
    imported from its module (or a package re-exporting it) and used,
    used as ``module.name``, named by a ``"module:name"`` spec, or used
    by name in its own module."""
    tree = ast.parse(path.read_text(), str(path))
    skipped = quiet_nodes(tree)
    modules: dict[str, str] = {}  # local name -> the module it binds
    imported: dict[str, tuple[str, str]] = {}  # local name -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    modules[alias.asname] = alias.name
                else:
                    head = alias.name.partition(".")[0]
                    modules[head] = head
        elif isinstance(node, ast.ImportFrom):
            origin = min(import_targets(node, path), key=len)
            for alias in node.names:
                local = alias.asname or alias.name
                if f"{origin}.{alias.name}" in MODULES:
                    modules[local] = f"{origin}.{alias.name}"
                else:
                    imported[local] = (origin, alias.name)
    words: set[str] = set()
    names: set[str] = set()
    found: set[tuple] = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            chain = dotted(node.value)
            if chain and chain[0] in modules:
                found.add((".".join([modules[chain[0]], *chain[1:]]), node.attr))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.update(WORD.findall(node.value))
            found.update(SPEC.findall(node.value))
    found.update(
        target for local, target in imported.items() if local in names | words
    )
    if PACKAGE in path.parents:
        own = module_name(path)
        found.update((own, name) for name in names & defined[own])
    resolved = {(owner(module, name, defined), name) for module, name in found}
    return {(module, name) for module, name in resolved if module is not None}


def definitions():
    """``(module path, qualname)`` of every top-level def and class and
    every method of a top-level class, dunders excepted."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield path, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")
                    ):
                        yield path, f"{node.name}.{sub.name}"


def test_every_definition_has_a_referencer_outside_tests():
    """A layer's surface is what the next layer calls: a definition only
    tests name is deleted, or kept in :data:`KEEP` with its reason.

    A module-level def or class counts as named only where its own
    module's binding is used (:func:`module_references`), so a
    same-named definition elsewhere, or the word in a help text, does
    not keep it; a method counts wherever its name is used.
    """
    files = [path for root in IMPORTER_ROOTS for path in root.rglob("*.py")]
    defined = {module: top_level(path) for module, path in MODULES.items()}
    used = set().union(*(names_used(path) for path in files))
    referenced = set().union(*(module_references(path, defined) for path in files))
    unnamed = sorted(
        f"{path.relative_to(PACKAGE)}:{qualname}"
        for path, qualname in definitions()
        if qualname not in KEEP
        and (
            qualname.rpartition(".")[2] not in used
            if "." in qualname
            else (module_name(path), qualname) not in referenced
        )
    )
    assert unnamed == []
    assert sorted(set(KEEP) - {q for _, q in definitions()}) == []


# --------------------------------------------------------------- settings
#: Dataclasses whose fields a caller sets: these suffixes, plus the
#: CLI's ``Scenario``.
SETTINGS_SUFFIXES = ("Config", "Policy", "Limits")

#: Settable values nothing that ships sets, on purpose.
KEEP_SETTINGS = {
    "ICIConfig.placement": "selects a live deployment's placement policy; "
    "E9 compares the policy objects directly, tests run each one through "
    "the protocols",
    "ICIConfig.node_capacities": "the weights placement='capacity' reads",
    "ICIConfig.state_snapshot_bytes": "the modelled size of the UTXO "
    "snapshot a joiner downloads; tests price a join with it",
    "ICIConfig.transfer_state_snapshot": "bootstrap over the real "
    "serialized UTXO set, the snapshot codec's only caller",
    "ValidationLimits.block_reward": "a consensus rule the coinbase check "
    "enforces, not a tuning knob",
    "FaultConfig.delay_seconds": "the length of the spikes --delay-rate "
    "(set by the CLI) draws",
    "WorkloadConfig.n_wallets": "workload shape tests vary; a constant "
    "candidate with the two below (ROADMAP item 6)",
    "WorkloadConfig.target_tx_bytes": "tests drive unpadded (0) and "
    "larger transactions through the chain rules",
    "WorkloadConfig.fee_per_transfer": "the only way a block carries fees: "
    "tests check coinbase = reward + fees with it",
}


def is_settings(node: ast.ClassDef) -> bool:
    return (node.name.endswith(SETTINGS_SUFFIXES) or node.name == "Scenario") and any(
        "dataclass" in ast.unparse(decorator) for decorator in node.decorator_list
    )


def defaulted(function: ast.FunctionDef) -> list[str]:
    """The parameters of ``function`` that carry a default."""
    args = function.args
    positional = args.posonlyargs + args.args
    return [arg.arg for arg in positional[len(positional) - len(args.defaults) :]] + [
        arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]


def settings():
    """``(label, owner, name)`` of every value a caller can set: each
    defaulted field of a settings dataclass (``owner`` is the class) and
    each defaulted parameter of an ``enable``/``enable_*`` method
    (``owner`` is ``None``: the method's name types nothing)."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            for sub in node.body:
                if (
                    is_settings(node)
                    and isinstance(sub, ast.AnnAssign)
                    and sub.value is not None
                    and isinstance(sub.target, ast.Name)
                    and "ClassVar" not in ast.unparse(sub.annotation)
                ):
                    yield f"{node.name}.{sub.target.id}", node.name, sub.target.id
                elif isinstance(sub, ast.FunctionDef) and (
                    sub.name == "enable" or sub.name.startswith("enable_")
                ):
                    for arg in defaulted(sub):
                        yield f"{node.name}.{sub.name}({arg}=)", None, arg


def settings_classes() -> set[str]:
    """The names of every settings dataclass."""
    return {
        node.name
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef) and is_settings(node)
    }


def setters() -> set[tuple[str | None, str]]:
    """``(owner, name)`` for every value code that ships sets.

    A keyword argument sets its name on the settings class it calls,
    or on every class when the callee is a
    helper, ``replace`` or a method; a string dict key sets its name on
    every class (bench helpers forward ``**kwargs``), and so does each
    ``chaos``/``endurance`` flag.  Passing a value on under its own name
    — ``x=config.x``, or ``x=x`` from a defaulted parameter — sets
    nothing: the setter is whoever chose the value passed on.
    """
    from repro.cli import _FIELD_OF, _STORM_FLAGS

    classes = settings_classes()
    found: set[tuple[str | None, str]] = set()
    for root in IMPORTER_ROOTS:
        for path in root.rglob("*.py"):
            tree = ast.parse(path.read_text(), str(path))
            passed_on: dict[int, set[str]] = {}
            for function in ast.walk(tree):
                if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = set(defaulted(function))
                    for node in ast.walk(function):
                        if isinstance(node, ast.keyword):
                            passed_on.setdefault(id(node), set()).update(names)
            for node in ast.walk(tree):
                if isinstance(node, ast.Dict):
                    found.update(
                        (None, key.value)
                        for key in node.keys
                        if isinstance(key, ast.Constant) and isinstance(key.value, str)
                    )
                if not isinstance(node, ast.Call):
                    continue
                callee = ast.unparse(node.func).rpartition(".")[2]
                for keyword in node.keywords:
                    name, value = keyword.arg, keyword.value
                    if name is None or (
                        isinstance(value, ast.Attribute) and value.attr == name
                    ):
                        continue
                    if isinstance(value, ast.Name) and value.id == name:
                        if name in passed_on.get(id(keyword), ()):
                            continue
                    found.add((callee if callee in classes else None, name))
    for flag, _ in _STORM_FLAGS:
        dest = flag.replace("-", "_")
        found.add((None, _FIELD_OF.get(dest, dest)))
    return found


def test_every_setting_has_a_setter_outside_tests():
    """A value only tests set is a constant (one value in use): each
    settable value has a setter that ships, or a :data:`KEEP_SETTINGS`
    entry with its reason."""
    found = setters()
    unset = {
        label
        for label, owner, name in settings()
        if (None, name) not in found and (owner, name) not in found
    }
    assert sorted(unset - set(KEEP_SETTINGS)) == []
    assert sorted(set(KEEP_SETTINGS) - unset) == []


def test_the_frozen_probe_still_finds_every_target():
    """``perfbench/probe.py`` shims program names given as strings; one
    deleted or renamed target breaks every traced perfbench rep."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_probe", ROOT / "perfbench" / "probe.py"
    )
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    shim = probe.Probe()
    try:
        shim.install()
    finally:
        assert shim.restore()


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
                    and node.func.attr in ("schedule", "post")
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
    # One storm driver: chaos is a preset of the endurance storm, which
    # heals through the anti-entropy sweep, not an oracle refetch.
    "run_chaos", "ChaosConfig", "ChaosOutcome", "render_chaos_summary",
    "refetch_bodies",
    # Placement is the directory: E20's broadcast arm, the storm's DHT
    # feature and the DHT-routed join are gone, with the pings, table
    # audit and forced republish only they ran.
    "run_dht_compare", "DhtCompareConfig", "flood_resolve", "join_node",
    "refresh_all", "republish_all", "audit_tables", "_audit_dht",
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


# --------------------------------------------------------------- layering
#: The package order, lowest first: a module imports its own package and
#: packages earlier in this list, never a later one.
LAYERS = (
    "errors", "crypto", "chain", "consensus", "net", "obs", "node",
    "clustering", "storage", "protocols", "dht", "core", "baselines",
    "sim", "analysis", "bench", "cli",
)  # fmt: skip
MODULES = {module_name(path): path for path in sorted(PACKAGE.rglob("*.py"))}
#: Moved to the package that runs them; no alias is left at the old path.
MOVED = (
    "repro.core.verification",  # -> repro.consensus.votes
    "repro.core.compact",  # -> repro.protocols.compact
    "repro.core.spv",  # -> repro.protocols.spv
    "repro.sim.audit",  # -> repro.core.audit
)


def layer(module: str) -> str:
    """A module's package; the root and ``__main__`` rank with the CLI."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[1] in LAYERS else "cli"


def executed_imports(path: Path) -> set[tuple[str, bool]]:
    """``(module, inside a function)`` for every import of a program
    module that executes; ``if TYPE_CHECKING:`` blocks never do."""
    found: set[tuple[str, bool]] = set()

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and "TYPE_CHECKING" in ast.unparse(
                child.test
            ):
                continue
            found.update(
                (name, in_function)
                for name in import_targets(child, path)
                if name in MODULES
            )
            visit(
                child,
                in_function
                or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)),
            )

    visit(ast.parse(path.read_text(), str(path)), False)
    return found


def test_every_package_has_a_layer():
    packages = {module.split(".")[1] for module in MODULES if "." in module}
    assert packages - {"__main__"} == set(LAYERS)


def test_imports_run_down_the_layers():
    upward = sorted(
        (module, target)
        for module, path in MODULES.items()
        for target, _ in executed_imports(path)
        if LAYERS.index(layer(target)) > LAYERS.index(layer(module))
    )
    assert upward == []


def test_the_module_import_graph_is_acyclic():
    """Load-time imports, plus the package ``__init__`` each one runs.

    Importing ``repro.a.b`` from outside ``repro.a`` first executes
    ``repro/a/__init__.py``, so that edge counts.  The root
    ``repro/__init__.py`` is the public facade: it runs before any
    submodule and imports downward only, so edges into it are left out.
    """
    graph: dict[str, set[str]] = {}
    for module, path in MODULES.items():
        targets = {name for name, deferred in executed_imports(path) if not deferred}
        for name in list(targets):
            parts = name.split(".")
            targets.update(
                parent
                for parent in (".".join(parts[:i]) for i in range(2, len(parts)))
                if not module.startswith(parent + ".")
            )
        graph[module] = targets - {module}
    # Raises graphlib.CycleError naming the cycle.
    assert len(list(TopologicalSorter(graph).static_order())) == len(MODULES)


def test_only_the_cli_imports_inside_functions():
    deferred = sorted(
        (module, target)
        for module, path in MODULES.items()
        for target, in_function in executed_imports(path)
        if in_function and module != "repro.cli"
    )
    assert deferred == []


def test_moved_modules_left_no_alias():
    assert [name for name in MOVED if importlib.util.find_spec(name)] == []
