"""Layout checks over the source tree: ``src/`` holds no dead names, and no
module of ``src/`` or ``tests/`` imports a name it never uses."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "amoegrid"
SCANNED = (PACKAGE, ROOT / "perfbench")


def _defined_names(tree: ast.Module) -> list[tuple[str, str]]:
    """(label, identifier) of the module's top-level functions and classes
    and of its classes' non-dunder methods."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    out.append((f"{node.name}.{item.name}", item.name))
    return out


def _uses(tree: ast.Module) -> Counter[str]:
    """Identifier uses in a module: names, attributes, imported names, and
    string constants that are identifiers (perfbench names the callables it
    traces in strings)."""
    uses: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.alias):
            uses.update(node.name.split("."))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            uses[node.value] += 1
    return uses


def _dead_names(scanned: list[Path], owners: list[Path]) -> list[str]:
    """Labels of the names defined in ``owners`` that no code of the
    ``scanned`` files uses."""
    uses: Counter[str] = Counter()
    for path in scanned:
        uses.update(_uses(ast.parse(path.read_text())))
    return [
        f"{path.relative_to(ROOT)}:{label}"
        for path in owners
        for label, name in _defined_names(ast.parse(path.read_text()))
        if not uses[name]
    ]


def test_every_src_name_is_used_in_src_or_perfbench():
    """A function, class or method whose identifier no code uses is called
    by nothing the engines, the oracle, the CLI or the benchmark run; it
    belongs in ``tests/`` or nowhere."""
    scanned = [path for top in SCANNED for path in sorted(top.rglob("*.py"))]
    assert _dead_names(scanned, sorted(PACKAGE.rglob("*.py"))) == []


def test_every_harness_is_called_by_a_test_or_another_harness():
    """The harnesses and reference algorithms exist only for the tests, so
    each one must be called from a test module or from another harness."""
    tests = ROOT / "tests"
    assert _dead_names(sorted(tests.glob("*.py")), [tests / "harnesses.py"]) == []


def _unused_imports(path: Path) -> list[str]:
    """``name:line`` of each name the module imports and never reads.

    A name counts as read where the AST loads it, where a string annotation
    names it, or where ``__all__`` re-exports it; ``__future__`` imports and
    imports marked ``# noqa: F401`` are left out."""
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        if not lines[node.end_lineno - 1].endswith("# noqa: F401"):
            imported.update(dict.fromkeys(names, node.lineno))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    quoted = [
        node.value
        for owner in ast.walk(tree)
        for annotation in (getattr(owner, "annotation", None), getattr(owner, "returns", None))
        if annotation is not None
        for node in ast.walk(annotation)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    for value in quoted:
        read |= {n.id for n in ast.walk(ast.parse(value, mode="eval")) if isinstance(n, ast.Name)}
    for node in tree.body:
        targets = getattr(node, "targets", [])
        if any(getattr(target, "id", "") == "__all__" for target in targets):
            read |= {elt.value for elt in node.value.elts}
    return [f"{name}:{line}" for name, line in imported.items() if name not in read]


def test_every_imported_name_is_used_by_its_module():
    """An import nothing reads is dead; the one kept on purpose is
    distalgo's ``run_counting_pasc``, which perfbench's tracer test checks
    is bound in the engine module."""
    modules = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = {path.relative_to(ROOT).as_posix(): _unused_imports(path) for path in modules}
    assert {path: names for path, names in unused.items() if names} == {}
    kept = [
        path.relative_to(ROOT).as_posix()
        for path in modules
        for line in path.read_text().splitlines()
        if line.startswith(("from ", "import ")) and line.endswith("# noqa: F401")
    ]
    assert kept == ["src/amoegrid/distalgo.py"]


def test_oracle_imports_no_engine_module_at_run_time():
    """The oracle's answers are the references the engines are tested
    against, so outside ``TYPE_CHECKING`` it imports none of their modules."""
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    type_only = {
        id(inner)
        for node in tree.body
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
        for inner in ast.walk(node)
    }
    modules = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and id(node) not in type_only
    }
    assert "grid" in modules and not modules & {"portals", "split", "decompose"}


def test_oracle_searches_only_by_its_own_bfs():
    """Every distance the oracle reads comes from ``_bfs_planes``, so it
    imports none of scipy's path searches; its component search stays."""
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    imported = {
        alias.name.split(".")[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    searches = {"dijkstra", "shortest_path", "breadth_first_order", "bellman_ford", "johnson", "floyd_warshall"}
    assert "connected_components" in imported and not imported & searches


def _sites(match) -> list[str]:
    """``module:Class.function`` of every AST node of ``src/`` that
    ``match`` accepts, in file order."""
    out = []

    def visit(node, module: str, scope: tuple[str, ...]) -> None:
        if match(node):
            out.append(f"{module}:{'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, module, scope + (child.name,) if named else scope)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.relative_to(PACKAGE).as_posix(), ())
    return out


def test_every_round_is_charged_by_world_beep():
    """A beep round is one ``World.beep``: only it calls ``deliver`` and
    adds to a meter's rounds, besides ``dist_phase3`` adding the rounds of
    its slowest tunnel, which ran on a meter of its own."""
    delivers = _sites(
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "deliver"
    )
    charges = _sites(
        lambda node: isinstance(node, ast.AugAssign)
        and isinstance(node.target, ast.Attribute)
        and node.target.attr == "rounds"
    )
    assert delivers == ["circuits.py:World.beep"]
    assert charges == ["circuits.py:World.beep", "distalgo.py:dist_phase3"]


def _names_pins(node) -> bool:
    """Whether ``node`` is ``<expr>._pins`` or a subscript, attribute or
    method result of it, such as ``w._pins[i]`` or ``w._pins.reshape(-1)[i]``."""
    while isinstance(node, (ast.Subscript, ast.Attribute, ast.Call)):
        if isinstance(node, ast.Attribute) and node.attr == "_pins":
            return True
        node = node.func if isinstance(node, ast.Call) else node.value
    return False


def test_world_wire_is_the_one_writer_of_the_pin_table():
    """Only ``World.wire`` writes the pin table: it is the one site that
    assigns into ``_pins`` or hands it to ``np.copyto``, and ``World``'s
    constructor is the one that binds it or a view of it to a name."""

    def targets(node):
        if isinstance(node, ast.Assign):
            return node.targets
        return [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []

    writes = _sites(
        lambda node: any(isinstance(t, ast.Subscript) and _names_pins(t) for t in targets(node))
        or isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "copyto"
        and bool(node.args)
        and _names_pins(node.args[0])
    )
    def is_pins(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "_pins"

    # ``_pins`` itself, or a view such as ``_pins.reshape(...)``, bound to a name
    binds = _sites(
        lambda node: any(is_pins(t) for t in targets(node))
        or isinstance(node, ast.Assign)
        and (
            is_pins(node.value)
            or isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and is_pins(node.value.func.value)
        )
    )
    assert set(writes) == {"circuits.py:World.wire"}
    assert set(binds) == {"circuits.py:World.__init__"}


def test_no_engine_module_imports_find_holes():
    """Both engines read the holes off the boundary orbits; ``find_holes``
    and its flood of hole interiors serve only the generator and the tests."""
    engines = [PACKAGE / "decompose.py", PACKAGE / "distalgo.py"]
    engines += sorted((PACKAGE / "primitives").glob("*.py"))
    importers = [
        path.relative_to(ROOT).as_posix()
        for path in engines
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(alias.name.split(".")[-1] == "find_holes" for alias in node.names)
    ]
    assert importers == []


def test_plans_name_a_node_by_its_index_row():
    """Inside the plans a node is its index row.  ``decompose.py`` and
    ``distalgo.py`` neither import ``Direction`` nor step with ``.neighbor``;
    none of the plan modules imports ``GridPoint``; outside ``grid.py`` no
    module looks a point up in ``StructureIndex.row`` or subscripts an
    ``.index`` attribute; and only the oracle calls ``rows_of``, the one
    points-to-rows conversion, on the region node sets it is handed."""
    steps = _sites(
        lambda node: (isinstance(node, ast.alias) and node.name == "Direction")
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "neighbor"
        )
    )
    assert [site for site in steps if site.startswith(("decompose.py:", "distalgo.py:"))] == []
    plans = ("circuits.py:", "portals.py:", "split.py:", "decompose.py:", "distalgo.py:")
    points = _sites(lambda node: isinstance(node, ast.alias) and node.name == "GridPoint")
    assert [site for site in points if site.startswith(plans)] == []

    def row_table(node) -> bool:  # ``x.row[...]`` or ``x.row.get(...)``
        return isinstance(node, ast.Attribute) and node.attr == "row"

    lookups = _sites(
        lambda node: (isinstance(node, ast.Subscript) and row_table(node.value))
        or (isinstance(node, ast.Attribute) and node.attr == "get" and row_table(node.value))
        or (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "index"
        )
    )
    assert [site for site in lookups if not site.startswith("grid.py:")] == []
    converters = _sites(lambda node: isinstance(node, ast.FunctionDef) and node.name == "rows_of")
    assert converters == ["grid.py:StructureIndex.rows_of"]
    calls = _sites(
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "rows_of"
    )
    assert calls and all(site.startswith("oracle.py:") for site in calls)


def test_only_known_rounds_discard_what_they_heard():
    """A ``beep(...)`` whose result is dropped as a bare statement charges a
    round nobody reads.  One is left (ROADMAP item 3): the beeps of
    ``_beep_from``, whose marks the callers compute centrally.  Round 1 of
    the contraction is read for a rootless contraction's stop signal, but
    its head coins still come from the central draw, because the fragment
    circuits of sibling regions are not yet parted (ROADMAP item 2)."""
    discarded = _sites(
        lambda node: isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and "beep" in (getattr(node.value.func, "attr", None), getattr(node.value.func, "id", None))
    )
    assert discarded == ["distalgo.py:_beep_from"]


def test_one_election():
    """The boundary test elects the cycle leaders, and nothing else calls
    ``run_election``: phase 2 prunes its portal trees without electing a
    root, so ``distalgo.py`` holds no election."""
    calls = _sites(
        lambda node: isinstance(node, ast.Call)
        and "run_election" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    )
    assert calls == ["primitives/boundary.py:BoundaryTest.run"]
