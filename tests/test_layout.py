"""Source layout rules that no single module's tests can see."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import vcgen

SRC = Path(vcgen.__file__).resolve().parent


def test_no_private_imports_across_modules():
    # a module uses another module's public names only; a private helper
    # that two modules need is made public in one of them
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            internal = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "vcgen"
            )
            if internal:
                found += [
                    f"{path.name}:{node.lineno} from {'.' * node.level}{node.module or ''} import {a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                ]
    assert not found, found


def test_graph_internals_stay_in_graphs():
    # the adjacency map and the degree-<=2 set are kept in step by
    # Graph's own methods; code elsewhere reads them through
    # neighbors() and low_degree(), so no edit can leave the set stale
    root = Path(__file__).resolve().parents[1]
    paths = [*SRC.glob("*.py"), *(root / "tests").glob("*.py"), *(root / "bench").glob("*.py")]
    found = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sorted(paths)
        if path != SRC / "graphs.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("_adj", "_low")
    ]
    assert not found, found


def test_benchmark_spans_resolve():
    # bench/spans.py wraps these names from outside the package; a refactor
    # that drops or renames one breaks every traced run
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    def module(name):
        return vcgen if name == "" else getattr(vcgen, name)

    missing = [
        key for key in [*spans.FUNCTION_SPANS, *spans.COUNTED]
        if not callable(getattr(module(key[0]), key[1], None))
    ] + [
        key for key in [*spans.METHOD_SPANS, *spans.COUNTED_METHODS]
        if not callable(getattr(getattr(module(key[0]), key[1], None), key[2], None))
    ]
    assert not missing, missing


# Public names that the package itself never uses, each kept for a reason.
TEST_ONLY_ALLOWED = {
    "graphs.complete_graph": "public helper: builds a named graph for callers",
    "graphs.path_graph": "public helper: builds a named graph for callers",
    "graphs.petersen_graph": "public helper: builds a named graph for callers",
    "graphs.format_instance": "public helper: writes the instance format the CLI reads",
    "requirements.RequirementContext.satisfies": "bench/spans.py counts its calls",
    "runtime.TableEngine.rsearch_cover": "one seeded walk: the traversal that solve_randomized "
                                         "runs per block of trials, with one generator",
}


def _referenced_names(tree: ast.AST) -> list[str]:
    return [
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    ]


def test_no_test_only_public_names():
    # a public function, class or method that no module of the package uses
    # belongs in tests/ (or on the allowlist); names in vcgen.__all__ are the
    # package's interface, and the package's own re-exports count for nothing
    modules = {p.stem: ast.parse(p.read_text(), str(p))
               for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    uses = Counter(name for tree in modules.values() for name in _referenced_names(tree))
    defs = []
    for stem, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defs += [(f"{stem}.{node.name}.{sub.name}", sub)
                         for sub in node.body if isinstance(sub, ast.FunctionDef)]
    unused = [
        qual for qual, node in defs
        if not node.name.startswith("_")
        and not (qual.count(".") == 1 and node.name in vcgen.__all__)
        # uses inside the definition itself (recursion) do not count
        and uses[node.name] <= _referenced_names(node).count(node.name)
    ]
    assert set(unused) == set(TEST_ONLY_ALLOWED), {
        "unused by the package": sorted(set(unused) - set(TEST_ONLY_ALLOWED)),
        "allowed but now used": sorted(set(TEST_ONLY_ALLOWED) - set(unused)),
    }
