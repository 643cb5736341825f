"""Source layout rules that no single module's tests can see."""

import ast
import importlib.util
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
