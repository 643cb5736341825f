"""Seeded mutation fuzzing of instance and table files through cli.main.

Each case edits a valid file at random (lines dropped, repeated, swapped
or inserted, tokens and characters replaced, JSON values replaced or
removed, a rule leaf's entries reversed, text cut short) and runs the commands that read it, in process.
No run may raise or print a traceback.  Exit 1 must come only from a
completed solve that answered NO, and the deterministic engine's answer
must agree with the exact oracle whenever the file parses.
"""

import json
import random
import signal
from contextlib import contextmanager

import pytest

from vcgen.cli import main
from vcgen.graphs import (
    Instance,
    complete_graph,
    cycle_graph,
    format_instance,
    parse_instance,
    petersen_graph,
    vc_oracle,
)
from vcgen.measure import pure_k
from vcgen.rulegen import gensa, table_to_json
from vcgen.subspaces import assertions_for, root_config

TABLE_SIDS = (6, 7, 19)
INSTANCES = [
    format_instance(Instance(complete_graph(4), 3)),
    format_instance(Instance(complete_graph(4), 2)),
    format_instance(Instance(cycle_graph(5), 2)),
    format_instance(Instance(petersen_graph(), 6)),
]
TOKENS = ["-1", "0", "1", "2", "3", "7", "25", "x", "1.5", "", "e", "k", "p", "vc"]
LINES = ["p vc 4 6", "e 0 0", "e 1 2", "e 3 9", "k -1", "k 0", "c note", "q 1", "p vc 2"]
CHARS = "0123456789 -xepkvc\n"
JSON_VALUES = [0, -1, 1, 3, 999, "x", "1/0", "", None, True, 1.5, float("inf"), [], {}, [0, "x"],
               {"a": 1}]


@contextmanager
def time_limit(seconds: int):
    """Fails the case that runs longer than seconds instead of stalling
    the suite."""

    def stop(signum, frame):
        raise TimeoutError(f"run exceeded {seconds} s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def mutate_text(rng: random.Random, text: str) -> str:
    lines = text.splitlines()
    for _ in range(rng.choice((1, 1, 2, 3))):
        op = rng.randrange(7)
        i = rng.randrange(len(lines)) if lines else 0
        if op == 6:  # a new budget keeps the file valid
            lines = [f"k {rng.randint(-1, 8)}" if x.startswith("k") else x for x in lines]
        elif op == 0 and lines:
            del lines[i]
        elif op == 1 and lines:
            lines.insert(i, lines[i])
        elif op == 2 and len(lines) > 1:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:
            lines.insert(i, rng.choice(LINES))
        elif op == 4 and lines:
            parts = lines[i].split()
            if parts:
                parts[rng.randrange(len(parts))] = rng.choice(TOKENS)
                lines[i] = " ".join(parts)
        else:
            flat = "\n".join(lines)
            if flat:
                at = rng.randrange(len(flat))
                flat = flat[:at] + rng.choice(CHARS) + flat[at + 1 :]
            lines = flat.splitlines()
    return "\n".join(lines) + "\n"


def _slots(doc, out):
    """Every (container, key) pair inside doc, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        out.append((doc, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


def _first_slots(doc, field=(), out=None) -> dict:
    """The first (container, key) pair of each field of doc, a field being
    a path of keys with list positions merged."""
    out = {} if out is None else out
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        sub = field + (None if isinstance(doc, list) else key,)
        out.setdefault(sub, (doc, key))
        if isinstance(value, (dict, list)):
            _first_slots(value, sub, out)
    return out


def mutate_table(rng: random.Random, text: str) -> str:
    if rng.random() < 0.15:
        return text[: rng.randrange(len(text))]
    doc = json.loads(text)
    for _ in range(rng.randint(1, 2)):
        slots = _slots(doc, [])
        container, key = rng.choice(slots)
        op = rng.randrange(4)
        if op == 3:  # a rule leaf's entries reversed: a table that still certifies
            lists = [(c, k) for c, k in slots if k == "entries" and isinstance(c[k], list)]
            if lists:
                container, key = rng.choice(lists)
                container[key].reverse()
        elif op == 0:  # a copy, so that no edit reaches JSON_VALUES itself
            container[key] = json.loads(json.dumps(rng.choice(JSON_VALUES)))
        elif op == 1:
            del container[key]
        elif isinstance(container[key], int) and not isinstance(container[key], bool):
            container[key] += rng.choice((-1, 1))
        else:
            container[key] = json.loads(json.dumps(rng.choice(slots)[0]))
    # with the counts of the edited tree and written as vcgen writes tables,
    # so that the commands read past the canonical-bytes check into the
    # edited fields
    _restate_counts(doc)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _restate_counts(doc) -> None:
    """Sets meta's counts to those of doc's tree, as generation writes them,
    where doc still has a tree and a meta to count in."""
    try:
        nodes = doc["nodes"]
        kinds = [n["kind"] for n in nodes]
        rule_leaves = sum(k == "leaf" and n["leaf"]["kind"] == "rule" for k, n in zip(kinds, nodes))
        expanded = [n["children"] for k, n in zip(kinds, nodes) if k == "expanded"]
        counts = {
            "nodes": len(nodes),
            "lp_calls": rule_leaves + len(expanded),
            "rule_leaves": rule_leaves,
            "aliases": kinds.count("alias"),
            "pruned_children": sum(ref["node"] is None for refs in expanded for ref in refs),
        }
        doc["meta"].update(counts)
    except (KeyError, IndexError, TypeError, AttributeError):
        pass  # the reader refuses this doc before its counts matter


@pytest.fixture(scope="module")
def tables():
    return {
        sid: table_to_json(gensa(root_config(sid), pure_k(), rule_mode="deterministic",
                                 assertions=assertions_for(sid), subspace_id=sid))
        for sid in TABLE_SIDS
    }


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    with time_limit(30):
        rc = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err, (argv, out, err)
    assert rc in (0, 1, 2, 3), (argv, rc)
    if rc == 3:
        assert (out + err).strip(), argv  # an input error says what it is
    return rc, out, err


def check_solve(text: str, rc: int, out: str) -> None:
    """Exit 0 and 1 come only from a completed solve whose answer is right."""
    if rc not in (0, 1):
        return
    answer = "YES" if rc == 0 else "NO"
    assert answer in out.splitlines(), out
    inst = parse_instance(text)  # a completed solve read a valid file
    if len(inst.graph) <= 24:
        assert (vc_oracle(inst.graph) <= inst.budget) == (rc == 0), text


def write_tables(tmp_path, tables, replaced=None):
    paths = []
    for sid, text in tables.items():
        path = tmp_path / f"P{sid}.json"
        path.write_text(replaced[1] if replaced and replaced[0] == sid else text)
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("seed", range(4))
def test_mutated_instances(tmp_path, capsys, tables, seed):
    rng = random.Random(f"vcgen-fuzz-instance-{seed}")
    table_paths = write_tables(tmp_path, tables)
    inst = tmp_path / "in.vc"
    codes = set()
    for _ in range(60):
        text = mutate_text(rng, rng.choice(INSTANCES))
        inst.write_text(text)
        for cmd in (["classify"], ["oracle"]):
            rc, _, _ = run(capsys, [*cmd, "--instance", str(inst)])
            assert rc in (0, 3), (cmd, text)
        rc, out, _ = run(capsys, ["solve", "--instance", str(inst),
                                  "--tables", *table_paths, "--mode", "det"])
        check_solve(text, rc, out)
        codes.add(rc)
    assert {0, 1, 3} <= codes, codes


@pytest.mark.parametrize("seed", range(4))
def test_mutated_tables(tmp_path, capsys, tables, seed):
    rng = random.Random(f"vcgen-fuzz-table-{seed}")
    inst = tmp_path / "in.vc"
    codes = set()
    for _ in range(40):
        sid = rng.choice(TABLE_SIDS)
        text = mutate_table(rng, tables[sid])
        paths = write_tables(tmp_path, tables, (sid, text))
        rc, _, _ = run(capsys, ["verify", "--table", paths[TABLE_SIDS.index(sid)]])
        assert rc in (0, 2, 3), text
        for base in INSTANCES[:2]:
            inst.write_text(base)
            rc, out, _ = run(capsys, ["solve", "--instance", str(inst),
                                      "--tables", *paths, "--mode", "det"])
            check_solve(base, rc, out)
            codes.add(rc)
    assert {0, 1, 3} <= codes, codes


def test_every_field_meets_every_value(tmp_path, capsys, tables):
    # each of JSON_VALUES in place of the first slot of each field of a
    # table, written as vcgen writes tables, so that the reader of every
    # field (integers, rationals, enums, nested lists) meets every value
    path = tmp_path / "P6.json"
    for field in _first_slots(json.loads(tables[6])):
        for value in JSON_VALUES:
            doc = json.loads(tables[6])
            container, key = _first_slots(doc)[field]
            container[key] = json.loads(json.dumps(value))
            path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
            rc, _, _ = run(capsys, ["verify", "--table", str(path)])
            assert rc in (0, 2, 3), (field, value)
