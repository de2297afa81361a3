"""Correctness checks that use none of the program's code.

The program's artifacts are read with the benchmark's own small DOT reader
(it accepts the documented output format for plain identifiers) and judged
against the hidden machine and the benchmark's own reachability pass.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import deque
from pathlib import Path

from generators import Machine, evaluate

_ID = r'(?:"(?:\\.|[^"\\])*"|[A-Za-z0-9_.+-]+)'
_EDGE = re.compile(rf'^\s*({_ID})\s*->\s*({_ID})\s*(?:\[label="((?:\\.|[^"\\])*)"\])?;$')
_NODE = re.compile(rf'^\s*({_ID})\s*(?:\[(.*)\])?;$')
_LABEL = re.compile(r'label="((?:\\.|[^"\\])*)"')
_START = "__start"


def _unquote(token: str) -> str:
    return re.sub(r"\\(.)", r"\1", token[1:-1]) if token.startswith('"') else token


def read_dot(text: str):
    """(initial, node labels, edges) of a DOT file written by the program;
    edges are (source, input, output, target)."""
    initial, labels, edges = None, {}, []
    for line in text.splitlines()[1:-1]:
        m = _EDGE.match(line)
        if m:
            src, dst = _unquote(m.group(1)), _unquote(m.group(2))
            if src == _START:
                initial = dst
            else:
                sym, out = re.split(r"(?<!\\) / ", m.group(3), maxsplit=1)
                edges.append((src, _unquote(f'"{sym}"'), _unquote(f'"{out}"'), dst))
            continue
        m = _NODE.match(line)
        if m is None:
            raise ValueError(f"unreadable DOT statement {line!r}")
        label = _LABEL.search(m.group(2) or "")
        labels[_unquote(m.group(1))] = _unquote(f'"{label.group(1)}"') if label else ""
    if initial is None:
        raise ValueError("DOT file has no initial-state marker")
    return initial, labels, edges


def equivalent(hidden: Machine, model_dot: str) -> bool:
    """Product walk from both initial states: every reachable state pair
    answers every input with the same output."""
    initial, _, edges = read_dot(model_dot)
    learned = {(src, sym): (dst, out) for src, sym, out, dst in edges}
    start = (hidden.initial, initial)
    seen, frontier = {start}, deque([start])
    while frontier:
        h, q = frontier.popleft()
        for sym in hidden.inputs:
            if (q, sym) not in learned:
                return False
            (h2, out_h), (q2, out_q) = hidden.delta[(h, sym)], learned[(q, sym)]
            if out_h != out_q:
                return False
            if (h2, q2) not in seen:
                seen.add((h2, q2))
                frontier.append((h2, q2))
    return True


def replay_tests(hidden: Machine, tests_jsonl: str) -> tuple[bool, int, int]:
    """(every test's expected outputs are what the hidden machine answers,
    number of tests, total test inputs)."""
    ok, count, symbols = True, 0, 0
    for line in tests_jsonl.splitlines():
        if not line.strip():
            continue
        test = json.loads(line)
        count += 1
        symbols += len(test["inputs"])
        ok = ok and list(hidden.run(test["inputs"])) == test["expected"]
    return ok, count, symbols


def _annotated_labels(label: str) -> frozenset[str]:
    """'q {P,Q}' or 'tau0 {P | T}' -> {P, Q} or {P, T}."""
    inner = label[label.index("{") + 1:label.rindex("}")]
    return frozenset(p.strip() for p in inner.replace("|", ",").split(",") if p.strip())


def invariant_verdicts(expanded_dot: str, invariants: dict[str, tuple]) -> dict[str, str]:
    """Verdict of each property G(b_1) && ... && G(b_n): VIOLATED iff a state
    reachable in the expanded model falsifies some b_i on its labels
    (state propositions plus the temporaries of internal states)."""
    initial, labels, edges = read_dot(expanded_dot)
    successors: dict[str, list[str]] = {}
    for src, _, _, dst in edges:
        successors.setdefault(src, []).append(dst)
    seen, frontier = {initial}, deque([initial])
    while frontier:
        for nxt in successors.get(frontier.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    valuations = {_annotated_labels(labels[q]) for q in seen}
    return {
        name: "VIOLATED" if any(not evaluate(b, v) for b in bodies for v in valuations)
        else "HOLDS"
        for name, bodies in invariants.items()
    }


def report_verdicts(report_json: str) -> dict[str, str]:
    return {p["name"]: p["verdict"] for p in json.loads(report_json)["properties"]}


def digest(directory: Path) -> str:
    """Hash of every file's relative path and bytes under ``directory``."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
