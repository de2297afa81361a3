"""Out-of-program tracing: spans around the program's public functions.

:meth:`Tracer.install` replaces each target function by a timing wrapper in
every ``protocheck`` module namespace that holds it, so calls through the
``protocheck.cli`` imports and nested calls through module globals (for
example ``verify_roundtrip`` calling ``statespace.explore``) are both
caught.  Spans (name, start, end, parent) and counters stay in memory until
:meth:`Tracer.write_jsonl`.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

# (module, function) -> span name.  Functions not listed here are folded
# into the self time of the nearest traced caller.
TARGETS = {
    ("automata", "parse_dot"): "automata.parse_dot",
    ("automata", "emit_dot"): "automata.emit_dot",
    ("cpm", "annotate"): "cpm.annotate",
    ("cpm", "expand_tau"): "cpm.expand_tau",
    ("cpm", "parse_annotated_dot"): "cpm.parse_annotated_dot",
    ("cpm", "emit_annotated_dot"): "cpm.emit_annotated_dot",
    ("actorgen", "build_ir"): "actorgen.build_ir",
    ("actorgen", "emit_rebeca"): "actorgen.emit_rebeca",
    ("statespace", "explore"): "statespace.explore",
    ("statespace", "collapse"): "statespace.collapse",
    ("statespace", "verify_roundtrip"): "statespace.verify_roundtrip",
    ("statespace", "parse_lts_dot"): "statespace.parse_lts_dot",
    ("statespace", "emit_lts_dot"): "statespace.emit_lts_dot",
    ("ltl", "check"): "ltl.check",
    ("ltl", "vacuity"): "ltl.vacuity",
    ("ltl", "kripke_from_annotated"): "ltl.kripke",
    ("ltl", "ltl_to_buchi"): "ltl.ltl_to_buchi",
    ("learning", "lstar_learn"): "learning.lstar_learn",
    ("learning", "random_walk_oracle"): "learning.oracle",
    ("testkit", "concretize"): "testkit.concretize",
    ("testkit", "replay"): "testkit.replay",
}
CLI_PREFIX = "cli."
SUL_SPAN = "sul.query"
DOT_READERS = ("automata.parse_dot", "cpm.parse_annotated_dot", "statespace.parse_lts_dot")


class Tracer:
    def __init__(self):
        # span: [name, start_ns, end_ns, parent index or -1, calls, symbols]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        # (parent, name) -> [first start, total ns, calls, symbols]
        self._leaves: dict[tuple[int, str], list[int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    def count(self, name: str, value: int):
        self.counters[name] = self.counters.get(name, 0) + value

    def leaf(self, name: str, start: int, end: int, symbols: int):
        """A call into the system: aggregated per caller span, because a
        learning run makes thousands of them."""
        key = (self.stack[-1] if self.stack else -1, name)
        total = self._leaves.get(key)
        if total is None:
            total = self._leaves[key] = [start, 0, 0, 0]
        total[1] += end - start
        total[2] += 1
        total[3] += symbols

    def finish(self):
        """Close the operation: one span per (caller, leaf name), whose
        duration is the total time of those calls."""
        for (parent, name), (start, total, calls, symbols) in self._leaves.items():
            self.spans.append([name, start, start + total, parent, calls, symbols])
        self._leaves.clear()

    def wrap(self, name: str, fn):
        spans, stack, observe = self.spans, self.stack, self._observe

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, 1, 0])
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index][1], spans[index][2] = start, end
            observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name: str, args, result):
        if name in DOT_READERS:
            self.count("dot.read_bytes", len(args[0]))
        elif name == "learning.lstar_learn":
            self.count("learning.membership_queries", result.membership_queries)
            self.count("learning.equivalence_queries", result.equivalence_queries)
            self.count("learning.rounds", result.rounds)
            self.count("learning.table_rows", result.table_size[0])
            self.count("learning.table_columns", result.table_size[1])
        elif name == "statespace.explore":
            self.count("statespace.explore_calls", 1)
            self.counters["statespace.lts_nodes"] = max(
                self.counters.get("statespace.lts_nodes", 0), len(result.nodes))
            self.counters["statespace.lts_edges"] = max(
                self.counters.get("statespace.lts_edges", 0), len(result.edges))
        elif name == "ltl.ltl_to_buchi":
            self.count("ltl.buchi_states", len(result.states))
        elif name == "ltl.check":
            self.count("ltl.properties", 1)
            if result.lasso is not None:
                self.count("ltl.violated", 1)
                self.count("ltl.witness_states",
                           len(result.lasso.stem) + len(result.lasso.loop))
        elif name == "testkit.concretize":
            self.count("testkit.test_inputs", len(result.inputs))

    def install(self):
        """Wrap every target and every ``cli.cmd_*`` plus ``cli.main``."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "protocheck" or n.startswith("protocheck.")]
        wrapped = {}
        for (module, function), name in TARGETS.items():
            fn = getattr(sys.modules[f"protocheck.{module}"], function)
            wrapped[id(fn)] = self.wrap(name, fn)
        for function, fn in vars(sys.modules["protocheck.cli"]).items():
            if function == "main" or function.startswith("cmd_"):
                wrapped[id(fn)] = self.wrap(CLI_PREFIX + function, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)])

    def uninstall(self):
        for module, attr, value in self._restore:
            setattr(module, attr, value)
        self._restore.clear()

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()
        self._leaves.clear()

    def write_jsonl(self, path, operations):
        """One line per span, then one line of counters, per operation."""
        with open(path, "w", encoding="utf-8") as handle:
            for op, (spans, counters) in enumerate(operations):
                for index, (name, start, end, parent, calls, symbols) in enumerate(spans):
                    record = {"op": op, "span": index, "name": name, "start_ns": start,
                              "end_ns": end, "parent": parent}
                    if name == SUL_SPAN:
                        record.update(calls=calls, symbols=symbols)
                    handle.write(json.dumps(record) + "\n")
                handle.write(json.dumps({"op": op, "counters": counters},
                                        sort_keys=True) + "\n")


def layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer figures of one operation, in seconds and counts.

    A span's self time is its duration minus its children's durations; the
    self time of a span that has no metric of its own is charged to its
    nearest traced caller.  ``learning.learn_s`` and ``learning.oracle_s``
    are inclusive; ``learning.sul_s`` is the time spent inside the system
    during learning, and ``learning.bookkeeping_s`` is what is left of
    ``lstar_learn`` outside the oracle and outside the system.
    """
    child_time = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    owner = [""] * len(spans)
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        caller = spans[parent][0] if parent >= 0 else ""
        if name == SUL_SPAN:
            learning = caller in ("learning.lstar_learn", "learning.oracle")
            owner[i] = "learning.sul" if learning else owner[parent]
        elif name == "learning.lstar_learn":
            owner[i] = "learning.bookkeeping"
        elif name == "learning.oracle":
            owner[i] = "learning.oracle_self"
        elif name.startswith(CLI_PREFIX):
            owner[i] = "cli.self"
        elif name == "ltl.ltl_to_buchi":
            owner[i] = owner[parent]
        else:
            owner[i] = name
    out: dict[str, float] = {"learning.mq_symbols": 0, "learning.eq_symbols": 0,
                             "learning.eq_resets": 0}
    for i, (name, start, end, parent, calls, symbols) in enumerate(spans):
        key = owner[i] + "_s"
        out[key] = out.get(key, 0.0) + (end - start - child_time[i]) / 1e9
        if name in ("learning.lstar_learn", "learning.oracle"):
            key = "learning.learn_s" if name == "learning.lstar_learn" else "learning.oracle_s"
            out[key] = out.get(key, 0.0) + (end - start) / 1e9
        elif owner[i] == "learning.sul":
            if spans[parent][0] == "learning.oracle":
                out["learning.eq_symbols"] += symbols
                out["learning.eq_resets"] += calls
            else:
                out["learning.mq_symbols"] += symbols
    # the oracle's self time and its system calls are both inside oracle_s
    out.pop("learning.oracle_self_s", None)
    out.update(counters)
    parse_s = sum(out.get(name + "_s", 0.0) for name in DOT_READERS)
    out["dot.read_bytes_per_s"] = out.get("dot.read_bytes", 0) / parse_s if parse_s else 0.0
    return out
