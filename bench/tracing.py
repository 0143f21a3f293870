"""In-memory span tracing of aerialsim's layers, installed from outside.

The program is not instrumented. Instead, ``Tracer.install`` replaces the
module attributes that aerialsim's call sites look up at call time with thin
wrappers that record a span (name, start, end, parent) and bump counters,
and ``Tracer.uninstall`` puts the originals back. Spans stay in memory until
``save`` writes them out; self times are derived from them afterwards.
"""

import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute, span name). A span's parent is the innermost span open
# when it starts, so e.g. the aggregate_qos calls made by the learner's QoS
# table are children of placement.learn_placement.
SPANNED = [
    # The benchmark's own entry points, so the workload's root is a span too.
    ("aerialsim.scenario", "run_scenario", "scenario.run_scenario"),
    ("aerialsim.cli", "main", "cli.main"),
    ("aerialsim.scenario", "step", "mobility.step"),
    ("aerialsim.scenario", "aggregate_qos", "radio.aggregate_qos"),
    ("aerialsim.placement", "aggregate_qos", "radio.aggregate_qos"),
    ("aerialsim.oracle", "aggregate_qos", "radio.aggregate_qos"),
    ("aerialsim.scenario", "link_report", "radio.link_report"),
    ("aerialsim.radio", "atg_pathloss_hl", "channel.pathloss"),
    ("aerialsim.radio", "ground_pathloss_d", "channel.pathloss"),
    ("aerialsim.placement", "greedy_rollout", "placement.greedy_rollout"),
    ("aerialsim.scenario", "learn_placement", "placement.learn_placement"),
    ("aerialsim.cli", "exhaustive_search", "oracle.exhaustive_search"),
    ("aerialsim.cli", "export_qos_csv", "oracle.export_qos_csv"),
    ("aerialsim.scenario", "emit_outputs", "scenario.emit_outputs"),
    ("aerialsim.scenario", "hex_layout", "deployment.hex_layout"),
    ("aerialsim.scenario", "drop_users_ppp", "deployment.drop_users_ppp"),
    # cmd_oracle imports these from the deployment module when it runs.
    ("aerialsim.deployment", "hex_layout", "deployment.hex_layout"),
    ("aerialsim.deployment", "drop_users_ppp", "deployment.drop_users_ppp"),
]


def _count_links(state) -> int:
    n_bs = sum(1 for b in state.ground_bs if b.active)
    n_bs += state.aerial_pos is not None
    return len(state.users) * n_bs


def _bytes_written(paths) -> int:
    return sum(p.stat().st_size for p in paths)


# Counters taken from a wrapped call's arguments (before) or result (after).
COUNT_ARGS = {
    ("aerialsim.scenario", "step"): lambda a: {"mobility.user_steps": len(a[0])},
    ("aerialsim.scenario", "aggregate_qos"): lambda a: {"radio.link_evals": _count_links(a[0])},
    ("aerialsim.placement", "aggregate_qos"): lambda a: {
        "radio.link_evals": _count_links(a[0]), "placement.qos_evals": 1},
    ("aerialsim.oracle", "aggregate_qos"): lambda a: {"radio.link_evals": _count_links(a[0])},
}
COUNT_RESULT = {
    ("aerialsim.scenario", "run_scenario"): lambda r: {"scenario.slots": len(r.records) - 1},
    ("aerialsim.scenario", "learn_placement"): lambda r: {"placement.steps": len(r.rewards)},
    ("aerialsim.scenario", "emit_outputs"): lambda r: {"scenario.bytes_written": _bytes_written(r)},
}


class Tracer:
    """Records spans and counters from wrappers around aerialsim functions."""

    def __init__(self):
        self.names = []          # span name table; spans refer to it by index
        self._name_ids = {}
        # One column per span field; parent is a span index, or -1 at the root.
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counts = defaultdict(int)
        self._stack = [-1]
        self._saved = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        idx = len(self.start)
        self.name_id.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, count_args, count_result):
        def wrapper(*args, **kwargs):
            if count_args:
                for k, v in count_args(args).items():
                    self.counts[k] += v
            result = self.span(name, fn, *args, **kwargs)
            if count_result:
                for k, v in count_result(result).items():
                    self.counts[k] += v
            return result
        return wrapper

    def _wrap_qos_table(self, make_table):
        def make(*args, **kwargs):
            qos = make_table(*args, **kwargs)

            def lookup(s):
                self.counts["placement.qos_lookups"] += 1
                return qos(s)
            return lookup
        return make

    def install(self, modules):
        """Patch the traced attributes on the given {name: module} mapping."""
        for mod_name, attr, span_name in SPANNED:
            mod = modules[mod_name]
            self._patch(mod, attr, self._wrap(
                getattr(mod, attr), span_name,
                COUNT_ARGS.get((mod_name, attr)), COUNT_RESULT.get((mod_name, attr))))
        placement = modules["aerialsim.placement"]
        self._patch(placement, "make_qos_table",
                    self._wrap_qos_table(placement.make_qos_table))

    def _patch(self, mod, attr, value):
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self):
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)

    def __len__(self):
        return len(self.start)

    def summary(self, first=0):
        """Per span name, over spans from index first on: calls, seconds, self seconds.

        A span's self time is its duration minus that of its direct children;
        spans of one thread nest, so the children never overlap.
        """
        nid = np.frombuffer(self.name_id, dtype=np.int32)[first:]
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start))[first:]
        parent = np.frombuffer(self.parent, dtype=np.int64)[first:] - first
        child = np.zeros(dur.size)
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        own = np.bincount(nid, weights=dur - child, minlength=n)
        return {self.names[k]: {"calls": int(calls[k]), "s": float(total[k]),
                                "self_s": float(own[k])}
                for k in range(n) if calls[k]}

    def save(self, path):
        """Write the spans (one array per field plus the name table) to an .npz file."""
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=np.frombuffer(self.name_id, dtype=np.int32),
                            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                            parent=np.frombuffer(self.parent, dtype=np.int64))
