"""Run one nclosed CLI command in this interpreter with its layers traced.

    python3 trace_child.py SRC SPANS SUMMARY -- <cli arguments>

Wraps the public functions listed in SPANS (a span per call: name, start,
end, enclosing span) and COUNTS (a call count only, for functions too hot
to record one by one) in every nclosed module that binds them, so a name
brought in with `from ... import` is counted at each call site. The spans
stay in memory while the command runs and are written to SPANS when it
returns; SUMMARY gets calls, total and self time per span name (self time
is the span minus its direct child spans) and the counters. The command's
stdout and exit code are the CLI's own.

Only meaningful at --jobs 1: spans recorded in forked workers are lost.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

SPANS = {
    "groups": ("validate_cayley_table", "validate_semigroup_table",
               "make_named", "direct_product", "load_cayley_table"),
    "parsing": ("parse_group_spec",),
    "subsets": ("all_subgroups", "is_normal_classic"),
    "closedness": ("is_n_closed", "least_closed_scan", "extract_subgroup",
                   "analyze_coset", "power_coset_closedness",
                   "closedness_spectrum", "is_n_closed_oracle"),
    "normality": ("normal_iff_index_plus_one", "normal_iff_existential"),
    "verify": ("run_verification", "sweep_extraction",
               "sweep_semigroup_shifts", "cross_check_engine_oracle"),
    "scan": ("run_scan",),
    "cli": ("main",),
}

COUNTS = {
    "subsets": ("closure_mask", "translate_mask_left", "translate_mask_right"),
}


def _validated_cells(args, kwargs):
    table = args[0] if args else kwargs["table"]
    return "groups.validated_cells", len(table) ** 2


def _subgroups_found(result):
    return "subsets.subgroups_found", len(result)


def _claim_checks(result):
    return "verify.claim_checks", sum(t.checked for t in result.claims.values())


# counts read from a traced call's arguments (also when the call raises)
ARG_HOOKS = {
    "groups.validate_cayley_table": _validated_cells,
    "groups.validate_semigroup_table": _validated_cells,
}

# counts read from what a traced call returns
RESULT_HOOKS = {
    "subsets.all_subgroups": _subgroups_found,
    "verify.run_verification": _claim_checks,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def bump(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        arg_hook, result_hook = ARG_HOOKS.get(name), RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if arg_hook is not None:
                self.bump(*arg_hook(args, kwargs))
            rec = [name_id, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if result_hook is not None:
                self.bump(*result_hook(result))
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        bound = [m for n, m in sys.modules.items()
                 if n == "nclosed" or n.startswith("nclosed.")]
        for kind, table in (("span", SPANS), ("count", COUNTS)):
            for modname, fnames in table.items():
                module = importlib.import_module(f"nclosed.{modname}")
                for fname in fnames:
                    name = f"{modname}.{fname}"
                    orig = getattr(module, fname)
                    wrapped = (self.span(name, orig) if kind == "span"
                               else self.counter(name, orig))
                    for m in bound:
                        for attr, value in list(vars(m).items()):
                            if value is orig:
                                setattr(m, attr, wrapped)

    def summary(self) -> dict:
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        per_name = {name: {"calls": 0, "total_ns": 0, "self_ns": 0}
                    for name in self.names}
        for i, (name_id, start, end, _) in enumerate(self.spans):
            row = per_name[self.names[name_id]]
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[i]
        return {"spans": per_name, "counts": dict(self.counts)}


def main() -> int:
    src, spans_path, summary_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py SRC SPANS SUMMARY -- ARGS...")
    sys.path.insert(0, src)
    import nclosed  # noqa: F401  (imports every module before wrapping)
    import nclosed.cli

    tracer = Tracer()
    tracer.install()
    try:
        rc = nclosed.cli.main(argv)
        sys.stdout.flush()
    finally:
        with open(spans_path, "w") as f:
            json.dump({"names": tracer.names, "spans": tracer.spans}, f)
        with open(summary_path, "w") as f:
            json.dump(tracer.summary(), f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
