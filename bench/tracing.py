"""Per-layer tracing from outside the program.

`Tracer.installed()` wraps each module's public entry points (the names the
package exports, `cli.main`, `verify.run_suite` and the hot methods) for the
duration of a `with` block.
A function imported by name is bound separately in every module that
imports it, so each binding is replaced, found by identity.  Hot methods are
replaced on their class.

Every wrapped call opens a span.  Spans stay in memory, aggregated per
(caller layer, callee) edge so that a pass with a million calls keeps a
bounded record, and are written out by the caller when the run ends.  A
layer's self time is its span time minus the time covered by child spans of
other layers; a span nested directly in a span of its own layer is part of
that outer span's time.
"""

import contextlib
import sys
from collections import Counter
from time import perf_counter

# layer (the module) -> [(attribute, the counter it feeds or None)]
ENTRY_POINTS = {
    "qpoly": [
        ("LaurentPoly.__add__", "add_calls"), ("LaurentPoly.__radd__", "add_calls"),
        ("LaurentPoly.__mul__", "mul_calls"), ("LaurentPoly.__rmul__", "mul_calls"),
        ("gauss_binomial", None), ("gauss_binomial_qinv", None),
        ("q_factorial", None), ("q_int", None), ("q_pochhammer", None),
    ],
    "shapes": [
        ("StdTableau.__init__", "tableaux_built"),
        ("StdTableau.conjugate", "conjugate_calls"),
        ("enumerate_SYT", None), ("conjugate", None),
        ("hook_tableau_from_descents", None), ("is_hook", None),
        ("make_hook", None), ("parse_partition", None), ("partition_str", None),
    ],
    "paths": [
        ("LatticePath.__init__", "paths_built"), ("LatticePath.area", "area_calls"),
        ("enumerate_T", None), ("filter_paths", None),
        ("gf_T", None), ("gf_closed", None), ("hat_gf", None),
    ],
    "schur": [
        ("SchurExpansion.__add__", "add_calls"), ("e_perp", "e_perp_calls"),
        ("omega", None), ("psi", None), ("psi_inverse_hooks", None),
        ("restrict", None), ("specialize2", None), ("ssyt_specialize_oracle", None),
    ],
    "characters": [
        (name, "calls") for name in (
            "alternant_formula", "alternating_identity_check", "f_one_part",
            "gl2_delta_en", "gl2_delta_mu", "gl2_nabla_hooks", "hook_formula",
            "hrs_t0", "lift_hooks", "lift_next_column", "two_column_formula",
        )
    ],
    "pierimaps": [("TaggedPath.__init__", "tagged_built")] + [
        (name, "map_calls") for name in (
            "e_plus_map", "e_minus_map", "phi_map", "phi_inverse",
            "omega_map", "omega_inverse", "beta_map", "beta_inverse",
        )
    ] + [
        (name, None) for name in (
            "build_sets", "compare_difference", "difference_W",
            "hook_of", "path_stats", "perp_via_paths",
        )
    ],
    "verify": [("run_suite", None)],
    "cli": [("main", None)],
    "fixtures": [("load_fixture", None), ("fixture_component", None)],
}

LAYERS = tuple(ENTRY_POINTS)


class Tracer:
    def __init__(self):
        self.stack = []            # open spans: [layer, entry, other-layer child time]
        self.counts = Counter()    # "layer.counter" -> value
        self.self_s = Counter()    # layer -> self seconds
        self.edges = Counter()     # (caller layer, "layer.entry") -> calls
        self.edge_s = Counter()    # (caller layer, "layer.entry") -> seconds

    def _wrap(self, fn, layer, entry, counter, hooks):
        key = f"{layer}.{entry}"
        count_key = f"{layer}.{counter}" if counter else None
        stack, counts, self_s = self.stack, self.counts, self.self_s
        edges, edge_s = self.edges, self.edge_s
        on_result = hooks.get(key)

        def wrapper(*args, **kwargs):
            if count_key:
                counts[count_key] += 1
            span = [layer, key, 0.0]
            caller = stack[-1][0] if stack else "bench"
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                edges[caller, key] += 1
                if stack and stack[-1][0] == layer:
                    stack[-1][2] += span[2]
                else:
                    self_s[layer] += elapsed - span[2]
                    edge_s[caller, key] += elapsed
                    if stack:
                        stack[-1][2] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _result_hooks(self):
        counts, stack = self.counts, self.stack

        def syt(result):
            counts["shapes.syt_enumerated"] += len(result)

        def instances(result):
            counts["verify.instances"] += len(result)

        def enumerated(result):
            if stack and stack[-1][1] == "paths.filter_paths":
                counts["paths.filter_enumerated"] += len(result)

        def kept(result):
            counts["paths.filter_kept"] += len(result)

        return {
            "shapes.enumerate_SYT": syt,
            "verify.run_suite": instances,
            "paths.enumerate_T": enumerated,
            "paths.filter_paths": kept,
        }

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point in every hookpaths module; undo on exit."""
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "hookpaths" or name.startswith("hookpaths.")
        ]
        undo = []
        hooks = self._result_hooks()
        for layer, entries in ENTRY_POINTS.items():
            home = sys.modules[f"hookpaths.{layer}"]
            for entry, counter in entries:
                owner_name, _, attr = entry.rpartition(".")
                if owner_name:
                    owner = getattr(home, owner_name)
                    original = owner.__dict__[attr]
                    undo.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(original, layer, entry, counter, hooks))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(original, layer, entry, counter, hooks)
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, bound, original))
                            setattr(mod, bound, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def layer_metrics(self):
        """Counts and self times per layer, named as in BENCHMARK.json."""
        c = self.counts
        enumerated = c["paths.filter_enumerated"]
        out = {
            "qpoly.add_calls": c["qpoly.add_calls"],
            "qpoly.mul_calls": c["qpoly.mul_calls"],
            "shapes.tableaux_built": c["shapes.tableaux_built"],
            "shapes.conjugate_calls": c["shapes.conjugate_calls"],
            "shapes.syt_enumerated": c["shapes.syt_enumerated"],
            "paths.paths_built": c["paths.paths_built"],
            "paths.area_calls": c["paths.area_calls"],
            # 0 where filter_paths never runs
            "paths.filter_kept_ratio": c["paths.filter_kept"] / enumerated if enumerated else 0.0,
            "schur.add_calls": c["schur.add_calls"],
            "schur.e_perp_calls": c["schur.e_perp_calls"],
            "characters.calls": c["characters.calls"],
            "pierimaps.tagged_built": c["pierimaps.tagged_built"],
            "pierimaps.map_calls": c["pierimaps.map_calls"],
            "verify.instances": c["verify.instances"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        return out

    def record(self):
        """The in-memory spans as plain data, for writing out at the end."""
        calls = Counter()
        for (_, callee), n in self.edges.items():
            calls[callee] += n
        return {
            "calls": dict(sorted(calls.items())),
            "counts": dict(sorted(self.counts.items())),
            "self_s": {layer: self.self_s[layer] for layer in LAYERS},
            "edges": [
                {"caller": caller, "callee": callee, "calls": n,
                 "seconds": self.edge_s[caller, callee]}
                for (caller, callee), n in sorted(self.edges.items())
            ],
        }
