"""Which infkit functions the tracer wraps, and the per-layer metrics built
from its summaries. A layer is named `<module>.<function>`, except the
groups below; `tracer.py` and `run.py` both read this module.
"""
from __future__ import annotations

MODULES = ("syntax", "boolalg", "bvmodel", "quotient", "consprop",
           "mansfield", "modelgen", "calculus", "iojson", "cli")

# Public functions that share one layer.
GROUPS = {
    ("mansfield", "verify_claim1"): "mansfield.verify_claims",
    ("mansfield", "verify_claim2"): "mansfield.verify_claims",
}
PREFIX_GROUPS = {("iojson", "parse_"): "iojson.parse",
                 ("iojson", "emit_"): "iojson.emit"}

# Methods wrapped on their class; `inf` and `sup` drain their iterable
# before the span opens, so lazily evaluated arguments are charged to the
# caller and not to the algebra.
METHODS = {
    ("boolalg", "FinBooleanAlgebra"): (
        "boolalg.ops", ("meet", "join", "comp", "leq", "inf", "sup")),
    ("consprop", "ConsistencyProperty"): (
        "consprop.membership", ("is_member", "in_pool")),
    ("bvmodel", "BValuedModel"): ("bvmodel.models", ("__post_init__",)),
}
DRAINING = ("inf", "sup")

# `cli` is wrapped at its entry points only, so that `cli.main` keeps
# argument parsing and report shaping (`_plain`) as its self time.
CLI_FUNCTIONS = ("main", "run_corpus")

# Per-node helpers: wrapping them would multiply the tracing cost for no
# layer boundary; their time stays with their caller.
SKIP = {
    ("bvmodel", "term_value"),
    ("syntax", "valid_ident"),
    ("syntax", "is_term"),
    ("syntax", "is_sentence"),
    ("iojson", "parse_term"),
    ("iojson", "emit_term"),
}


def layer_of(module: str, function: str) -> str:
    if (module, function) in GROUPS:
        return GROUPS[(module, function)]
    for (mod, prefix), layer in PREFIX_GROUPS.items():
        if module == mod and function.startswith(prefix):
            return layer
    return f"{module}.{function}"


def _self_s(layer: str) -> dict:
    return {"name": f"{layer}.self_s", "unit": "s", "better": "lower"}


def _calls(layer: str) -> dict:
    return {"name": f"{layer}.calls", "unit": "count", "better": "lower"}


# The per-layer metrics the benchmark reports, most likely to move first.
PER_LAYER = [
    _calls("boolalg.powerset_algebra"), _self_s("boolalg.powerset_algebra"),
    _self_s("bvmodel.bounded_boolean_sat"),
    _calls("bvmodel.models"), _self_s("bvmodel.models"),
    _calls("bvmodel.eval_formula"), _self_s("bvmodel.eval_formula"),
    _calls("boolalg.ops"), _self_s("boolalg.ops"),
    _calls("consprop.membership"), _self_s("consprop.membership"),
    _self_s("consprop.check_cp"), _self_s("consprop.check_smax"),
    _self_s("consprop.maximal_members"), _self_s("consprop.generic_filter"),
    _calls("syntax.substitute"), _self_s("syntax.substitute"),
    _calls("syntax.move_neg_inside"), _self_s("syntax.move_neg_inside"),
    _calls("consprop.oracle"),
    {"name": "consprop.oracle.accept_ratio", "unit": "ratio",
     "better": "higher"},
    {"name": "consprop.members", "unit": "count", "better": "lower"},
    _self_s("mansfield.cp_from_algebra"), _self_s("mansfield.roundtrip_check"),
    _self_s("mansfield.mansfield_build"), _self_s("mansfield.verify_claims"),
    _self_s("boolalg.ro_completion"), _self_s("boolalg.check_algebra"),
    _self_s("boolalg.regular_open_sets_bruteforce"),
    _self_s("iojson.load_json"), _self_s("iojson.parse"),
    _self_s("iojson.emit"), _self_s("iojson.dumps"),
    _calls("iojson.parse"),
    {"name": "iojson.dumps.bytes", "unit": "B", "better": "lower"},
    _self_s("cli.main"),
    _calls("modelgen.random_valid_model"),
    _self_s("modelgen.random_valid_model"),
    _self_s("calculus.check_proof"), _self_s("calculus.soundness_sample"),
    _self_s("cli.run_corpus"), _self_s("quotient.los_check"),
    {"name": "trace_overhead", "unit": "ratio", "better": "lower"},
    {"name": "contract_probes.failed", "unit": "count", "better": "lower"},
]


def per_layer_metrics(summaries: list[dict]) -> dict:
    """Sum the tracer's per-command summaries into the per-layer metrics
    (all but `trace_overhead` and `contract_probes.failed`, which the
    benchmark adds)."""
    calls: dict = {}
    self_s: dict = {}
    counters: dict = {}
    for s in summaries:
        for layer, row in s["layers"].items():
            calls[layer] = calls.get(layer, 0) + row["calls"]
            self_s[layer] = self_s.get(layer, 0.0) + row["self_s"]
        for key, value in s["counters"].items():
            counters[key] = counters.get(key, 0) + value
    out = {}
    for m in PER_LAYER:
        layer, _, kind = m["name"].rpartition(".")
        if kind == "calls":
            out[m["name"]] = calls.get(layer, 0)
        elif kind == "self_s":
            out[m["name"]] = self_s.get(layer, 0.0)
    oracle_calls = calls.get("consprop.oracle", 0)
    out["consprop.oracle.accept_ratio"] = (
        counters.get("consprop.oracle.accepted", 0) / oracle_calls
        if oracle_calls else 0.0)
    out["consprop.members"] = counters.get("consprop.members", 0)
    out["iojson.dumps.bytes"] = counters.get("iojson.dumps.bytes", 0)
    return out
