"""Spans around mqlogic's public functions, recorded from the benchmark side.

``Tracer.install`` replaces each target function with a wrapper in every
loaded ``mqlogic`` module namespace that binds it (``semantics`` binds
``normalize_formula`` at import time, so patching ``syntax`` alone would
miss those calls), and methods on their class.  While the tracer is active
each call appends one span ``(name, start, end, parent index, op id)`` to an
in-memory list; self time is the span's duration minus the durations of its
direct children.  A few wrappers also keep counts from the call's arguments
or result (nodes checked, samples run, pieces per profile).

Targets that a later version of the package no longer has are skipped and
listed in ``missing``; their metrics then read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (span name, module, attribute or Class.attribute).  The span name is the
# per-layer metric prefix.  ``_RuleChecker.check`` is the per-node rule check
# that both ``check_instance`` and the derivation checker run.
TARGETS = (
    ("syntax.parse", "syntax", "parse_formula"),
    ("syntax.parse", "syntax", "parse_term"),
    ("syntax.parse", "syntax", "load_signature"),
    ("syntax.normalize_term", "syntax", "normalize_term"),
    ("syntax.normalize_formula", "syntax", "normalize_formula"),
    ("syntax.substitute", "syntax", "substitute"),
    ("syntax.enumerate_closed_terms", "syntax", "enumerate_closed_terms"),
    ("syntax.name_of", "syntax", "Signature.name_of"),
    ("multiset.parse_sequent", "multiset", "parse_sequent"),
    ("semantics.eval_formula", "semantics", "eval_formula"),
    ("semantics.valuation_init", "semantics", "Valuation.__post_init__"),
    ("semantics.sequent_sound", "semantics", "sequent_sound"),
    ("semantics.check_lemma1_instance", "semantics", "check_lemma1_instance"),
    ("semantics.lemma1_oracle", "semantics", "lemma1_conclusion_finite_oracle"),
    ("piecewise.eval_parametric", "piecewise", "eval_parametric"),
    ("piecewise.fixed_points", "piecewise", "fixed_points"),
    ("calculus.check_derivation", "calculus", "check_derivation"),
    ("calculus.instantiate_derivation", "calculus", "instantiate_derivation"),
    ("calculus.check_instance", "calculus", "_RuleChecker.check"),
    ("calculus.derivation_from_json", "calculus", "derivation_from_json"),
    ("derivations.build", "derivations", "prop1_derivation"),
    ("derivations.build", "derivations", "prop3_derivation"),
    ("derivations.build", "derivations", "truth_coding_signature"),
    ("derivations.build", "derivations", "liar_signature"),
    ("fuzz.fuzz_rule", "fuzz", "fuzz_rule"),
    ("fuzz.generate_derivation", "fuzz", "generate_derivation"),
    ("experiments", "experiments", "run_experiment"),
)

EXPERIMENT_IDS = ("thm1", "lemma1", "thm2-fuzz", "prop1", "prop2", "prop3", "vacuous-compare")
FUZZ_RULES = ("Init", "NegL", "NegR", "CondL", "CondR", "ExistsLw", "ExistsRw")
FUZZ_MODES = ("sum", "sup")
SRC_MODULES = (
    "__init__", "calculus", "cli", "derivations", "experiments",
    "fuzz", "multiset", "piecewise", "semantics", "syntax",
)

# The counts that two traced passes over the same inputs must reproduce.
DETERMINISTIC = (
    "calculus.nodes_checked",
    "calculus.family_slots",
    "fuzz.samples",
    "syntax.normalize_term.calls",
    "syntax.signature_growth",
    "piecewise.pieces",
)


def _metric_table():
    """(name, unit, better) for every per-layer metric, in output order."""
    rows = []

    def calls(prefix):
        rows.append((f"{prefix}.calls", "count", "lower"))

    def self_s(prefix):
        rows.append((f"{prefix}.self_s", "s", "lower"))

    calls("syntax.parse"); self_s("syntax.parse")
    calls("syntax.normalize_term"); self_s("syntax.normalize_term")
    rows.append(("syntax.normalize_term.repeat_ratio", "ratio", "lower"))
    rows.append(("syntax.normalize_term.noop_ratio", "ratio", "lower"))
    calls("syntax.normalize_formula"); self_s("syntax.normalize_formula")
    calls("syntax.substitute"); self_s("syntax.substitute")
    calls("syntax.enumerate_closed_terms"); self_s("syntax.enumerate_closed_terms")
    calls("syntax.name_of")
    rows.append(("syntax.signature_growth", "count", "lower"))
    self_s("multiset.parse_sequent")
    calls("semantics.eval_formula"); self_s("semantics.eval_formula")
    self_s("semantics.valuation_init")
    self_s("semantics.sequent_sound")
    calls("semantics.check_lemma1_instance"); self_s("semantics.check_lemma1_instance")
    self_s("semantics.lemma1_oracle")
    calls("piecewise.eval_parametric"); self_s("piecewise.eval_parametric")
    self_s("piecewise.fixed_points")
    rows.append(("piecewise.pieces", "count", "lower"))
    calls("calculus.check_derivation"); self_s("calculus.check_derivation")
    rows.append(("calculus.us_per_node", "us", "lower"))
    self_s("calculus.instantiate_derivation")
    self_s("calculus.check_instance")
    self_s("calculus.derivation_from_json")
    rows.append(("calculus.nodes_checked", "count", "lower"))
    rows.append(("calculus.family_slots", "count", "lower"))
    self_s("derivations.build")
    calls("fuzz.fuzz_rule"); self_s("fuzz.fuzz_rule")
    rows.append(("fuzz.samples", "count", "higher"))
    for rule in FUZZ_RULES:
        for mode in FUZZ_MODES:
            rows.append((f"fuzz.samples_per_s.{rule}.{mode}", "1/s", "higher"))
    self_s("fuzz.generate_derivation")
    for exp_id in EXPERIMENT_IDS:
        self_s(f"experiments.{exp_id}")
    rows.append(("experiments.lemma1.samples_per_s", "1/s", "higher"))
    rows.append(("trace.untraced_s", "s", "lower"))
    rows.append(("trace.traced_s", "s", "lower"))
    rows.append(("trace.overhead_ratio", "ratio", "lower"))
    rows.append(("machine.ref_ms_before", "ms", "lower"))
    rows.append(("machine.ref_ms_after", "ms", "lower"))
    for module in SRC_MODULES:
        rows.append((f"src.lines.{module}", "lines", "lower"))
    rows.append(("src.lines.total", "lines", "lower"))
    return tuple(rows)


METRICS = _metric_table()


def _signature_size(sig) -> int:
    return len(sig.rewrites) + len(sig.naming_scheme)


class Tracer:
    def __init__(self, api):
        self.api = api
        self.spans: list = []
        self.stack: list[int] = []
        self.active = False
        self.op_id = -1
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    # -- recording -----------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded; the wrappers stay installed."""
        self.spans.clear()
        self.stack.clear()
        self.counts: dict[str, float] = defaultdict(float)
        self.fuzz_samples: dict[tuple[str, str], int] = defaultdict(int)
        self.fuzz_time: dict[tuple[str, str], float] = defaultdict(float)
        self.pieces: list[int] = []
        self._loaded_size: dict[int, int] = {}
        self._term_calls: list = []
        self._op_sig_sizes: dict[int, int] = {}

    def begin_op(self, op, op_id: int) -> None:
        self.op_id = op_id
        self._term_calls = []
        self._op_sig_sizes = {id(s): _signature_size(s) for s in op.sigs} if op else {}
        self.active = True

    def end_op(self, op) -> None:
        self.active = False
        if op is not None:
            for sig in op.sigs:
                before = self._op_sig_sizes.get(id(sig), self._loaded_size.get(id(sig)))
                if before is not None:
                    self.counts["syntax.signature_growth"] += _signature_size(sig) - before
        seen = set()
        for sig_id, term, result in self._term_calls:
            key = (sig_id, term)
            if key in seen:
                self.counts["normalize_term.repeats"] += 1
            else:
                seen.add(key)
            if result == term:
                self.counts["normalize_term.noops"] += 1
        self._term_calls = []

    # -- hooks: counts taken from a call's arguments or result ----------

    def _on_normalize_term(self, args, kwargs, result, dur):
        sig = args[1] if len(args) > 1 else kwargs["sig"]
        self._term_calls.append((id(sig), args[0], result))

    def _on_check_derivation(self, args, kwargs, report, dur):
        self.counts["calculus.nodes_checked"] += len(report.per_node)
        self.counts["calculus.family_slots"] += len(report.family_spot_checks)

    def _on_fuzz_rule(self, args, kwargs, outcome, dur):
        key = (outcome.rule, outcome.mode)
        self.fuzz_samples[key] += outcome.samples_run
        self.fuzz_time[key] += dur

    def _on_run_experiment(self, args, kwargs, result, dur):
        if result.id == "lemma1":
            self.counts["lemma1.samples"] += result.evidence["samples"]
            self.counts["lemma1.time"] += dur

    def _on_eval_parametric(self, args, kwargs, profile, dur):
        self.pieces.append(len(profile.pieces))

    def _on_load_signature(self, args, kwargs, sig, dur):
        self._loaded_size[id(sig)] = _signature_size(sig)

    _HOOKS = {
        "normalize_term": _on_normalize_term,
        "check_derivation": _on_check_derivation,
        "fuzz_rule": _on_fuzz_rule,
        "run_experiment": _on_run_experiment,
        "eval_parametric": _on_eval_parametric,
        "load_signature": _on_load_signature,
    }

    # -- wrapping --------------------------------------------------------

    def _wrap(self, span_name: str, fn, hook):
        tracer = self
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        per_experiment = span_name == "experiments"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = span_name
            if per_experiment:
                name = f"experiments.{args[0] if args else kwargs['exp_id']}"
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op_id)
            if hook is not None:
                hook(tracer, args, kwargs, result, end - start)
            return result

        return wrapper

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "mqlogic" or name.startswith("mqlogic."))
        ]
        for span_name, module_name, path in TARGETS:
            module = getattr(self.api, module_name)
            owner_name, _, attr = path.rpartition(".")
            hook = self._HOOKS.get(attr)
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                self._patch(owner, attr, self._wrap(span_name, original, hook))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(span_name, original, hook)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapper)

    def _patch(self, owner, name, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def _self_seconds(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def self_times(self):
        """Per span name: [calls, inclusive seconds, self seconds]."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, _), own in zip(self.spans, self._self_seconds()):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += own
        return out

    def self_by_op(self):
        """Per op id: self seconds per span name."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, _, _, _, op_id), own in zip(self.spans, self._self_seconds()):
            out[op_id][name] += own
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric this pass recorded (trace.*, machine.*
        and src.* are added by the runner)."""
        times = self.self_times()
        values: dict[str, float] = {}
        for name, (calls, _, self_s) in times.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        term_calls = times["syntax.normalize_term"][0]
        values["syntax.normalize_term.repeat_ratio"] = (
            self.counts["normalize_term.repeats"] / term_calls if term_calls else 0.0
        )
        values["syntax.normalize_term.noop_ratio"] = (
            self.counts["normalize_term.noops"] / term_calls if term_calls else 0.0
        )
        values["syntax.signature_growth"] = self.counts["syntax.signature_growth"]
        values["piecewise.pieces"] = sum(self.pieces) / len(self.pieces) if self.pieces else 0.0
        nodes = self.counts["calculus.nodes_checked"]
        values["calculus.nodes_checked"] = nodes
        values["calculus.family_slots"] = self.counts["calculus.family_slots"]
        check_time = times["calculus.check_derivation"][1]
        values["calculus.us_per_node"] = check_time / nodes * 1e6 if nodes else 0.0
        values["fuzz.samples"] = sum(self.fuzz_samples.values())
        for (rule, mode), samples in self.fuzz_samples.items():
            seconds = self.fuzz_time[(rule, mode)]
            values[f"fuzz.samples_per_s.{rule}.{mode}"] = samples / seconds if seconds else 0.0
        lemma1_time = self.counts["lemma1.time"]
        values["experiments.lemma1.samples_per_s"] = (
            self.counts["lemma1.samples"] / lemma1_time if lemma1_time else 0.0
        )
        return values
