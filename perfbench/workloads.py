"""The three benchmark workloads: seeded inputs, ops and known answers.

Every op calls mqlogic through module attributes (``api.calculus.check_derivation``
and so on), never through references captured at build time, so that the
traced run's wrappers see every call.

``build(api, spec, seed, round_index, clock)`` returns one round of ops in
a seeded random order, so that long ops sit among short ones.  It
draws all inputs from ``random.Random`` seeded by the workload seed and the
round index, and it runs every program call it needs (signatures, builtin
derivations, generated derivations) inside ``clock`` so that set-up time
counts program work only, not the benchmark's own random draws.

An op's ``run(op)`` is what is timed; it returns an answer.  ``check(answer)``
runs afterwards, untimed and untraced, and returns ``None`` or a message
saying how the answer differs from the known one.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction


class Op:
    __slots__ = ("kind", "run", "check", "sigs")

    def __init__(self, kind, run, check, sigs=()):
        self.kind = kind
        self.run = run
        self.check = check
        # signatures the op reads and may write; ops that load their own
        # signature append it while running
        self.sigs = list(sigs)


def round_rng(seed: int, round_index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + round_index)


def _unit_text(rng: random.Random) -> str:
    den = rng.randint(1, 60)
    return f"{rng.randint(0, den)}/{den}"


def _expect(cond: bool, message: str):
    return None if cond else message


# ---------------------------------------------------------------------------
# repro: canned experiments and rule fuzzing


def build_repro(api, spec, seed, round_index, clock):
    rng = round_rng(seed, round_index)
    ops = []
    sizes = spec["experiment_samples"]
    for _ in range(spec["experiment_cycles_per_round"]):
        for exp_id in spec["experiment_ids"]:
            op_seed = rng.randrange(2**31)
            samples = sizes.get(exp_id)

            def run(op, exp_id=exp_id, op_seed=op_seed, samples=samples):
                return api.experiments.run_experiment(exp_id, seed=op_seed, samples=samples)

            def check(result, exp_id=exp_id):
                return _expect(result.status == "pass", f"{exp_id}: status {result.status}")

            ops.append(Op(f"exp.{exp_id}", run, check))
    for rule in spec["fuzz_rules"]:
        for mode in spec["fuzz_modes"]:
            expect = rule == "ExistsRw" and mode == "sup"
            samples = spec["fuzz_samples_first_violation"] if expect else spec["fuzz_samples"]
            op_seed = rng.randrange(2**31)
            with clock:
                cfg = api.fuzz.FuzzConfig(samples=samples, seed=op_seed, mode=mode, rule=rule)

            def run(op, cfg=cfg):
                return api.fuzz.fuzz_rule(cfg)

            def check(outcome, expect=expect, rule=rule, mode=mode):
                return _expect(
                    outcome.found_violation == expect,
                    f"fuzz {rule}/{mode}: found_violation={outcome.found_violation}",
                )

            ops.append(Op(f"fuzz.{rule}.{mode}", run, check))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# check: derivation checking


def _node_count(derivation):
    return 1 + sum(_node_count(p) for p in derivation.premises if hasattr(p, "premises"))


def _first_failure(report):
    for node in report.per_node:
        if not node.ok:
            return node.rule
    return None


def build_check(api, spec, seed, round_index, clock):
    rng = round_rng(seed, round_index)
    calculus = api.calculus
    ops = []
    for depth in spec["prop1_depths"]:
        with clock:
            built = api.derivations.prop1_derivation(depth)

        def run(op, built=built, depth=depth):
            report = api.calculus.check_derivation(
                built.derivation, built.sig, api.calculus.MULTIPLICATIVE, depth
            )
            return report.ok, _first_failure(report)

        def check(answer, depth=depth):
            return _expect(answer == (True, None), f"prop1 depth {depth}: {answer}")

        ops.append(Op(f"prop1.d{depth}", run, check, [built.sig]))
    for policy, expected in (
        (calculus.MULTIPLICATIVE, (True, None)),
        (calculus.ADDITIVE, (False, "ExistsRw")),
    ):
        with clock:
            built = api.derivations.prop3_derivation()

        def run(op, built=built, policy=policy):
            report = api.calculus.check_derivation(
                built.derivation, built.sig, policy, spec["prop3_depth"]
            )
            return report.ok, _first_failure(report)

        def check(answer, policy=policy, expected=expected):
            return _expect(answer == expected, f"prop3 {policy}: {answer}, want {expected}")

        ops.append(Op(f"prop3.{policy}", run, check, [built.sig]))
    lo, hi = spec["generated_depth_range"]
    fewest, most = spec["generated_nodes_range"]
    for i in range(spec["generated_per_round"]):
        depth = lo + i % (hi - lo + 1)
        while True:
            gen_rng = random.Random(rng.randrange(2**31))
            with clock:
                sig = api.fuzz.toy_signature()
                derivation = api.fuzz.generate_derivation(gen_rng, sig, depth)
            if fewest <= _node_count(derivation) <= most:
                break

        def run(op, sig=sig, derivation=derivation):
            text = json.dumps(api.calculus.derivation_to_json(derivation))
            loaded = api.calculus.derivation_from_json(json.loads(text), sig)
            report = api.calculus.check_derivation(
                loaded, sig, api.calculus.MULTIPLICATIVE, spec["generated_check_depth"]
            )
            return report.ok, _first_failure(report)

        def check(answer):
            return _expect(answer == (True, None), f"generated derivation: {answer}")

        ops.append(Op("generated", run, check, [sig]))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# eval: parse and evaluate, as the eval / check-sequent / solve-selfref
# commands do

FUN_SIG = """\
pred P/1
pred Q/1
pred R/0
const a
const b
fun f/1
fun g/1
rewrite g(f(x)) => x
"""

SELFREF_SIG = """\
pred P/1
const a
const b
name l = {sentence}
"""

ARITH_SIG = """\
arith 0 s
pred P/1
pred Q/1
"""

LIAR = "~Ex x T(l)"
_VARS = ("x", "y", "z")


class _Sentences:
    """Random sentence text over an atom generator, with at most
    ``max_nest`` nested Ex."""

    def __init__(self, rng, atom, max_nest):
        self.rng = rng
        self.atom = atom
        self.max_nest = max_nest

    def formula(self, depth, bound=()):
        rng = self.rng
        roll = rng.random()
        if depth <= 1 or roll < 0.15:
            return self.atom(rng, bound)
        if roll < 0.35:
            return "~(" + self.formula(depth - 1, bound) + ")"
        if roll < 0.7 or len(bound) >= self.max_nest:
            lhs = self.formula(depth - 1, bound)
            rhs = self.formula(depth - 1, bound)
            return f"({lhs} -> {rhs})"
        var = _VARS[len(bound)]
        return f"(Ex {var} ({self.formula(depth - 1, bound + (var,))}))"


# Closed terms are written over a fixed set of normal forms, so every
# quantifier sees the same number of relevant terms and the cost of one
# sentence does not depend on the seed.  The set is closed under subterms,
# and a term is written as the redex g(f(t)) only where f(t) is in the set,
# so rewriting is exercised without adding normal forms.
BASE_TERMS = ("a", "b", "f(a)", "f(b)", "f(f(a))", "f(f(b))")
_REDEXABLE = BASE_TERMS[:4]


def _written(rng, t):
    return f"g(f({t}))" if t in _REDEXABLE and rng.random() < 0.3 else t


def _fun_term(rng, bound):
    if bound and rng.random() < 0.6:
        var = rng.choice(bound)
        return var if rng.random() < 0.5 else f"{rng.choice('fg')}({var})"
    return _written(rng, rng.choice(BASE_TERMS))


def _fun_atom(rng, bound):
    roll = rng.random()
    if roll < 0.1:
        return "R"
    return f"{'P' if roll < 0.55 else 'Q'}({_fun_term(rng, bound)})"


def _fun_valuation(rng):
    lines = []
    for pred in ("P", "Q", "R"):
        value = "0" if rng.random() < 0.5 else _unit_text(rng)
        lines.append(f"default {pred} = {value}")
    for t in BASE_TERMS:
        pred = rng.choice("PQ")
        lines.append(f"atom {pred}({_written(rng, t)}) = {_unit_text(rng)}")
    return "\n".join(lines) + "\n"


def _shaped_sentence(rng, depth, n_exists):
    """A chain of ``n_exists`` nested Ex over a full binary tree of -> of the
    remaining depth, with random atoms and negated leaves; negated as a
    whole half the time.  The fixed shape keeps the cost of one sentence
    within a narrow band, so that runs with different seeds agree.
    Returns the text and the polarity shared by all its Ex."""
    bound = _VARS[:n_exists]

    def tree(d):
        if d <= 1:
            atom = _fun_atom(rng, bound)
            return atom if rng.random() < 0.7 else f"~({atom})"
        return f"({tree(d - 1)} -> {tree(d - 1)})"

    text = tree(depth - n_exists)
    for var in reversed(bound):
        text = f"(Ex {var} ({text}))"
    if rng.random() < 0.5:
        return f"~({text})", -1
    return text, 1


def _eval_op(api, spec, rng, depth, n_exists):
    mode = "sum" if rng.random() < 0.5 else "sup"
    f_text, polarity = _shaped_sentence(rng, depth, n_exists)
    g_text = _Sentences(rng, _fun_atom, 1).formula(3)
    val_text = _fun_valuation(rng)

    def run(op):
        sig = api.syntax.load_signature(FUN_SIG)
        op.sigs.append(sig)
        v_sum = api.semantics.load_valuation("mode sum\n" + val_text, sig)
        v_sup = api.semantics.load_valuation("mode sup\n" + val_text, sig)
        v = v_sum if mode == "sum" else v_sup
        parse = api.syntax.parse_formula
        f = parse(f_text, sig)
        g = parse(g_text, sig)
        not_not_f = parse(f"~~({f_text})", sig)
        f_to_g = parse(f"({f_text}) -> ({g_text})", sig)
        ev = api.semantics.eval_formula
        return {
            "sum": ev(v_sum, f),
            "sup": ev(v_sup, f),
            "nnf": ev(v, not_not_f),
            "g": ev(v, g),
            "cond": ev(v, f_to_g),
        }

    def check(ans):
        f_mode = ans["sup"] if mode == "sup" else ans["sum"]
        if not all(0 <= x <= 1 for x in ans.values()):
            return f"value outside [0,1] for {f_text}"
        if ans["nnf"] != f_mode:
            return f"~~f != f ({mode}) for {f_text}"
        if (ans["cond"] == 1) != (f_mode <= ans["g"]):
            return f"residuation fails ({mode}) for {f_text} / {g_text}"
        if polarity > 0 and not ans["sum"] >= ans["sup"]:
            return f"sum < sup with positive Ex for {f_text}"
        if polarity < 0 and not ans["sum"] <= ans["sup"]:
            return f"sum > sup with negative Ex for {f_text}"
        return None

    return Op(f"eval.d{depth}", run, check)


def _sequent_op(api, spec, rng):
    mode = "sum" if rng.random() < 0.5 else "sup"
    val_text = f"mode {mode}\n" + _fun_valuation(rng)

    def side():
        entries = []
        for _ in range(rng.randint(1, spec["sequent_side_max"])):
            text = _Sentences(rng, _fun_atom, 1).formula(rng.randint(1, 3))
            roll = rng.random()
            mult = "w" if roll < 0.25 else (1 if roll < 0.6 else rng.randint(2, 3))
            entries.append((text, mult))
        return entries

    ant, suc = side(), side()

    def render(entries):
        return ", ".join(t if m == 1 else f"{t}^{m}" for t, m in entries)

    seq_text = f"{render(ant)} |- {render(suc)}"

    def run(op):
        sig = api.syntax.load_signature(FUN_SIG)
        op.sigs.append(sig)
        valuation = api.semantics.load_valuation(val_text, sig)
        seq = api.multiset.parse_sequent(seq_text, sig)
        return api.semantics.sequent_sound(valuation, seq)

    def check(sound):
        # reference: the side sums from the definition, over per-formula values
        sig = api.syntax.load_signature(FUN_SIG)
        valuation = api.semantics.load_valuation(val_text, sig)

        def value(text):
            return api.semantics.eval_formula(valuation, api.syntax.parse_formula(text, sig))

        def clamped_sum(terms):
            total = Fraction(0)
            for x, m in terms:
                if m == "w":
                    if x > 0:
                        return Fraction(1)
                else:
                    total += m * x
            return min(Fraction(1), total)

        ant_value = 1 - clamped_sum([(1 - value(t), m) for t, m in ant])
        suc_value = clamped_sum([(value(t), m) for t, m in suc])
        return _expect(sound == (ant_value <= suc_value), f"sequent_sound wrong for {seq_text}")

    return Op("sequent", run, check)


def _selfref_atom(rng, bound):
    roll = rng.random()
    if roll < 0.45:
        return "T(l)"
    return f"P({rng.choice(('a', 'b') + tuple(bound))})"


def _selfref_op(api, spec, rng, liar):
    if liar:
        sentence = LIAR
    else:
        while True:
            sentence = _Sentences(rng, _selfref_atom, 1).formula(spec["selfref_random_depth"])
            if "T(l)" in sentence:
                break
    lines = ["mode sum", "unknown T(l)", f"default P = {_unit_text(rng)}"]
    lines += [f"atom P({c}) = {_unit_text(rng)}" for c in ("a", "b") if rng.random() < 0.7]
    val_text = "\n".join(lines) + "\n"
    probe = Fraction(rng.randint(0, 97), 97)

    def run(op):
        sig = api.syntax.load_signature(SELFREF_SIG.format(sentence=sentence))
        op.sigs.append(sig)
        valuation = api.semantics.load_valuation(val_text, sig)
        formula = api.syntax.parse_formula(sentence, sig)
        profile = api.piecewise.eval_parametric(valuation, formula)
        return profile, api.piecewise.fixed_points(profile), valuation, formula

    def check(answer):
        profile, fps, valuation, formula = answer
        if liar and not fps.is_empty:
            return "~Ex x T(l) has a fixed point"
        points = {probe}
        for piece in profile.pieces:
            points.update((piece.interval.lo, piece.interval.hi))
        for x in sorted(points):
            y = profile.at(x)
            pointwise = api.semantics.eval_formula(valuation.with_unknown_assigned(x), formula)
            if y != pointwise:
                return f"profile({x}) = {y} but pointwise {pointwise} for {sentence}"
            if not 0 <= y <= 1:
                return f"profile value {y} outside [0,1] for {sentence}"
            if (y == x) != (x in fps):
                return f"fixed point set wrong at {x} for {sentence}"
        return None

    return Op("selfref.liar" if liar else "selfref", run, check)


def _arith_atom(rng, bound, quote_depth=1):
    roll = rng.random()
    if quote_depth > 0 and roll < 0.3:
        inner = _Sentences(rng, lambda r, b: _arith_atom(r, (), quote_depth - 1), 0)
        return f"T(quote({inner.formula(2)}))"
    pred = "P" if roll < 0.65 else "Q"
    return f"{pred}({rng.choice(tuple(str(i) for i in range(4)) + tuple(bound))})"


def _quote_op(api, spec, rng):
    mode = "sum" if rng.random() < 0.5 else "sup"
    sentence = _Sentences(rng, _arith_atom, 1).formula(spec["quote_depth"])
    lines = [f"mode {mode}", "transparent on"]
    for pred in ("P", "Q"):
        lines.append(f"default {pred} = {'0' if rng.random() < 0.5 else _unit_text(rng)}")
    lines += [f"atom P({i}) = {_unit_text(rng)}" for i in range(4) if rng.random() < 0.5]
    val_text = "\n".join(lines) + "\n"

    def run(op):
        sig = api.syntax.load_signature(ARITH_SIG)
        op.sigs.append(sig)
        valuation = api.semantics.load_valuation(val_text, sig)
        f = api.syntax.parse_formula(sentence, sig)
        quoted = api.syntax.parse_formula(f"T(quote({sentence}))", sig)
        return api.semantics.eval_formula(valuation, f), api.semantics.eval_formula(valuation, quoted)

    def check(answer):
        plain, through_truth = answer
        if not 0 <= plain <= 1:
            return f"value outside [0,1] for {sentence}"
        return _expect(plain == through_truth, f"T(quote(f)) != f for {sentence}")

    return Op("quote", run, check)


def build_eval(api, spec, seed, round_index, clock):
    rng = round_rng(seed, round_index)
    ops = [_eval_op(api, spec, rng, depth, n) for depth, n in spec["eval_shapes"]]
    ops += [_sequent_op(api, spec, rng) for _ in range(spec["sequent_ops"])]
    ops += [_selfref_op(api, spec, rng, liar) for liar in (True, False)]
    ops += [_quote_op(api, spec, rng) for _ in range(spec["quote_ops"])]
    rng.shuffle(ops)
    return ops


BUILDERS = {"repro": build_repro, "check": build_check, "eval": build_eval}
