"""Sequent sides with multiplicities in omega+1, and sequents built from them.

A side maps formulas to multiplicities: positive integers or the absorbing
value OMEGA; absent formulas have multiplicity zero.  Formulas are stored
and compared in normalised form (coding equations applied to all maximal
closed subterms), so provably-equal instances collapse to one entry.
Inside derivations a side may also carry omega-indexed formula families,
and its formulas may be open; a sequent parsed from text holds sentences.
A JSON sequent is read through a ``formula_reader``, which parses and
normalises each distinct text once, and its sides are built from those
normal forms.  Rendering sorts the members by their text, so each member
is rendered once.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .syntax import (
    Formula,
    ParseError,
    Signature,
    Term,
    Var,
    _subst,
    free_vars,
    normalize_formula,
    parse_formula,
    render_formula,
)


class OmegaType:
    """Singleton countably-infinite multiplicity."""

    _instance: Optional["OmegaType"] = None

    def __new__(cls) -> "OmegaType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "OMEGA"


OMEGA = OmegaType()

Multiplicity = int | OmegaType

# formula text -> (parsed formula, its normal form); see formula_reader
ReadFormula = Callable[[str], tuple[Formula, Formula]]


def mult_add(a: Multiplicity, b: Multiplicity) -> Multiplicity:
    if a is OMEGA or b is OMEGA:
        return OMEGA
    return a + b


def mult_sub(a: Multiplicity, b: Multiplicity) -> Multiplicity:
    """Saturating difference used when peeling context off a sequent.

    OMEGA - n = OMEGA for finite n; OMEGA - OMEGA = 0 (context absorbs).
    Finite a - OMEGA or finite underflow raises.
    """
    if b is OMEGA:
        if a is OMEGA:
            return 0
        raise ValueError("cannot remove omega copies from a finite multiplicity")
    if a is OMEGA:
        return OMEGA
    if a < b:
        raise ValueError("multiplicity underflow")
    return a - b


def json_value(value, field: str, kind: type = int, minimum: Optional[int] = None):
    """``value`` when its type is exactly ``kind`` (so no bool, float or
    string passes as an int) and it is at least ``minimum``; otherwise a
    TypeError naming ``field``.  The JSON loaders coerce nothing."""
    if type(value) is not kind or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise TypeError(f"'{field}' must be a JSON {kind.__name__}{bound}, got {value!r}")
    return value


def formula_reader(sig: Signature) -> ReadFormula:
    """A function from a formula text to its parsed formula and that
    formula's normal form, parsing and normalising each distinct text once.

    A parse depends on the declared symbols: a bare identifier is a
    variable until it is declared a constant, and a closed ``quote(...)``
    may declare a name.  So the table is keyed on the text and the symbol
    count, which only grows; a failed parse stores nothing.  The table
    lives as long as the function: a loader makes one per load."""
    table: dict[tuple[str, int], tuple[Formula, Formula]] = {}

    def read(text: str) -> tuple[Formula, Formula]:
        key = (json_value(text, "formula", str), len(sig._symbols))
        hit = table.get(key)
        if hit is None:
            f = parse_formula(text, sig)
            hit = table[key] = (f, normalize_formula(f, sig))
        return hit

    return read


# ---------------------------------------------------------------------------
# Sequents with omega-indexed formula families


@dataclass(frozen=True)
class FormulaFamily:
    """One formula per natural-number slot >= start, given by a template
    over the index variable (which occurs only inside terms)."""

    var: str
    start: int
    template: Formula

    def at(self, rep: Term) -> Formula:
        return _subst(self.template, {self.var: rep})


def _family_key(sig: Signature, fam: FormulaFamily):
    canon = normalize_formula(_subst(fam.template, {fam.var: Var("#i")}), sig)
    return (fam.start, render_formula(canon))


def _sorted_families(sig: Signature, fams) -> tuple[FormulaFamily, ...]:
    return tuple(sorted(fams, key=lambda fam: _family_key(sig, fam)))


def _put(entries: dict, key: Formula, m: Multiplicity) -> None:
    old = entries.get(key, 0)
    entries[key] = mult_add(old, m) if old else m


def _take(entries: dict, key: Formula, m: Multiplicity, shown: Formula) -> None:
    """Remove ``m`` copies of ``key`` by mult_sub; ``shown`` names the
    formula when it is absent."""
    old = entries.get(key, 0)
    if old == 0:
        raise ValueError(f"formula not present: {render_formula(shown)}")
    rest = mult_sub(old, m)
    if rest == 0:
        del entries[key]
    else:
        entries[key] = rest


def _collect(
    sig: Signature,
    entries: Iterable[tuple[Formula, Multiplicity]],
    families: Iterable[FormulaFamily],
) -> tuple[dict, tuple[FormulaFamily, ...]]:
    """The entry map and sorted families of a side, from entries whose
    formulas are already normalised.  Repeated formulas add up; a family
    whose template does not mention its index folds into omega copies of
    the template's normal form."""
    counts: dict[Formula, Multiplicity] = {}
    for f, m in entries:
        if m is not OMEGA and (not isinstance(m, int) or isinstance(m, bool) or m < 1):
            raise ValueError(f"multiplicity must be a positive integer or OMEGA: {m!r}")
        _put(counts, f, m)
    indexed: list[FormulaFamily] = []
    for fam in families:
        if fam.var in free_vars(fam.template):
            indexed.append(fam)
        else:
            _put(counts, normalize_formula(fam.template, sig), OMEGA)
    return counts, _sorted_families(sig, indexed)


class SequentSide:
    """One side of a sequent: a finite-support map from formulas to
    multiplicities in omega+1, plus omega-indexed formula families.

    Formulas are stored in normal form and may be open (derivation
    templates mention the family index).  A family whose template does not
    mention its index is the same formula at every slot and folds into
    omega copies of it.  Sides are immutable: every operation returns a new
    side.
    """

    __slots__ = ("sig", "_entries", "families")

    def __init__(
        self,
        sig: Signature,
        entries: Iterable[tuple[Formula, Multiplicity]] = (),
        families: Iterable[FormulaFamily] = (),
    ) -> None:
        self.sig = sig
        self._entries, self.families = _collect(
            sig, ((normalize_formula(f, sig), m) for f, m in entries), families
        )

    @classmethod
    def _of(cls, sig: Signature, entries: dict, families: tuple) -> "SequentSide":
        """A side from normalised entries and sorted families, taken as given."""
        side = object.__new__(cls)
        side.sig, side._entries, side.families = sig, entries, families
        return side

    def multiplicity_of(self, f: Formula) -> Multiplicity:
        """Stored multiplicity of a formula (zero when absent); matching is
        normalisation-aware."""
        return self._entries.get(normalize_formula(f, self.sig), 0)

    def items(self) -> Iterator[tuple[Formula, Multiplicity]]:
        return iter(sorted(self._entries.items(), key=lambda kv: render_formula(kv[0])))

    def support(self) -> list[Formula]:
        return [f for f, _ in self.items()]

    def is_empty(self) -> bool:
        return not self._entries and not self.families

    def with_added(self, f: Formula) -> "SequentSide":
        """The side with one more copy of ``f``."""
        entries = dict(self._entries)
        _put(entries, normalize_formula(f, self.sig), 1)
        return SequentSide._of(self.sig, entries, self.families)

    def with_removed_one(self, f: Formula) -> "SequentSide":
        """The side with one copy of ``f`` fewer (omega copies stay omega);
        raises ValueError when ``f`` is absent."""
        entries = dict(self._entries)
        _take(entries, normalize_formula(f, self.sig), 1, f)
        return SequentSide._of(self.sig, entries, self.families)

    def union(self, other: "SequentSide") -> "SequentSide":
        entries = dict(self._entries)
        for f, m in other._entries.items():
            _put(entries, f, m)
        families = self.families + other.families
        if self.families and other.families:
            families = _sorted_families(self.sig, families)
        return SequentSide._of(self.sig, entries, families)

    def minus(self, other: "SequentSide") -> "SequentSide":
        """Remove the other side (context subtraction, pointwise mult_sub);
        raises ValueError when something is missing."""
        entries = dict(self._entries)
        for f, m in other._entries.items():
            _take(entries, f, m, f)
        fams = list(self.families)
        for fam in other.families:
            key = _family_key(self.sig, fam)
            for i, mine in enumerate(fams):
                if _family_key(self.sig, mine) == key:
                    del fams[i]
                    break
            else:
                raise ValueError(
                    f"family not present: {render_formula(fam.template)}"
                )
        return SequentSide._of(self.sig, entries, tuple(fams))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequentSide):
            return NotImplemented
        if self._entries != other._entries:
            return False
        mine = [_family_key(self.sig, f) for f in self.families]
        theirs = [_family_key(other.sig, f) for f in other.families]
        return mine == theirs

    def _rendered(self) -> list[tuple[str, Multiplicity]]:
        """``(rendering, multiplicity)`` per entry in ``items()`` order,
        each formula rendered once."""
        return sorted(
            ((render_formula(f), m) for f, m in self._entries.items()), key=itemgetter(0)
        )

    def render(self) -> str:
        parts: list[str] = []
        for text, m in self._rendered():
            if m is OMEGA:
                parts.append(f"{text}^w")
            elif m == 1:
                parts.append(text)
            else:
                parts.append(f"{text}^{m}")
        for fam in self.families:
            parts.append(
                f"{render_formula(fam.template)}[{fam.var}>={fam.start}]"
            )
        return ", ".join(parts)

    def _to_json(self) -> tuple[list, list]:
        finite = [[text, "w" if m is OMEGA else m] for text, m in self._rendered()]
        fams = [
            {"var": f.var, "start": f.start, "formula": render_formula(f.template)}
            for f in self.families
        ]
        return finite, fams

    @staticmethod
    def _from_json(data: dict, field: str, sig: Signature, read: ReadFormula) -> "SequentSide":
        """The ``field`` side (``"ant"`` or ``"suc"``) of a JSON sequent.  A
        member is a ``[formula, multiplicity]`` pair, stored as the normal
        form that ``read`` gives for its text; a family is a JSON object."""
        members = []
        for entry in json_value(data.get(field, []), field, list):
            if type(entry) is not list or len(entry) != 2:
                raise TypeError(
                    f"'{field}' members must be [formula, multiplicity] pairs, got {entry!r}"
                )
            text, m = entry
            m = OMEGA if m == "w" else json_value(m, "multiplicity", minimum=1)
            members.append((read(text)[1], m))
        families = []
        fams = json_value(data.get(f"{field}Fams", []), f"{field}Fams", list)
        for i, f in enumerate(fams):
            f = json_value(f, f"{field}Fams[{i}]", dict)
            families.append(FormulaFamily(
                json_value(f["var"], "var", str),
                json_value(f["start"], "start", minimum=0),
                read(f["formula"])[0],
            ))
        return SequentSide._of(sig, *_collect(sig, members, families))


class Sequent:
    """A pair of sequent sides.  Derivations use the families; a plain
    sequent (as parsed from text or evaluated) has none."""

    __slots__ = ("ant", "suc")

    def __init__(self, ant: SequentSide, suc: SequentSide) -> None:
        self.ant = ant
        self.suc = suc

    @staticmethod
    def make(
        sig: Signature,
        ant: Sequence[tuple[Formula, Multiplicity]] = (),
        suc: Sequence[tuple[Formula, Multiplicity]] = (),
        ant_families: Sequence[FormulaFamily] = (),
        suc_families: Sequence[FormulaFamily] = (),
    ) -> "Sequent":
        return Sequent(
            SequentSide(sig, ant, ant_families),
            SequentSide(sig, suc, suc_families),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequent):
            return NotImplemented
        return self.ant == other.ant and self.suc == other.suc

    def render(self) -> str:
        return f"{self.ant.render()} |- {self.suc.render()}"

    def __repr__(self) -> str:
        return f"<{self.render()}>"

    def to_json(self) -> dict:
        """``{"ant": [[formula, n | "w"], ...], "suc": [...]}`` plus
        ``antFams``/``sucFams`` lists when a side carries families."""
        ant, ant_fams = self.ant._to_json()
        suc, suc_fams = self.suc._to_json()
        out: dict = {"ant": ant, "suc": suc}
        if ant_fams:
            out["antFams"] = ant_fams
        if suc_fams:
            out["sucFams"] = suc_fams
        return out

    @staticmethod
    def from_json(data: dict, sig: Signature, read: ReadFormula) -> "Sequent":
        """The sequent ``to_json`` describes, its texts read by ``read``
        (a ``formula_reader``)."""
        ant, suc = (SequentSide._from_json(data, side, sig, read) for side in ("ant", "suc"))
        return Sequent(ant, suc)


# ---------------------------------------------------------------------------
# Text form


def _members(text: str, offset: int) -> Iterator[str]:
    """The top-level comma-separated members of a side that starts at
    ``offset`` in the input, each padded with blanks to its place there so
    that parse errors give positions in the whole input."""
    depth = start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            yield " " * (offset + start) + text[start:i]
            start = i + 1
    yield " " * (offset + start) + text[start:]


def _parse_side(
    text: str, offset: int, sig: Signature, lenient: bool
) -> Iterator[tuple[Formula, Multiplicity]]:
    for member in _members(text, offset):
        if not member.strip():
            continue
        mult: Multiplicity = 1
        body, caret, suffix = member.rpartition("^")
        if caret:
            suffix = suffix.strip()
            if suffix == "w":
                mult = OMEGA
            elif suffix.isdigit():
                mult = int(suffix)
            else:
                raise ParseError(f"bad multiplicity suffix '^{suffix}'", len(body))
            member = body
        f = parse_formula(member.rstrip(), sig, lenient=lenient)
        if free_vars(f):
            raise ValueError(f"multiset members must be sentences: {render_formula(f)}")
        yield f, mult


def parse_sequent(text: str, sig: Signature, lenient: bool = False) -> Sequent:
    """Parse ``A, B, B |- C`` with ``^w`` / ``^n`` multiplicity suffixes.
    Every member must be a sentence."""
    if "|-" not in text:
        raise ParseError("sequent needs '|-'", 0)
    ant_text, _, suc_text = text.partition("|-")
    return Sequent(
        SequentSide(sig, _parse_side(ant_text, 0, sig, lenient)),
        SequentSide(sig, _parse_side(suc_text, len(ant_text) + 2, sig, lenient)),
    )
