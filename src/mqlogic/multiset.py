"""Multisets with multiplicities in omega+1, and sequents built from them.

Multiplicities are positive integers or the absorbing value OMEGA; absent
formulas have multiplicity zero.  Formulas are stored and compared in
normalised form (coding equations applied to all maximal closed subterms),
so provably-equal instances collapse to one entry.  Inside derivations a
sequent side may also carry omega-indexed formula families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

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

Multiplicity = Union[int, OmegaType]


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


def _validate_mult(m: Multiplicity) -> None:
    if m is OMEGA:
        return
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"multiplicity must be a positive integer or OMEGA: {m!r}")


def json_value(value, field: str, kind: type = int, minimum: Optional[int] = None):
    """``value`` when its type is exactly ``kind`` (so no bool, float or
    string passes as an int) and it is at least ``minimum``; otherwise a
    TypeError naming ``field``.  The JSON loaders coerce nothing."""
    if type(value) is not kind or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise TypeError(f"'{field}' must be a JSON {kind.__name__}{bound}, got {value!r}")
    return value


class OmegaMultiset:
    """Finite-support map from sentences to multiplicities in omega+1."""

    __slots__ = ("sig", "_entries")

    def __init__(
        self,
        sig: Signature,
        entries: Iterable[tuple[Formula, Multiplicity]] = (),
        allow_open: bool = False,
    ) -> None:
        self.sig = sig
        self._entries: dict[Formula, Multiplicity] = {}
        for f, m in entries:
            self.add(f, m, allow_open=allow_open)

    def add(self, f: Formula, m: Multiplicity = 1, allow_open: bool = False) -> None:
        """Add ``m`` copies.  Members must be sentences; ``allow_open`` is a
        calculus-internal escape hatch for rule templates that mention the
        family index variable."""
        _validate_mult(m)
        if free_vars(f) and not allow_open:
            raise ValueError(f"multiset members must be sentences: {render_formula(f)}")
        key = normalize_formula(f, self.sig)
        old = self._entries.get(key, 0)
        self._entries[key] = mult_add(old, m) if old else m

    def multiplicity_of(self, f: Formula) -> Multiplicity:
        """Stored multiplicity of a formula (zero when absent); matching is
        normalisation-aware."""
        return self._entries.get(normalize_formula(f, self.sig), 0)

    def __contains__(self, f: Formula) -> bool:
        return self.multiplicity_of(f) != 0

    def items(self) -> Iterator[tuple[Formula, Multiplicity]]:
        return iter(sorted(self._entries.items(), key=lambda kv: render_formula(kv[0])))

    def support(self) -> list[Formula]:
        return [f for f, _ in self.items()]

    def is_empty(self) -> bool:
        return not self._entries

    def copy(self) -> "OmegaMultiset":
        out = OmegaMultiset(self.sig)
        out._entries = dict(self._entries)
        return out

    def union(self, other: "OmegaMultiset") -> "OmegaMultiset":
        out = self.copy()
        for f, m in other._entries.items():
            old = out._entries.get(f, 0)
            out._entries[f] = mult_add(old, m) if old else m
        return out

    def minus(self, other: "OmegaMultiset") -> "OmegaMultiset":
        """Pointwise mult_sub; raises on underflow."""
        out = self.copy()
        for f, m in other._entries.items():
            old = out._entries.get(f, 0)
            if old == 0:
                raise ValueError(f"formula not present: {render_formula(f)}")
            new = mult_sub(old, m)
            if new == 0:
                del out._entries[f]
            else:
                out._entries[f] = new
        return out

    def remove_one(self, f: Formula) -> "OmegaMultiset":
        key = normalize_formula(f, self.sig)
        old = self._entries.get(key, 0)
        if old == 0:
            raise ValueError(f"formula not present: {render_formula(f)}")
        out = self.copy()
        if old is OMEGA:
            return out
        if old == 1:
            del out._entries[key]
        else:
            out._entries[key] = old - 1
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OmegaMultiset):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{render_formula(f)}:{'w' if m is OMEGA else m}" for f, m in self.items()
        )
        return "{" + inner + "}"


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


class SequentSide:
    """A finite omega-multiset part plus omega-indexed formula families."""

    __slots__ = ("finite", "families")

    def __init__(
        self,
        finite: OmegaMultiset,
        families: Sequence[FormulaFamily] = (),
    ) -> None:
        self.finite = finite
        indexed: list[FormulaFamily] = []
        for fam in families:
            if fam.var in free_vars(fam.template):
                indexed.append(fam)
                continue
            # degenerate family: the same sentence at every slot; it folds
            # into a copy so the caller's multiset is left unchanged
            if self.finite is finite:
                self.finite = finite.copy()
            self.finite.add(fam.template, OMEGA)
        self.families = tuple(
            sorted(indexed, key=lambda f: _family_key(finite.sig, f))
        )

    @property
    def sig(self) -> Signature:
        return self.finite.sig

    def copy(self) -> "SequentSide":
        return SequentSide(self.finite.copy(), self.families)

    def with_added(self, f: Formula, m: Multiplicity = 1) -> "SequentSide":
        out = self.finite.copy()
        out.add(f, m, allow_open=True)
        return SequentSide(out, self.families)

    def with_removed_one(self, f: Formula) -> "SequentSide":
        return SequentSide(self.finite.remove_one(f), self.families)

    def union(self, other: "SequentSide") -> "SequentSide":
        return SequentSide(
            self.finite.union(other.finite), self.families + other.families
        )

    def minus(self, other: "SequentSide") -> "SequentSide":
        """Remove the other side (context subtraction); raises ValueError
        when something is missing."""
        finite = self.finite.minus(other.finite)
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
        return SequentSide(finite, tuple(fams))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequentSide):
            return NotImplemented
        if self.finite != other.finite:
            return False
        mine = [_family_key(self.sig, f) for f in self.families]
        theirs = [_family_key(other.sig, f) for f in other.families]
        return mine == theirs

    def render(self) -> str:
        parts: list[str] = []
        for f, m in self.finite.items():
            text = render_formula(f)
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
        finite = [
            [render_formula(f), "w" if m is OMEGA else m]
            for f, m in self.finite.items()
        ]
        fams = [
            {"var": f.var, "start": f.start, "formula": render_formula(f.template)}
            for f in self.families
        ]
        return finite, fams

    @staticmethod
    def _from_json(entries: list, fams: list, sig: Signature) -> "SequentSide":
        ms = OmegaMultiset(sig)
        for formula_text, m in entries:
            m = OMEGA if m == "w" else json_value(m, "multiplicity", minimum=1)
            ms.add(parse_formula(formula_text, sig), m, allow_open=True)
        families = [
            FormulaFamily(
                json_value(f["var"], "var", str),
                json_value(f["start"], "start", minimum=0),
                parse_formula(f["formula"], sig),
            )
            for f in fams
        ]
        return SequentSide(ms, families)


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
            SequentSide(OmegaMultiset(sig, ant, allow_open=True), ant_families),
            SequentSide(OmegaMultiset(sig, suc, allow_open=True), suc_families),
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
    def from_json(data: dict, sig: Signature) -> "Sequent":
        return Sequent(
            SequentSide._from_json(data.get("ant", []), data.get("antFams", []), sig),
            SequentSide._from_json(data.get("suc", []), data.get("sucFams", []), sig),
        )


# ---------------------------------------------------------------------------
# Text form


def _split_top_level(text: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    last = "".join(cur).strip()
    if last:
        parts.append(last)
    return [p for p in parts if p]


def _parse_side(text: str, sig: Signature, lenient: bool = False) -> OmegaMultiset:
    ms = OmegaMultiset(sig)
    for part in _split_top_level(text):
        mult: Multiplicity = 1
        if "^" in part:
            body, _, suffix = part.rpartition("^")
            suffix = suffix.strip()
            if suffix == "w":
                mult = OMEGA
            elif suffix.isdigit():
                mult = int(suffix)
            else:
                raise ParseError(f"bad multiplicity suffix '^{suffix}'", 0)
            part = body.strip()
        ms.add(parse_formula(part, sig, lenient=lenient), mult)
    return ms


def parse_sequent(text: str, sig: Signature, lenient: bool = False) -> Sequent:
    """Parse ``A, B, B |- C`` with ``^w`` / ``^n`` multiplicity suffixes."""
    if "|-" not in text:
        raise ParseError("sequent needs '|-'", 0)
    ant_text, _, suc_text = text.partition("|-")
    return Sequent(
        SequentSide(_parse_side(ant_text, sig, lenient)),
        SequentSide(_parse_side(suc_text, sig, lenient)),
    )
