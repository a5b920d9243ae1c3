"""The regex-loop tokenizer that ``syntax._tokenize`` replaced, kept as the
reference its one-pass ``finditer`` version is checked against."""

import re

from mqlogic.syntax import ParseError

_TOKEN = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<darrow>=>)|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<num>\d+)|(?P<sym>[~(),=])|(?P<bad>\S))"
)


def tokenize_by_loop(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token, matching one token at a time
    from the end of the last; raises ParseError at the first bad one."""
    toks: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos and not m.lastgroup:
            break
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character '{m.group('bad')}'", m.start("bad"))
        if m.lastgroup is None:
            break
        toks.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return toks
