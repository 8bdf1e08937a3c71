"""Canonical submission fingerprints (the bucketing key).

Two submissions share a fingerprint exactly when one can be obtained
from the other by renaming identifiers, respelling constants, and
reflowing spacing/comments within lines — the transformations the
specializer (:mod:`repro.cluster.specialize`) can invert.  The
fingerprint is computed from the token stream alone, so bucket members
never need to be parsed:

* **identifiers** are alpha-renamed to their first-occurrence slot
  index, *except* spellings that must be kept verbatim (see below);
* **constants** are normalized to the value the parser would produce
  (``1_000``, ``1000`` and ``0x3E8`` print identically from the AST, so
  they grade identically);
* **string/char literals** hash by their unescaped value, verbatim —
  string contents are grading-relevant;
* **line numbers** ride along per token (diagnostics report lines, so
  members must agree on line layout), but columns and spacing do not;
* an **order signature** records how the renameable spellings interleave
  with the kept identifiers in sorted order.  Algorithm 1 enumerates
  candidate variables with ``sorted(...)``, so two members whose
  spellings sort differently could see embeddings in different orders
  (and, under truncation, different embedding *sets*); the signature
  splits such submissions into different buckets, making the identifier
  bijection between bucket mates monotone — and therefore invisible to
  every ``sorted`` the grading path takes.

A spelling is **kept** (hashed verbatim, excluded from the bijection)
when renaming it could be observable:

* it is in the audit's keep set (an expected method name, an identifier
  the expression templates match literally, or a word of the report
  vocabulary — fixed text that can appear in delivered feedback, which
  the specializer must be able to tell apart from interpolated names);
* it contains one of the audit's literal runs as a substring (a
  template literal like ``print`` matches inside ``println``, so a
  rename could create or destroy a match);
* it contains a digit (template literals may contain ``\\d``);
* it occurs as a whole word inside a string or char literal of this
  submission (string contents are not renamed, so the quoted mention
  would fall out of sync).

Keeping is always sound — bucket mates must agree on every kept
spelling byte for byte — it only splits buckets more finely, so the
per-submission hazards cost cluster merging, never correctness.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

from repro.cluster.audit import ClusterAudit
from repro.errors import JavaSyntaxError
from repro.java.lexer import TokenType, tokenize
from repro.pdg.graph import Epdg

#: Spellings that may be renamed must be digit-free: expression
#: templates may contain literal ``\d`` which would otherwise match
#: inside a name in one bucket member but not another.
_SAFE_NAME = re.compile(r"[A-Za-z_$]+\Z")

#: Maximal identifier-character runs, used to scan string-literal values
#: for identifier spellings.
_WORD = re.compile(r"[A-Za-z0-9_$]+")

#: Identifier tokens inside canonical node content (first char non-digit).
_CONTENT_IDENTIFIER = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")

#: String/char literal regions of canonical (printer-produced) content.
_CONTENT_LITERALS = re.compile(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'')


@dataclass(frozen=True)
class SourcePrint:
    """The canonical fingerprint of one submission's token stream.

    ``spellings`` holds the renameable identifier spellings in
    first-occurrence (slot) order — the member side of the bucket
    bijection.  ``positions`` holds every token's 1-based
    ``(line, column)``; the specializer maps diagnostic positions
    between bucket mates by token index.  Every rename hazard is
    resolved by keeping the spelling fixed, so every source that lexes
    has a print.
    """

    digest: str
    spellings: tuple[str, ...]
    positions: tuple[tuple[int, int], ...]


def _normalize_number(kind: str, text: str) -> str:
    """The spelling-independent value of a numeric literal token.

    Follows the parser (``repro/java/parser.py``): underscores are
    insignificant, hex collapses to decimal, type suffixes drop, and
    doubles canonicalize through ``float``.  Octal and malformed
    spellings hash verbatim (prefixed to stay injective): never coarser
    than the parser's values, so bucketing stays sound.
    """
    try:
        if kind == "int":
            return str(int(text.replace("_", ""), 0))
        if kind == "long":
            return str(int(text.rstrip("lL").replace("_", ""), 0))
        return repr(float(text.rstrip("dDfF").replace("_", "")))
    except ValueError:
        return "!" + text


def _must_keep(
    name: str, audit: ClusterAudit, literal_words: frozenset[str]
) -> bool:
    """Whether ``name`` must be hashed verbatim rather than renamed."""
    if name in audit.keep_identifiers or name in literal_words:
        return True
    if not _SAFE_NAME.match(name):
        return True
    return any(run in name for run in audit.literal_runs)


def fingerprint_source(
    source: str, audit: ClusterAudit
) -> SourcePrint | None:
    """Fingerprint ``source`` under ``audit``'s keep set.

    Returns ``None`` when the source does not lex (the full path will
    produce the syntax-error report).
    """
    try:
        tokens = tokenize(source)
    except JavaSyntaxError:
        return None
    # first pass: identifier spellings quoted inside string/char
    # literals must be kept, and a literal may follow the identifier's
    # first occurrence, so the keep decision needs the whole stream
    literal_words = frozenset(
        word
        for token in tokens
        if token.type in (TokenType.STRING_LITERAL, TokenType.CHAR_LITERAL)
        for word in _WORD.findall(token.value)
    )
    hasher = hashlib.sha256()
    update = hasher.update
    slots: dict[str, int] = {}
    spellings: list[str] = []
    positions: list[tuple[int, int]] = []
    kept_present: set[str] = set()
    keep_memo: dict[str, bool] = {}
    for token in tokens:
        token_type = token.type
        value = token.value
        positions.append((token.line, token.column))
        if token_type is TokenType.IDENTIFIER:
            kept = keep_memo.get(value)
            if kept is None:
                kept = keep_memo[value] = _must_keep(
                    value, audit, literal_words
                )
            if kept:
                kept_present.add(value)
                canonical = "identifier:" + value
            else:
                slot = slots.get(value)
                if slot is None:
                    slot = slots[value] = len(spellings)
                    spellings.append(value)
                canonical = f"s{slot}"
        elif token_type is TokenType.INT_LITERAL:
            canonical = "i" + _normalize_number("int", value)
        elif token_type is TokenType.LONG_LITERAL:
            canonical = "l" + _normalize_number("long", value)
        elif token_type is TokenType.DOUBLE_LITERAL:
            canonical = "d" + _normalize_number("double", value)
        else:
            canonical = token_type.value + ":" + value
        # length prefixes keep the serialization injective whatever the
        # token text contains
        update(f"{len(canonical)}\x1f{canonical}\x1f{token.line}\x1e".encode())
    update(b"\x1dsignature\x1d")
    for name in sorted(kept_present | set(slots)):
        slot = slots.get(name)
        entry = f"k:{name}" if slot is None else f"s:{slot}"
        update(f"{len(entry)}\x1f{entry}\x1e".encode())
    return SourcePrint(
        digest=hasher.hexdigest(),
        spellings=tuple(spellings),
        positions=tuple(positions),
    )


# ----------------------------------------------------------------------
# EPDG-level fingerprint (the semantic reference definition)


def _content_literal_words(text: str) -> set[str]:
    """Identifier words inside the literal regions of printed content.

    Printed literals are re-escaped, and every supported escape target
    is a non-word character, so skipping backslash pairs reproduces the
    word set of the unescaped value (what :func:`fingerprint_source`
    scans).
    """
    words: set[str] = set()
    for match in _CONTENT_LITERALS.finditer(text):
        body = match.group()[1:-1]
        chunk: list[str] = []
        i = 0
        while i < len(body):
            ch = body[i]
            if ch == "\\":
                chunk.append("\x00")
                i += 2
                continue
            chunk.append(ch)
            i += 1
        words.update(_WORD.findall("".join(chunk)))
    return words


def fingerprint_graphs(
    graphs: dict[str, Epdg], audit: ClusterAudit
) -> str:
    """Canonical digest of a submission's EPDGs.

    This is the *semantic definition* of bucket equality: node types,
    alpha-renamed hash-consed node contents, canonical defines/uses,
    edges, and the identifier order signature.  The token-level
    :func:`fingerprint_source` is a strict refinement of it — equal
    token fingerprints imply equal graph fingerprints (asserted by the
    test suite) — and is what the hot path uses, because it never needs
    the frontend.  Graph-level fingerprints serve tests, docs, and any
    future cache that already has graphs in hand.
    """
    literal_words = frozenset(
        word
        for graph in graphs.values()
        for node in graph.nodes
        for word in _content_literal_words(node.content)
    )
    hasher = hashlib.sha256()
    update = hasher.update
    slots: dict[str, int] = {}
    kept_present: set[str] = set()
    keep_memo: dict[str, bool] = {}

    def canonical_word(word: str) -> str:
        kept = keep_memo.get(word)
        if kept is None:
            kept = keep_memo[word] = _must_keep(word, audit, literal_words)
        if kept:
            kept_present.add(word)
            return word
        slot = slots.get(word)
        if slot is None:
            slot = slots[word] = len(slots)
        return f"\x00{slot}\x00"

    def canonical_text(text: str) -> str:
        parts: list[str] = []
        position = 0
        for match in _CONTENT_LITERALS.finditer(text):
            parts.append(
                _CONTENT_IDENTIFIER.sub(
                    lambda m: canonical_word(m.group()),
                    text[position:match.start()],
                )
            )
            parts.append(match.group())
            position = match.end()
        parts.append(
            _CONTENT_IDENTIFIER.sub(
                lambda m: canonical_word(m.group()), text[position:]
            )
        )
        return "".join(parts)

    for method_name in sorted(graphs):
        graph = graphs[method_name]
        header = canonical_word(method_name)
        update(f"m{len(header)}\x1f{header}\x1e".encode())
        for node in graph.nodes:
            content = canonical_text(node.content)
            # iterate in sorted-original order so slot assignment for
            # names that never occur in content stays deterministic
            defines = ",".join(
                canonical_word(name) for name in sorted(node.defines)
            )
            uses = ",".join(
                canonical_word(name) for name in sorted(node.uses)
            )
            entry = f"{node.type.value}|{content}|{defines}|{uses}"
            update(f"n{len(entry)}\x1f{entry}\x1e".encode())
        for edge in sorted(
            graph.edges, key=lambda e: (e.source, e.target, e.type.value)
        ):
            update(
                f"e{edge.source},{edge.target},{edge.type.value}\x1e".encode()
            )
    update(b"\x1dsignature\x1d")
    for name in sorted(kept_present | set(slots)):
        slot = slots.get(name)
        entry = f"k:{name}" if slot is None else f"s:{slot}"
        update(f"{len(entry)}\x1f{entry}\x1e".encode())
    return hasher.hexdigest()
