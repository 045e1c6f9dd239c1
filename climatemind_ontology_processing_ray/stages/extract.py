"""HTML -> text extraction: the first, stateless map stage.

``extract_text`` is a FROZEN pure function of the ``html`` bytes — no
locale, no dict-order, no wall-clock dependence — so its output is
byte-identical per url at any parallelism level (input_hint invariant;
SURVEY §7.4).

The batch stage runs as stateless ``map_batches`` tasks over zero-copy
Arrow batches and drops the wide ``html`` column immediately after
extraction (projection-early: html can be MBs per row and must not reach
any shuffle, SURVEY §7.4 "very wide rows").
"""

from __future__ import annotations

import functools
import re

import pyarrow as pa

# --- frozen extractor v1 (do not change casually: the byte-identical     #
# invariant and all checkpoints key on its behavior) ---------------------#

_SCRIPT_RE = re.compile(rb"(?is)<(script|style)\b[^>]*>.*?(</\1\s*>|\Z)")
_COMMENT_RE = re.compile(rb"(?s)<!--.*?(-->|\Z)")
_BLOCK_TAG_RE = re.compile(
    rb"(?i)</?(?:p|div|h[1-6]|li|ul|ol|tr|table|br|nav|footer|header|article|section|title|blockquote)\b[^>]*>"
)
_TAG_RE = re.compile(rb"<[^>]*>")
_NUMERIC_ENTITY_RE = re.compile(rb"&#(\d{1,7});")
_ENTITIES = (
    (b"&nbsp;", b" "),
    (b"&lt;", b"<"),
    (b"&gt;", b">"),
    (b"&quot;", b'"'),
    (b"&apos;", b"'"),
    (b"&#39;", b"'"),
    (b"&copy;", b"\xc2\xa9"),
    (b"&amp;", b"&"),  # last, so &amp;lt; becomes &lt; (single pass, like html.unescape's ordering)
)
_HSPACE_RE = re.compile(r"[ \t\r\f\v]+")


def _sub_numeric_entity(m: re.Match) -> bytes:
    code = int(m.group(1))
    if code == 0 or code > 0x10FFFF:
        return b""
    try:
        return chr(code).encode("utf-8")
    except (ValueError, UnicodeEncodeError):
        return b""


def extract_text(html: bytes | str) -> str:
    """Extract visible text from an HTML page. Frozen pure function."""
    raw = html.encode("utf-8") if isinstance(html, str) else bytes(html)
    raw = _SCRIPT_RE.sub(b"", raw)
    raw = _COMMENT_RE.sub(b"", raw)
    raw = _BLOCK_TAG_RE.sub(b"\n", raw)
    raw = _TAG_RE.sub(b"", raw)
    raw = _NUMERIC_ENTITY_RE.sub(_sub_numeric_entity, raw)
    for ent, rep in _ENTITIES:
        raw = raw.replace(ent, rep)
    text = raw.decode("utf-8", errors="replace")
    lines = []
    for line in text.split("\n"):
        line = _HSPACE_RE.sub(" ", line).strip()
        if line:
            lines.append(line)
    return "\n".join(lines)


# --- vectorized fast path: the SAME transform chain as extract_text,
# expressed as pyarrow.compute (RE2) kernels over the whole column.
# Byte-identity with the frozen function is guaranteed by construction for
# the rows the gate leaves on this path, and is enforced by the
# frozen-function fuzz tests.  RE2 differs from the frozen bytes regexes in
# three ways every pattern here must respect:
#   - no backreferences: script and style are two branches of one
#     alternation (one pass, as the frozen <(script|style)...</\1 is);
#   - \s lacks \v: whitespace is spelled out as _WS;
#   - (?i) folds Unicode case: U+017F matches "s" and U+212A "k", so rows
#     holding either take the python path (_NUMERIC_GATE).
# Each regex matches only text it changes: RE2 pays per match, so a pattern
# that rewrites text to itself (a single space to a space) costs more than
# the rest of the chain.
_WS = r" \t\n\r\f\v"  # the bytes regexes' \s
_VEC_STEPS = (
    (
        rf"(?is)<script\b[^>]*>.*?(</script[{_WS}]*>|$)"
        rf"|<style\b[^>]*>.*?(</style[{_WS}]*>|$)",
        "",
    ),
    (r"(?s)<!--.*?(-->|$)", ""),
    (
        r"(?i)</?(?:p|div|h[1-6]|li|ul|ol|tr|table|br|nav|footer|header|article|section|title|blockquote)\b[^>]*>",
        "\n",
    ),
    (r"<[^>]*>", ""),
)
_VEC_ENTITIES = (
    ("&nbsp;", " "),
    ("&lt;", "<"),
    ("&gt;", ">"),
    ("&quot;", '"'),
    ("&apos;", "'"),
    ("&#39;", "'"),
    ("&copy;", "©"),
    ("&amp;", "&"),
)
# what str.strip() removes at a line's edges: every str.isspace character
# but the line separator \n
_STRIP = (
    "\t\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
    "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
_STRIP_CLASS = "".join(f"\\x{{{ord(c):x}}}" for c in _STRIP)
_VEC_CLEANUP = (
    # runs the frozen _HSPACE_RE would rewrite: two or more, or one non-space
    (r"[ \t\r\f\v]{2,}|[\t\r\f\v]", " "),
    # a whitespace run holding a newline is one line break, once lines are
    # stripped and empty ones dropped (a lone \n already is)
    (rf"[{_STRIP_CLASS}]+\n[{_STRIP_CLASS}\n]*|\n[{_STRIP_CLASS}\n]+", "\n"),
)
# numeric entities other than &#39; need chr() (computed replacement), and
# RE2's (?i) folds U+017F and U+212A onto ASCII letters — only rows holding
# one of these pay the python path
_NUMERIC_GATE = re.compile("&#(?!39;)[0-9]|[\u017f\u212a]")
# the same gate as RE2 patterns, coarser (no lookahead to spare &#39;):
# one pattern each, so RE2 skips to each one's first byte with memchr (an
# alternation of them reads every byte, ~8x slower)
_COARSE_GATES = ("&#[0-9]", "\u017f", "\u212a")


def _extract_vectorized(strings: pa.Array) -> pa.Array:
    import pyarrow.compute as pc

    x = strings
    for pat, rep in _VEC_STEPS:
        x = pc.replace_substring_regex(x, pattern=pat, replacement=rep)
    for ent, rep in _VEC_ENTITIES:
        x = pc.replace_substring(x, pattern=ent, replacement=rep)
    for pat, rep in _VEC_CLEANUP:
        x = pc.replace_substring_regex(x, pattern=pat, replacement=rep)
    return pc.utf8_trim(x, characters=_STRIP + "\n")


def _invalid_utf8_rows(col: pa.Array, offset: int = 0) -> list[int]:
    """Indices of the rows of a binary column that are not valid UTF-8:
    Arrow's own cast validates each slice, and a failing slice is halved
    until the failing rows stand alone (k bad rows cost O(k log n) casts
    of zero-copy slices)."""
    try:
        col.cast(pa.string())
        return []
    except pa.ArrowInvalid:
        if len(col) == 1:
            return [offset]
    mid = len(col) // 2
    return _invalid_utf8_rows(col.slice(0, mid), offset) + _invalid_utf8_rows(
        col.slice(mid), offset + mid
    )


def extract_pages_batch(batch: pa.Table) -> pa.Table:
    """Stateless map_batches body: (url, warc_ts, html, lang) ->
    (url, warc_ts, lang, extracted_text).

    Runs the Arrow-kernel fast path for the whole column; rows the fast
    path cannot reproduce byte-identically (numeric character entities,
    U+017F or U+212A, invalid UTF-8 payloads) are recomputed with the
    frozen python function, row by row.  The ``html`` (and WET ``text``)
    columns are dropped here so no downstream block carries the wide
    payload.
    """
    import numpy as np
    import pyarrow.compute as pc

    html_col = batch.column("html")
    try:
        if isinstance(html_col, pa.ChunkedArray):
            html_col = html_col.combine_chunks()
        patched: dict[int, str] = {}
        strings = html_col
        if pa.types.is_binary(html_col.type) or pa.types.is_large_binary(html_col.type):
            try:
                strings = html_col.cast(pa.string())  # validates utf-8
            except pa.ArrowInvalid:
                # only the invalid rows take the frozen function; they are
                # nulled out of the fast path's input
                bad = _invalid_utf8_rows(html_col)
                raws = html_col.take(pa.array(bad, pa.int64())).to_pylist()
                patched = {i: extract_text(r) for i, r in zip(bad, raws)}
                keep = np.ones(len(html_col), dtype=bool)
                keep[bad] = False
                strings = pc.if_else(
                    pa.array(keep), html_col, pa.scalar(None, html_col.type)
                ).cast(pa.string())
        text_col = pc.fill_null(_extract_vectorized(strings), "")
        # gate the python recompute path with Arrow kernels: only the rows
        # the coarse gates match are pulled into python, where
        # _NUMERIC_GATE refines them, so the common case never
        # materializes the html column as python strings.
        coarse = functools.reduce(
            pc.or_, (pc.match_substring_regex(strings, pattern=p) for p in _COARSE_GATES)
        )
        coarse = pc.fill_null(coarse, False)
        if pc.any(coarse).as_py():
            idx = np.flatnonzero(coarse.to_numpy(zero_copy_only=False))
            raws = strings.take(pa.array(idx)).to_pylist()
            patched.update(
                (int(i), extract_text(r or ""))
                for i, r in zip(idx, raws)
                if r and _NUMERIC_GATE.search(r)
            )
        if patched:
            texts = text_col.to_pylist()
            for i, t in patched.items():
                texts[i] = t
            text_col = pa.array(texts, pa.string())
    except Exception:
        # fallback on a kernel failure: frozen per-row path, byte-for-byte
        # the reference; extract_text is total over bytes, so no row can
        # fail here
        text_col = pa.array(
            [extract_text(h or b"") for h in batch.column("html").to_pylist()], pa.string()
        )
    keep_cols = [c for c in ("url", "warc_ts", "lang") if c in batch.column_names]
    return batch.select(keep_cols).append_column("extracted_text", text_col)
