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


# --- vectorized fast path: the SAME transform chain as extract_text,     #
# expressed as pyarrow.compute (RE2) kernels over the whole column.        #
# Byte-identity with the frozen function is guaranteed by construction     #
# for rows WITHOUT numeric character entities (RE2 has no computed         #
# replacement, so `&#NNN;` rows take the frozen python path) and is        #
# enforced by the frozen-function fuzz tests.  The script/style pattern    #
# is split in two because RE2 lacks backreferences.                        #
_VEC_STEPS = (
    (r"(?is)<script\b[^>]*>.*?(</script\s*>|$)", ""),
    (r"(?is)<style\b[^>]*>.*?(</style\s*>|$)", ""),
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
_VEC_CLEANUP = (
    (r"[ \t\r\f\v]+", " "),
    (r"(?m)^ | $", ""),
    (r"\n{2,}", "\n"),
    (r"^\n+|\n+$", ""),
)
# numeric entities other than &#39; need chr() (computed replacement) —
# only those rows pay the python path
_NUMERIC_GATE = re.compile(r"&#(?!39;)[0-9]")


def _extract_vectorized(strings: pa.Array) -> pa.Array:
    import pyarrow.compute as pc

    x = strings
    for pat, rep in _VEC_STEPS:
        x = pc.replace_substring_regex(x, pattern=pat, replacement=rep)
    for ent, rep in _VEC_ENTITIES:
        x = pc.replace_substring(x, pattern=ent, replacement=rep)
    for pat, rep in _VEC_CLEANUP:
        x = pc.replace_substring_regex(x, pattern=pat, replacement=rep)
    return x


def extract_pages_batch(batch: pa.Table) -> pa.Table:
    """Stateless map_batches body: (url, warc_ts, html, lang) ->
    (url, warc_ts, lang, extracted_text).

    Runs the Arrow-kernel fast path for the whole column; rows the fast
    path cannot reproduce byte-identically (numeric character entities,
    invalid UTF-8 payloads) are recomputed with the frozen python
    function.  The ``html`` (and WET ``text``) columns are dropped here so
    no downstream block carries the wide payload.
    """
    import pyarrow.compute as pc

    html_col = batch.column("html")
    try:
        if pa.types.is_binary(html_col.type) or pa.types.is_large_binary(html_col.type):
            strings = html_col.cast(pa.string())  # validates utf-8
        else:
            strings = html_col
        if isinstance(strings, pa.ChunkedArray):
            strings = strings.combine_chunks()
        text_col = pc.fill_null(_extract_vectorized(strings), "")
        # gate the python recompute path with an Arrow kernel: only rows
        # that CONTAIN "&#<digit>" are pulled into python (RE2 lacks the
        # lookahead to exclude &#39; — the per-row regex refines the
        # coarse match), so the common case never materializes the html
        # column as python strings.
        coarse = pc.fill_null(
            pc.match_substring_regex(strings, pattern=r"&#[0-9]"), False
        )
        if pc.any(coarse).as_py():
            import numpy as np

            idx = np.flatnonzero(coarse.to_numpy(zero_copy_only=False))
            raws = strings.take(pa.array(idx)).to_pylist()
            patched = {
                int(i): extract_text(r or "")
                for i, r in zip(idx, raws)
                if r and _NUMERIC_GATE.search(r)
            }
            if patched:
                texts = text_col.to_pylist()
                for i, t in patched.items():
                    texts[i] = t
                text_col = pa.array(texts, pa.string())
    except Exception:
        # fallback: invalid utf-8 somewhere in the batch (or kernel
        # failure) — frozen per-row path, byte-for-byte the reference;
        # extract_text is total over bytes, so no row can fail here
        text_col = pa.array(
            [extract_text(h or b"") for h in html_col.to_pylist()], pa.string()
        )
    keep = [c for c in ("url", "warc_ts", "lang") if c in batch.column_names]
    return batch.select(keep).append_column("extracted_text", text_col)
