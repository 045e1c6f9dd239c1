"""HTML extractor: frozen pure function + byte-identical-per-url invariant."""

from climatemind_ontology_processing_ray.sources.pages import generate_pages
from climatemind_ontology_processing_ray.stages.extract import extract_text


def test_strips_script_style_comments():
    html = b"<html><head><style>x{}</style><script>var a=1;</script></head><body><p>Hello</p><!-- c --></body></html>"
    assert extract_text(html) == "Hello"


def test_entities_and_blocks():
    html = b"<body><p>A &amp; B</p><p>x &lt; y</p><h1>T&nbsp;1</h1></body>"
    assert extract_text(html) == "A & B\nx < y\nT 1"


def test_malformed_html_is_stable():
    html = b"<html><body><h1>Title\n<p>Unclosed & paragraph\n<script>var t=1;</script>"
    out1 = extract_text(html)
    out2 = extract_text(bytearray(html))
    assert out1 == out2
    assert "Unclosed & paragraph" in out1
    assert "var t" not in out1


def test_unterminated_script_swallowed():
    assert extract_text(b"<p>keep</p><script>secret") == "keep"


def test_numeric_entities():
    assert extract_text(b"<p>&#8212; dash &#65;</p>") == "— dash A"


def test_pure_function_of_bytes(snapshot):
    table, _ = generate_pages(snapshot, 60, seed=99)
    htmls = table.column("html").to_pylist()
    first = [extract_text(h) for h in htmls]
    second = [extract_text(h) for h in htmls]
    assert first == second


def test_byte_identical_across_parallelism(ray_session, snapshot):
    """input_hint invariant: extracted text per url is byte-identical at any
    parallelism level."""
    import ray.data

    from climatemind_ontology_processing_ray.stages.extract import extract_pages_batch

    table, _ = generate_pages(snapshot, 120, seed=5)

    def run(num_blocks):
        ds = ray.data.from_arrow(table).repartition(num_blocks)
        out = ds.map_batches(
            extract_pages_batch, batch_format="pyarrow", batch_size=16
        ).take_all()
        return {r["url"]: r["extracted_text"] for r in out}

    a, b = run(1), run(8)
    assert a == b
    # and equal to the direct scalar function (structural invariant)
    expected = {
        u: extract_text(h)
        for u, h in zip(table.column("url").to_pylist(), table.column("html").to_pylist())
    }
    assert a == expected


def test_extract_arbitrary_bytes_never_crashes():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=2048))
    def prop(data):
        out = extract_text(data)
        assert isinstance(out, str)
        assert extract_text(data) == out  # deterministic

    prop()


def test_null_columns_handled(ray_session):
    import pyarrow as pa
    import ray.data

    from climatemind_ontology_processing_ray.ontology import build_fixture_snapshot
    from climatemind_ontology_processing_ray.pipelines.kg import KGConfig, run_kg_pipeline

    table = pa.table(
        {
            "url": pa.array(["u1", "u2", "u3"], pa.string()),
            "warc_ts": pa.array([0, 1, 2], pa.timestamp("us")),
            "html": pa.array([None, b"<p>increase in greenhouse effect causes global warming.</p>", b""], pa.binary()),
            "text": pa.array([None, "x", ""], pa.string()),
            "lang": pa.array([None, "en", "en"], pa.string()),
        }
    )
    snap = build_fixture_snapshot()
    pages = ray.data.from_arrow(table)
    rows = run_kg_pipeline(
        pages,
        snap,
        KGConfig(),
    ).canonical_edges.take_all()
    assert {(r["subject"], r["object"], r["predicate"]) for r in rows} == {
        ("increase in greenhouse effect", "global warming", "causes_or_promotes")
    }


def test_vectorized_path_byte_identical_fuzz():
    """The Arrow-kernel fast path must be byte-identical to the frozen
    python function for arbitrary inputs — including numeric entities
    (gated to the python path) and invalid utf-8 (per-row fallback).  The
    later fragments are the places RE2 and the frozen regexes part:
    Unicode whitespace that str.strip() removes at a line's edges, style
    and script nested in each other, \\v before a closing tag's ">"
    (outside RE2's \\s), and U+017F / U+212A, which RE2's (?i) folds onto
    "s" and "k"."""
    import random

    import pyarrow as pa

    from climatemind_ontology_processing_ray.stages.extract import (
        extract_pages_batch,
        extract_text,
    )

    rng = random.Random(99)
    frags = [
        "<p>hello world</p>", "<script>var x=1;</script>", "<style>a{}</style>",
        "<div CLASS='x'>text &amp; more</div>", "<!-- comment -->", "&#8212;",
        "&#39;quoted&#39;", "plain text", "<h1>Title", "<br/>", "&copy; 2025",
        "&#100;igits", "multi  \t spaces", "\n\nnewlines\n", "<P>UPPER</P>",
        "<unknown>tag</unknown>", "& lone amp", "&#0;", "&#1114112;", "ünïcødé",
        "<table><tr><td>c</td></tr></table>", "a<b>c", "]]>", "<![CDATA[x]]>",
        "<p>foo\xa0</p>", "\u3000", "\u2000x\u2028", "\x1c\x1d\x1e\x1f", " \x85 ",
        "\xa0\n\xa0", "\t\r\f\v", " ", "\n",
        "<style><script></style>x</script>y", "<script>", "<style>", "</style >",
        "</script\x0b>", "</style\x0b>",
        "<\u017fcript>s</\u017fcript>", "<\u017ftyle>", "<blocK\u212aquote>",
        "<bloc\u212aquote>", "\u212a",
    ]
    htmls = []
    for _ in range(1000):
        n = rng.randint(0, 12)
        htmls.append("".join(rng.choice(frags) for _ in range(n)).encode())
    htmls += [
        b"",
        "<p>foo\xa0</p>".encode(),
        b"<style><script></style>x</script>y",
        b"<script>a</script\x0b>b",
        "<\u017fcript>x</\u017fcript>y".encode(),
        "<bloc\u212aquote>z".encode(),
    ]
    # the second batch leads with an invalid utf-8 row, which alone takes
    # the frozen function (test_invalid_utf8_row_alone_takes_the_python_path)
    for rows in (htmls, [b"\xff\xfe invalid utf8 <p>x</p>", *htmls[:50]]):
        batch = pa.table(
            {
                "url": pa.array([f"u{i}" for i in range(len(rows))]),
                "html": pa.array(rows, pa.binary()),
                "lang": pa.array(["en"] * len(rows)),
            }
        )
        got = extract_pages_batch(batch).column("extracted_text").to_pylist()
        assert got == [extract_text(h) for h in rows]


def test_invalid_utf8_row_alone_takes_the_python_path(monkeypatch):
    """One invalid utf-8 row in a batch of valid pages is the only row sent
    to the frozen function; every row still equals ``extract_text``."""
    import pyarrow as pa

    from climatemind_ontology_processing_ray.stages import extract

    rows = [f"<p>page {i}</p><div>text &amp; more</div>".encode() for i in range(200)]
    rows.insert(137, b"\xff\xfe invalid utf8 <p>x</p>")
    batch = pa.table(
        {
            "url": pa.array([f"u{i}" for i in range(len(rows))]),
            "html": pa.array(rows, pa.binary()),
            "lang": pa.array(["en"] * len(rows)),
        }
    )
    calls = []
    real = extract.extract_text

    def spy(html):
        calls.append(html)
        return real(html)

    monkeypatch.setattr(extract, "extract_text", spy)
    got = extract.extract_pages_batch(batch).column("extracted_text").to_pylist()
    assert calls == [rows[137]]
    monkeypatch.undo()
    assert got == [extract_text(h) for h in rows]


def test_fast_path_character_tables():
    """The fast path's two character tables hold for this interpreter and
    RE2: its line-edge strip set is what str.strip() removes (but the line
    separator), and every non-ASCII character RE2's (?i) folds onto an
    ASCII letter is gated to the python path."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from climatemind_ontology_processing_ray.stages.extract import _NUMERIC_GATE, _STRIP

    chars = [chr(i) for i in range(0x80, 0x110000) if not 0xD800 <= i < 0xE000]
    assert set(_STRIP) == {c for c in map(chr, range(0x110000)) if c.isspace()} - {"\n"}
    folds = pc.match_substring_regex(pa.array(chars), pattern="(?i)[a-z]")
    folded = [c for c, hit in zip(chars, folds.to_pylist()) if hit]
    assert folded and all(_NUMERIC_GATE.search(c) for c in folded)


def test_triples_and_mentions_share_one_sentence_boundary():
    """Triples pair mentions within one sentence of the mention stage's
    boundary ('.', '!', '?', newline): 'Floods causes! Deforestation'
    is no triple, and the one triple's endpoints share a sentence id."""
    import pyarrow as pa

    from climatemind_ontology_processing_ray.ontology.schema import OntologySnapshot
    from climatemind_ontology_processing_ray.stages.mentions import MentionDetector
    from climatemind_ontology_processing_ray.stages.triples import TripleExtractor

    labels = ("floods", "deforestation", "drought")
    sj = OntologySnapshot(
        individuals={lab: {"label": lab, "surface_forms": [lab]} for lab in labels},
        class_parents={},
    ).to_json()
    pages = pa.table(
        {"url": ["u"], "extracted_text": ["Floods causes! Deforestation causes drought."]}
    )
    triples = TripleExtractor(sj)(pages).select(["subj_surface", "obj_surface"])
    assert triples.to_pylist() == [
        {"subj_surface": "deforestation", "obj_surface": "drought"}
    ]
    sids = {m["surface"]: m["sent_id"] for m in MentionDetector(sj)(pages).to_pylist()}
    assert sids == {"floods": 0, "deforestation": 1, "drought": 1}


def test_front_end_kernels_emit_only_what_canonicalization_reads(snapshot):
    """Schema pin: ``TripleExtractor`` emits url, subj_surface,
    obj_surface and predicate; ``EntityLinker`` adds only subj_label and
    obj_label."""
    from climatemind_ontology_processing_ray.stages.extract import extract_pages_batch
    from climatemind_ontology_processing_ray.stages.link import EntityLinker
    from climatemind_ontology_processing_ray.stages.triples import TripleExtractor

    table, _ = generate_pages(snapshot, 50, seed=13)
    sj = snapshot.to_json()
    triples = TripleExtractor(sj)(extract_pages_batch(table))
    linked = EntityLinker(sj)(triples)
    assert triples.num_rows and linked.num_rows
    assert triples.column_names == ["url", "subj_surface", "obj_surface", "predicate"]
    assert linked.column_names == triples.column_names + ["subj_label", "obj_label"]


def test_every_pattern_form_is_an_exact_link(snapshot):
    """The linker's traffic is exact index hits: every form the surface
    pattern matches (of the fixture snapshot, and of the snapshot read back
    from its OWL) normalizes to a ``surface_index`` key once lowercased,
    so ``EntityLinker`` keeps every triple of a generated corpus and its
    de-plural fallback and threshold drop none."""
    from climatemind_ontology_processing_ray.ontology.owl_io import parse_owl, write_owl
    from climatemind_ontology_processing_ray.ontology.schema import normalize_surface
    from climatemind_ontology_processing_ray.stages.extract import extract_pages_batch
    from climatemind_ontology_processing_ray.stages.link import EntityLinker
    from climatemind_ontology_processing_ray.stages.triples import TripleExtractor

    for snap in (snapshot, parse_owl(write_owl(snapshot))):
        index = snap.surface_index()
        for node in snap.individuals.values():
            for form in node.get("surface_forms") or [node["label"]]:
                assert normalize_surface(form.lower()) in index, form

    table, _ = generate_pages(snapshot, 300, seed=7)
    sj = snapshot.to_json()
    triples = TripleExtractor(sj)(extract_pages_batch(table))
    linker = EntityLinker(sj)
    assert triples.num_rows > 200
    assert linker(triples).num_rows == triples.num_rows
    for col in ("subj_surface", "obj_surface"):
        assert all(normalize_surface(s) in linker.index for s in triples.column(col).to_pylist())


def _alternation_pattern(forms):
    """The longest-first alternation the trie pattern replaced: the
    oracle for ``build_surface_pattern``."""
    import re

    variants = sorted({v.lower() for v in forms if v}, key=len, reverse=True)
    alts = "|".join(re.escape(v) for v in variants)
    return re.compile(rf"(?<![a-z0-9])(?:{alts})(?![a-z0-9])")


def test_trie_surface_pattern_matches_the_alternation(snapshot):
    """On text built from surface forms, their prefixes and extensions,
    forms sharing a prefix, regex metacharacters and word-boundary
    neighbours (letters, digits, punctuation, start and end of text), the
    trie pattern finds exactly the spans of the longest-first
    alternation."""
    import random

    from climatemind_ontology_processing_ray.stages.mentions import (
        build_surface_pattern,
        snapshot_surface_pattern,
    )

    fixture = set()
    for node in snapshot.individuals.values():
        fixture.update(node.get("surface_forms") or [node["label"]])
    synthetic = {
        "sea", "sea level", "Sea Level Rise", "sea-level", "sea wall", "a", "ab",
        "abc", "abd", "co2", "c++", "a.b", "(x)", "café", "x1", "",
    }
    rng = random.Random(5)
    for forms in (fixture, synthetic):
        trie, oracle = build_surface_pattern(forms), _alternation_pattern(forms)
        if forms is fixture:
            assert snapshot_surface_pattern(snapshot).pattern == trie.pattern
        low = sorted({f.lower() for f in forms if f})
        pieces = low + [f[:k] for f in low for k in range(1, len(f))]
        pieces += [f + tail for f in low for tail in ("s", "1", "-x", " of", "é")]
        neighbours = ["", "", " ", "x", "9", ".", "-", "_", "\n", "É"]
        for _ in range(3000):
            text = "".join(
                rng.choice(pieces) + rng.choice(neighbours) for _ in range(rng.randint(0, 8))
            )
            assert [m.span() for m in trie.finditer(text)] == [
                m.span() for m in oracle.finditer(text)
            ], text
    assert build_surface_pattern(["", None]).search("anything") is None


def test_connective_prefilter_keeps_every_triple(snapshot, monkeypatch):
    """The Arrow prefilter in ``TripleExtractor`` only drops pages that
    yield no triple: on pages pairing surface forms through connectives in
    upper case and through non-ASCII case variants (U+0130, the Kelvin
    sign, U+017F), the output equals a run that scans every page."""
    import random

    import pyarrow as pa

    from climatemind_ontology_processing_ray.stages import triples as T

    forms = sorted({n["label"] for n in snapshot.individuals.values()})[:12]
    variants = []
    for c in T.CONNECTIVES:
        variants += [c, c.upper(), c.title(), c.replace("i", "İ"),
                     c.replace("k", "K"), c.replace("s", "ſ")]
    rng = random.Random(11)
    texts = []
    for _ in range(400):
        parts = [rng.choice(forms)]
        for _ in range(rng.randint(0, 4)):
            gap = rng.choice(variants + ["and", "near", ". "])
            parts += [rng.choice(["", " ", ", "]) + gap + rng.choice([" ", ": "]), rng.choice(forms)]
        texts.append("".join(parts))
    texts += ["", None]
    pages = pa.table({"url": [f"u{i}" for i in range(len(texts))], "extracted_text": texts})

    extractor = T.TripleExtractor(snapshot.to_json())
    filtered = extractor(pages)
    monkeypatch.setattr(T, "_CONNECTIVE_RE", "")  # keeps every non-null page
    assert filtered.num_rows and filtered.equals(extractor(pages))
