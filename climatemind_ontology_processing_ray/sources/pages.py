"""Deterministic Common-Crawl-style pages synthesizer (FIXTURES.md §1/§4).

Produces the pipeline's primary input table with the exact shape of
BASELINE.json's ``input_hint``::

    url: string, warc_ts: timestamp[us], html: binary, text: string, lang: string

Every golden edge ``(s, p, o)`` is embedded in >=1 English page as a
templated causal sentence; surface forms are sampled from each node's
alias variants; distractor sentences mention entities without causal
verbs (precision) and unknown entities with causal verbs (linker-abstain);
a fixed ~2% of causal sentences use entity pairs with NO golden edge
(labeled traps, allowed within the <=0.05 precision budget); the head
surfaces "climate change" / "global warming" appear on >=20% of pages
(canonicalization skew, per north_star).  ~10% of pages are non-English
(filtered by the lang stage) and ~5% carry malformed HTML.

All generation is a pure function of (snapshot, seed, n_pages): no
wall-clock, no global RNG, no network.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

import pyarrow as pa

from ..ontology.oracle import golden_edge_set
from ..ontology.schema import OntologySnapshot
from ..ontology.vocab import (
    CAUSES,
    EXPOSURE,
    INHIBITS,
    IS_A,
    MYTH_ABOUT,
    POPULATION,
)

# predicate -> (templates, subject_first).  When subject_first is False the
# OBJECT of the triple is the first mention in the sentence (the inhibition
# templates read solution-first: "{o} can prevent {s}" for edge (s, INHIBITS, o),
# matching the reference's problem->solution edge direction,
# make_graph_class.py:459-461).
TEMPLATES: dict[str, tuple[tuple[str, ...], bool]] = {
    CAUSES: (
        (
            "{a} causes {b}.",
            "{a} leads to {b}.",
            "{a} contributes to {b}.",
            "{a} promotes {b}.",
        ),
        True,
    ),
    INHIBITS: (
        (
            "{a} can prevent {b}.",
            "{a} inhibits {b}.",
            "{a} slows {b}.",
            "{a} reduces {b}.",
        ),
        False,
    ),
    MYTH_ABOUT: (("{a} is a myth about {b}.",), True),
    EXPOSURE: (("{a} has exposure dependency of {b}.",), True),
    POPULATION: (("{a} affects the population of {b}.",), True),
    IS_A: (("{a} is a kind of {b}.",), True),
}

_DISTRACTORS = (
    "Researchers discussed {a} and {b} in a recent report.",
    "Many articles mention {a} alongside {b} without further evidence.",
    "A panel reviewed findings about {a} this week.",
    "The study of {a} near {b} continues worldwide.",
)
_UNKNOWN_CAUSAL = (
    "the flux capacitor effect causes widget decay.",
    "spurious vortex shedding leads to chrono drift.",
    "quantum pixie dust promotes headline churn.",
)
_HEAD_SENTENCES = (
    "Experts say climate change is accelerating faster than expected.",
    "Global warming remains the defining story of this decade.",
    "Public concern about climate change keeps rising.",
)
_NON_EN = (
    "Dies ist ein Beispieltext ohne kausale Aussagen.",
    "Ceci est un texte d'exemple sans relations causales.",
    "Lorem ipsum dolor sit amet, consectetur adipiscing elit.",
)
_LANGS = ("de", "fr", "xx")


@dataclass
class PageGenInfo:
    """Bookkeeping for tests: what was embedded where."""

    golden: set[tuple[str, str, str]]
    trap_triples: set[tuple[str, str, str]] = field(default_factory=set)
    n_pages: int = 0
    n_en_pages: int = 0


def _surface(rng: random.Random, snap: OntologySnapshot, label: str) -> str:
    forms = snap.individuals[label].get("surface_forms") or [label]
    return rng.choice(forms)


def _zipf_support(rng: random.Random, max_k: int = 50) -> int:
    # heavy-tailed 1..max_k: most edges get 1-3 supporting pages, a few get many
    return max(1, min(max_k, int(1.0 / max(rng.random(), 1e-9) ** 0.7)))


def generate_pages(
    snap: OntologySnapshot,
    n_pages: int,
    seed: int = 13,
    trap_fraction: float = 0.02,
) -> tuple[pa.Table, PageGenInfo]:
    """Build the pages table. Deterministic in (snap, n_pages, seed)."""
    rng = random.Random((seed, n_pages).__repr__())
    golden = sorted(golden_edge_set(snap))
    labels = snap.labels()
    info = PageGenInfo(golden=set(golden), n_pages=n_pages)

    langs = ["en"] * n_pages
    for i in range(n_pages):
        if i % 10 == 9:
            langs[i] = _LANGS[(i // 10) % len(_LANGS)]
    en_pages = [i for i in range(n_pages) if langs[i] == "en"]
    info.n_en_pages = len(en_pages)

    # sentence plan per page
    plan: list[list[str]] = [[] for _ in range(n_pages)]

    def render(triple: tuple[str, str, str]) -> str:
        s, o, p = triple
        templates, subject_first = TEMPLATES[p]
        a, b = (s, o) if subject_first else (o, s)
        return rng.choice(templates).format(
            a=_surface(rng, snap, a), b=_surface(rng, snap, b)
        )

    # 1. golden edges: each embedded in k_support English pages.  Support
    # scales with corpus size (so triples/sec is meaningful at bench scale)
    # while staying Zipf-skewed across edges; at the 300-page test scale the
    # multiplier is 1.
    support_scale = max(1, n_pages // 500)
    for triple in golden:
        k = min(_zipf_support(rng) * support_scale, max(1, len(en_pages) // 4))
        for page in rng.choices(en_pages, k=k):
            plan[page].append(render(triple))

    # 2. trap pairs (false causal sentences, within the precision budget)
    n_traps = max(1, int(trap_fraction * len(golden))) if trap_fraction > 0 else 0
    golden_pairs = {(s, o) for s, o, _ in golden}
    attempts = 0
    while len(info.trap_triples) < n_traps and attempts < 50 * n_traps:
        attempts += 1
        s, o = rng.sample(labels, 2)
        if (s, o) in golden_pairs or (o, s) in golden_pairs:
            continue
        trap = (s, o, CAUSES)
        info.trap_triples.add(trap)
        plan[rng.choice(en_pages)].append(render(trap))

    # 3. distractors, unknown-entity causal sentences, head-skew mentions
    for i in range(n_pages):
        if langs[i] != "en":
            plan[i] = [rng.choice(_NON_EN) for _ in range(rng.randint(2, 4))]
            continue
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(labels, 2)
            plan[i].append(
                rng.choice(_DISTRACTORS).format(
                    a=_surface(rng, snap, a), b=_surface(rng, snap, b)
                )
            )
        if rng.random() < 0.3:
            plan[i].append(rng.choice(_UNKNOWN_CAUSAL))
        if i % 4 == 0:  # >=20% of pages mention a head surface form
            plan[i].append(rng.choice(_HEAD_SENTENCES))
        rng.shuffle(plan[i])

    # 4. materialize rows
    urls, tss, htmls, texts, out_langs = [], [], [], [], []
    epoch_2025_us = 1_735_689_600_000_000  # 2025-01-01T00:00:00Z in µs
    for i in range(n_pages):
        h8 = hashlib.sha1(f"{seed}:{i}".encode()).hexdigest()[:8]
        urls.append(f"https://site-{i % 997}.example/{h8}")
        tss.append(epoch_2025_us + i * 37_000_000)
        title = f"Notes {i} on {rng.choice(labels)}"
        htmls.append(_render_html(title, plan[i], malformed=(i % 20 == 7)))
        # WET-style pre-extracted text: plausible but NOT necessarily equal to
        # our extractor's output (FIXTURES.md §1) — pipelines must use `html`.
        texts.append(" ".join(plan[i]))
        out_langs.append(langs[i])

    table = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(out_langs, pa.string()),
        }
    )
    return table, info


def _render_html(title: str, sentences: list[str], malformed: bool) -> bytes:
    body = "\n".join(f"<p>{s}</p>" for s in sentences)
    if malformed:
        # unclosed tags, stray ampersand, missing </body></html> — the
        # extractor must still produce stable text (FIXTURES.md §1: a fixed
        # 5% of rows are malformed)
        doc = (
            f"<html><head><title>{title}</title>\n"
            f"<style>body {{ margin: 0 }}</style></head>\n"
            f"<body><nav><a href='/'>Home</a> | <a href='/about'>About</a></nav>\n"
            f"<h1>{title}\n{body}\n<p>Unclosed & paragraph\n"
            f"<script>var t = 1;</script>"
        )
    else:
        doc = (
            f"<html><head><title>{title}</title>\n"
            f"<style>body {{ margin: 0 }}</style>\n"
            f"<script>window.x = 42;</script></head>\n"
            f"<body>\n<nav><a href='/'>Home</a> | <a href='/about'>About</a></nav>\n"
            f"<h1>{title}</h1>\n{body}\n"
            f"<footer>&copy; 2025 example.org &amp; partners</footer>\n"
            f"</body></html>"
        )
    return doc.encode("utf-8")


def write_pages_parquet(
    out_dir: str,
    snap: OntologySnapshot,
    n_pages: int,
    seed: int = 13,
    rows_per_file: int = 25_000,
) -> str:
    """Write the pages table as a sharded Parquet directory and return the
    path.  Idempotent: if a matching manifest exists the write is skipped
    (resumable-output layout, SURVEY §4.2 checkpoint row)."""
    import json
    import os

    import pyarrow.parquet as pq

    manifest = os.path.join(out_dir, "_PAGES_MANIFEST.json")
    key = {"n_pages": n_pages, "seed": seed, "fixture": hashlib.sha256(
        snap.to_json().encode()).hexdigest()[:16]}
    if os.path.exists(manifest):
        try:
            with open(manifest) as f:
                if json.load(f) == key:
                    return out_dir
        except Exception:
            pass
    import shutil

    # clear any stale/partial shards (an interrupted earlier write, or a
    # previous corpus with more files, would otherwise leave extra rows)
    shutil.rmtree(out_dir, ignore_errors=True)
    table, _ = generate_pages(snap, n_pages, seed)
    os.makedirs(out_dir, exist_ok=True)
    for shard, start in enumerate(range(0, n_pages, rows_per_file)):
        pq.write_table(
            table.slice(start, rows_per_file),
            os.path.join(out_dir, f"pages-{shard:05d}.parquet"),
        )
    with open(manifest, "w") as f:
        json.dump(key, f)
    return out_dir


def write_pages_parquet_sharded(
    out_dir: str,
    snap: OntologySnapshot,
    n_pages: int,
    seed: int = 13,
    rows_per_file: int = 25_000,
) -> str:
    """Shard-PARALLEL corpus writer: each parquet file is generated by an
    independent Ray task from its own derived seed ``(seed, shard)``, so a
    multi-million-page bench corpus materializes in seconds instead of
    minutes.  Content differs from the sequential writer for the same
    (n_pages, seed) — same distribution, different sample — so cache keys
    must distinguish the two (bench.py appends a layout marker).

    Statistical properties (golden-edge support scaling, head-surface
    skew, lang mix, malformed fraction, traps) hold per shard, hence
    corpus-wide.  Falls back to the sequential writer when Ray is not
    initialized."""
    import json
    import os
    import shutil

    import ray as _ray

    if not _ray.is_initialized():
        return write_pages_parquet(out_dir, snap, n_pages, seed, rows_per_file)

    manifest = os.path.join(out_dir, "_PAGES_MANIFEST.json")
    key = {
        "n_pages": n_pages,
        "seed": seed,
        "layout": f"sharded-v2-shard0traps:{rows_per_file}",
        "fixture": hashlib.sha256(snap.to_json().encode()).hexdigest()[:16],
    }
    if os.path.exists(manifest):
        try:
            with open(manifest) as f:
                if json.load(f) == key:
                    return out_dir
        except Exception:
            pass
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    snap_json = snap.to_json()

    @_ray.remote(num_cpus=1)
    def _gen_shard(shard: int, rows: int, path: str) -> int:
        import pyarrow.parquet as _pq

        from ..ontology.schema import OntologySnapshot as _Snap

        s = _Snap.from_json(snap_json)
        # traps (false causal sentences) only in shard 0: the trap budget
        # is corpus-wide (<=2% of golden edges, precision-budget design);
        # per-shard independent traps would UNION into ~2% x #shards
        # distinct false edges and sink corpus precision
        table, _ = generate_pages(
            s, rows, seed=(seed, "shard", shard),
            trap_fraction=0.02 if shard == 0 else 0.0,
        )
        _pq.write_table(table, path)
        return rows

    futs = []
    for shard, start in enumerate(range(0, n_pages, rows_per_file)):
        rows = min(rows_per_file, n_pages - start)
        path = os.path.join(out_dir, f"pages-{shard:05d}.parquet")
        futs.append(_gen_shard.remote(shard, rows, path))
    _ray.get(futs)
    with open(manifest, "w") as f:
        json.dump(key, f)
    return out_dir
