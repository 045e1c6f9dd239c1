"""Exact order-statistics (functions/stats.py): brute-force numpy
equivalence + bin-count (partitioning) invariance.  The binned scan
must produce identical integers at any num_bins, including the
degenerate single-bin (fully local) and many-bins (one value per bin)
extremes."""

import numpy as np
import pandas as pd
import pytest


def _mk(rows: pd.DataFrame):
    import ray.data as rd

    return rd.from_pandas(rows).repartition(7)


def _brute_ks(v, g1, g2):
    vs = np.unique(v)
    n1, n2 = int(g1.sum()), int(g2.sum())
    best = 0
    for x in vs:
        f1 = int(g1[v <= x].sum())
        f2 = int(g2[v <= x].sum())
        best = max(best, abs(f1 * n2 - f2 * n1))
    return best, n1, n2


def _brute_r1x2(v, g1):
    # doubled midranks over the pooled sample
    order = np.argsort(v, kind="mergesort")
    v_s, g_s = v[order], g1[order]
    r2 = np.empty(len(v), dtype=np.int64)
    i = 0
    while i < len(v_s):
        j = i
        while j < len(v_s) and v_s[j] == v_s[i]:
            j += 1
        r2[i:j] = (i + 1) + j  # 2 * (i+1 + j) / 2
        i = j
    return int(r2[g_s == 1].sum())


def _brute_gini(counts):
    c = np.sort(np.asarray(counts, dtype=np.int64))
    k, tot = len(c), int(c.sum())
    s = int((np.arange(1, k + 1, dtype=np.int64) * c).sum())
    return 2 * s - (k + 1) * tot, k * tot


@pytest.mark.parametrize("num_bins", [1, 16, 4096])
def test_ks_matches_brute(ray_session, num_bins):
    from climatemind_ontology_processing_ray.functions.stats import ks_two_sample

    rng = np.random.RandomState(7)
    v = np.round(rng.gamma(2.0, 10.0, size=900), 1)  # heavy ties
    g1 = (rng.rand(900) < 0.4).astype(np.int64)
    g2 = 1 - g1
    out = ks_two_sample(
        _mk(pd.DataFrame({"v": v, "g1": g1, "g2": g2})), "v", "g1", "g2", num_bins
    )
    ks, n1, n2 = _brute_ks(v, g1, g2)
    assert out.loc[0, "ks_num"] == ks
    assert (out.loc[0, "n1"], out.loc[0, "n2"]) == (n1, n2)


def test_ks_rejects_nan_values(ray_session):
    """A NaN value has no bin: the tagger raises, naming the column,
    instead of casting NaN to int64 and clipping it into bin 0."""
    from climatemind_ontology_processing_ray.functions.stats import ks_two_sample

    v = np.array([1.0, np.nan, 2.0, 3.0])
    g1 = np.array([1, 0, 1, 0], dtype=np.int64)
    df = pd.DataFrame({"v": v, "g1": g1, "g2": 1 - g1})
    with pytest.raises(Exception, match="column 'v' holds NaN"):
        ks_two_sample(_mk(df), "v", "g1", "g2", 4)


@pytest.mark.parametrize("num_bins", [1, 16, 4096])
def test_mannwhitney_matches_brute(ray_session, num_bins):
    from climatemind_ontology_processing_ray.functions.stats import mann_whitney

    rng = np.random.RandomState(11)
    v = rng.randint(0, 25, size=800).astype(np.float64)  # dense ties
    g1 = (rng.rand(800) < 0.5).astype(np.int64)
    g2 = 1 - g1
    out = mann_whitney(
        _mk(pd.DataFrame({"v": v, "g1": g1, "g2": g2})), "v", "g1", "g2", num_bins
    )
    r1x2 = _brute_r1x2(v, g1)
    n1 = int(g1.sum())
    assert out.loc[0, "r1_times2"] == r1x2
    assert out.loc[0, "u1_times2"] == r1x2 - n1 * (n1 + 1)


@pytest.mark.parametrize("num_bins", [1, 64])
def test_gini_matches_brute(ray_session, num_bins):
    from climatemind_ontology_processing_ray.functions.stats import gini_counts

    rng = np.random.RandomState(3)
    counts = rng.zipf(1.7, size=500).clip(max=10_000).astype(np.int64)
    out = gini_counts(
        _mk(pd.DataFrame({"key": np.arange(500), "n": counts})), "n", num_bins
    )
    num, den = _brute_gini(counts)
    assert out.loc[0, "gini_num"] == num
    assert out.loc[0, "gini_den"] == den
    assert out.loc[0, "k"] == 500
    assert out.loc[0, "total"] == int(counts.sum())


def test_gini_uniform_and_degenerate(ray_session):
    from climatemind_ontology_processing_ray.functions.stats import gini_counts

    # all-equal counts -> gini_num = 2*tot*(k+1)/2 - (k+1)*tot = 0... verify
    eq = gini_counts(
        _mk(pd.DataFrame({"key": np.arange(40), "n": np.full(40, 5)})), "n", 8
    )
    assert eq.loc[0, "gini_num"] == 0  # perfectly uniform keys
    # single key owns everything among k=2
    one = gini_counts(
        _mk(pd.DataFrame({"key": [0, 1], "n": [0, 100]})), "n", 8
    )
    # sorted c = [0, 100]: num = 2*200 - 3*100 = 100, den = 200
    assert (one.loc[0, "gini_num"], one.loc[0, "gini_den"]) == (100, 200)


@pytest.mark.parametrize("num_bins", [1, 16, 2048])
def test_weighted_median_matches_brute(ray_session, num_bins):
    from climatemind_ontology_processing_ray.functions.stats import weighted_median

    rng = np.random.RandomState(19)
    g = rng.choice(["a", "b", "c"], size=600)
    v = np.round(rng.rand(600) * 40, 1)  # ties
    wt = rng.randint(1, 9, size=600).astype(np.int64)
    out = weighted_median(
        _mk(pd.DataFrame({"g": g, "v": v, "wt": wt})), "g", "v", "wt", num_bins
    )
    for grp in "abc":
        m = g == grp
        order = np.argsort(v[m], kind="mergesort")
        vs, ws = v[m][order], wt[m][order]
        cum = np.cumsum(ws)
        want = vs[int(np.searchsorted(2 * cum, cum[-1]))]
        got = float(out.loc[out["g"] == grp, "wmedian"].iloc[0])
        assert got == want, (grp, got, want)


def test_khop_per_source_driver_vs_distributed(ray_session):
    import ray.data as rd

    from climatemind_ontology_processing_ray.functions.graph_algo import (
        khop_per_source,
    )

    rng = np.random.RandomState(5)
    u = rng.randint(0, 60, size=150)
    v = rng.randint(0, 60, size=150)
    keep = u != v
    edges = pd.DataFrame({"subject": u[keep], "object": v[keep]})
    seeds = pd.DataFrame({"node": np.arange(0, 60, 7)})
    e_ds, s_ds = rd.from_pandas(edges).repartition(5), rd.from_pandas(seeds)

    def run(threshold):
        out = khop_per_source(e_ds, s_ds, 3, driver_threshold=threshold).to_pandas()
        out["start"] = out["start"].astype(int)
        return out.sort_values("start").reset_index(drop=True)

    drv, dist = run(10**9), run(0)
    pd.testing.assert_frame_equal(
        drv.astype({"n_reach": "int64", "dist_sum": "int64"}),
        dist.astype({"n_reach": "int64", "dist_sum": "int64"}),
    )

    # brute-force BFS check of the driver path
    adj: dict[int, set] = {}
    for a, b in zip(edges["subject"], edges["object"]):
        adj.setdefault(int(a), set()).add(int(b))
        adj.setdefault(int(b), set()).add(int(a))
    for s in seeds["node"]:
        dist_map = {int(s): 0}
        frontier = [int(s)]
        for d in (1, 2, 3):
            nxt = []
            for u2 in frontier:
                for nb in adj.get(u2, ()):
                    if nb not in dist_map:
                        dist_map[nb] = d
                        nxt.append(nb)
            frontier = nxt
        row = drv[drv["start"] == int(s)].iloc[0]
        assert row["n_reach"] == len(dist_map) - 1
        assert row["dist_sum"] == sum(dist_map.values())


@pytest.mark.parametrize("num_bins", [1, 32, 512])
def test_rank_permutation(ray_session, num_bins):
    from climatemind_ontology_processing_ray.functions.stats import rank_permutation

    rng = np.random.RandomState(23)
    v = rng.randint(0, 50, size=400).astype(np.float64)  # ties -> tiebreak col
    key = np.arange(400)
    rng.shuffle(key)
    df = pd.DataFrame({"v": v, "key": key})
    out = (
        rank_permutation(_mk(df), "v", "key", "r", num_bins)
        .to_pandas()
        .sort_values("key")
        .reset_index(drop=True)
    )
    want = df.sort_values(["v", "key"], kind="mergesort")
    want = want.assign(r=np.arange(1, len(want) + 1)).sort_values("key").reset_index(drop=True)
    assert (out["r"].to_numpy() == want["r"].to_numpy()).all()


@pytest.mark.parametrize("num_bins", [1, 8, 64])
def test_kendall_inversions_matches_brute(ray_session, num_bins):
    from climatemind_ontology_processing_ray.functions.stats import kendall_inversions

    rng = np.random.RandomState(31)
    n = 300
    ra = np.arange(1, n + 1)
    rb = rng.permutation(n) + 1
    df = pd.DataFrame({"ra": ra, "rb": rb})
    got = kendall_inversions(_mk(df), "ra", "rb", n, num_bins)
    order = np.argsort(ra)
    b = rb[order]
    brute = int(np.triu(b[:, None] > b[None, :], 1).sum())
    assert got == brute


def test_kendall_inversions_extremes(ray_session):
    from climatemind_ontology_processing_ray.functions.stats import kendall_inversions

    n = 100
    ra = np.arange(1, n + 1)
    same = pd.DataFrame({"ra": ra, "rb": ra})
    rev = pd.DataFrame({"ra": ra, "rb": ra[::-1]})
    assert kendall_inversions(_mk(same), "ra", "rb", n, 16) == 0
    assert kendall_inversions(_mk(rev), "ra", "rb", n, 16) == n * (n - 1) // 2


def test_power_iteration_matches_brute_and_numpy(ray_session):
    import ray.data as rd

    from climatemind_ontology_processing_ray.functions.linalg import (
        power_iteration_fixed,
    )

    rng = np.random.RandomState(47)
    # planted dominant direction + noise
    u = rng.randn(16)
    u /= np.linalg.norm(u)
    x = np.outer(rng.randn(300) * 3, u) + rng.randn(300, 16) * 0.3
    df = pd.DataFrame({"embedding": list(x.astype(np.float64))})

    out = power_iteration_fixed(
        rd.from_pandas(df).repartition(6), "embedding", 16,
        iters=4, quant=1024, scale=10_000,
    )

    # exact brute replication of the integer rule
    xi = np.floor(x * 1024 + 0.5).astype(object)
    v = np.full(16, 10_000, dtype=object)
    for _ in range(4):
        s = xi @ v
        w = xi.T @ s
        m = max(abs(int(a)) for a in w)
        v = np.array([((int(a) + m) * 10_000) // m - 10_000 for a in w], dtype=object)
    assert [int(c) for c in out["component"]] == [int(a) for a in v]

    # and it found the planted direction
    got = out["component"].to_numpy(dtype=np.float64)
    cos = abs(got @ u) / (np.linalg.norm(got) * np.linalg.norm(u))
    assert cos > 0.99

    # partitioning invariance
    out2 = power_iteration_fixed(
        rd.from_pandas(df).repartition(2), "embedding", 16,
        iters=4, quant=1024, scale=10_000,
    )
    assert (out2["component"].to_numpy() == out["component"].to_numpy()).all()


@pytest.mark.parametrize("num_bins", [1, 16, 2048])
def test_weighted_quantiles_matches_brute(ray_session, num_bins):
    from climatemind_ontology_processing_ray.functions.stats import (
        weighted_quantiles,
    )

    rng = np.random.RandomState(53)
    g = rng.choice(["a", "b"], size=500)
    v = np.round(rng.rand(500) * 20, 1)
    wt = rng.randint(1, 6, size=500).astype(np.int64)
    qs = [(1, 10), (1, 4), (1, 2), (3, 4), (9, 10)]
    out = weighted_quantiles(
        _mk(pd.DataFrame({"g": g, "v": v, "wt": wt})), "g", "v", "wt", qs, num_bins
    )
    for grp in "ab":
        m = g == grp
        order = np.argsort(v[m], kind="mergesort")
        vs, ws = v[m][order], wt[m][order]
        cum = np.cumsum(ws)
        for qn, qd in qs:
            want = vs[int(np.searchsorted(qd * cum, qn * cum[-1]))]
            got = out[
                (out["g"] == grp) & (out["qn"] == qn) & (out["qd"] == qd)
            ]["wq"].iloc[0]
            assert float(got) == want, (grp, qn, qd)


@pytest.mark.parametrize("num_bins", [1, 16, 1024])
def test_trimmed_sum_matches_brute(ray_session, num_bins):
    from climatemind_ontology_processing_ray.functions.stats import trimmed_sum

    rng = np.random.RandomState(61)
    g = rng.choice(["a", "b", "c"], size=700)
    c = rng.randint(-50, 5000, size=700).astype(np.int64)  # negatives too
    out = trimmed_sum(
        _mk(pd.DataFrame({"g": g, "c": c})), "g", "c", 1, 10, num_bins
    )
    for grp in "abc":
        vals = np.sort(c[g == grp])
        n = len(vals)
        k = n // 10
        want_sum = int(vals[k : n - k].sum())
        want_n = n - 2 * k
        row = out[out["g"] == grp].iloc[0]
        assert (int(row["trimmed_sum"]), int(row["n_kept"])) == (want_sum, want_n)


def test_trimmed_sum_degenerate_all_trimmed(ray_session):
    from climatemind_ontology_processing_ray.functions.stats import trimmed_sum

    # trim 1/2 from each side -> nothing kept
    out = trimmed_sum(
        _mk(pd.DataFrame({"g": ["a"] * 6, "c": list(range(6))})), "g", "c", 1, 2, 8
    )
    assert (int(out.loc[0, "trimmed_sum"]), int(out.loc[0, "n_kept"])) == (0, 0)


def test_average_hasher_roundtrip_and_bits(ray_session):
    import pyarrow as pa

    from climatemind_ontology_processing_ray.functions.codecs import encode_ppm
    from climatemind_ontology_processing_ray.functions.multimodal import (
        AverageHasher,
    )

    # a half-dark / half-bright image: bright cells set exactly the
    # bits of the right half (columns 4..7 of the 8x8 grid)
    img = np.zeros((16, 16, 3), dtype=np.uint8)
    img[:, 8:, :] = 200
    batch = pa.table({"doc_id": [1], "image": [encode_ppm(img)]})
    out = AverageHasher()(batch).to_pydict()
    val = (out["ahash_hi"][0] << 32) | out["ahash_lo"][0]
    want = 0
    for r in range(8):
        for c in range(4, 8):
            want |= 1 << (r * 8 + c)
    assert val == want

    # all-equal image: strict compare -> every bit clear
    flat = np.full((16, 16, 3), 77, dtype=np.uint8)
    batch = pa.table({"doc_id": [2], "image": [encode_ppm(flat)]})
    out = AverageHasher()(batch).to_pydict()
    assert (out["ahash_hi"][0], out["ahash_lo"][0]) == (0, 0)


def test_scene_cut_detector_planted_cuts(ray_session):
    import pyarrow as pa

    from climatemind_ontology_processing_ray.functions.codecs import encode_y4m
    from climatemind_ontology_processing_ray.functions.multimodal import (
        SceneCutDetector,
    )

    # 3 scenes of 4 frames: constant luma 10 / 200 / 10 -> exactly 2 cuts
    luma = np.concatenate(
        [
            np.full((4, 16, 16), 10, np.uint8),
            np.full((4, 16, 16), 200, np.uint8),
            np.full((4, 16, 16), 10, np.uint8),
        ]
    )
    batch = pa.table({"doc_id": [1], "video": [encode_y4m(luma)]})
    out = SceneCutDetector(threshold=1000)(batch).to_pydict()
    assert out["n_frames"][0] == 12
    assert out["n_cuts"][0] == 2
    assert out["max_delta"][0] == 190 * 256
