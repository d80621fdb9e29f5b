"""Scaling harness for the block structure build and the block search.

The structure builds of all problem sizes are timed first, in rounds
that build every size once, so a slow phase of the host hits all sizes
alike instead of skewing their ratios. Then, for each size: answer one
fixed-radius query per subdomain center with a single ``join_pairs``
(timed after an untimed warm-up join that builds the run table, with
candidate counts), time the brute-force scan on a query subsample, and
check the join's rows, each put in brute force's (distance, index)
order, against brute force on another subsample.
"""

from __future__ import annotations

import time

import numpy as np

from .blockpart import blocks_per_side, brute_force_range_search, build, join_pairs
from .geometry import convex_hull, halton
from .pum import subdomain_grid


def run_search_benchmark(
    sizes,
    dim: int = 2,
    build_repeats: int = 3,
    brute_sample: int = 200,
    check_sample: int = 1000,
) -> dict:
    """Benchmark rows per size plus consecutive-size time ratios."""
    cases = []
    for n in sizes:
        pts = halton(int(n), dim)
        dom = convex_hull(pts)
        _, centers, delta = subdomain_grid(dom, len(pts))
        cases.append((pts, dom, centers, delta, blocks_per_side(dom.box.edge, delta)))

    t_builds = [np.inf] * len(cases)
    for _ in range(build_repeats):
        for k, (pts, dom, _, _, q) in enumerate(cases):
            t0 = time.perf_counter()
            build(pts, dom.box, q)
            t_builds[k] = min(t_builds[k], time.perf_counter() - t0)

    rows = []
    for (pts, dom, centers, delta, q), t_build in zip(cases, t_builds):
        bs = build(pts, dom.box, q)

        join_pairs(bs, centers[:1], delta)  # builds the run table, untimed
        t0 = time.perf_counter()
        found = join_pairs(bs, centers, delta)
        t_search = time.perf_counter() - t0

        stride = max(1, len(centers) // brute_sample)
        brute_queries = centers[::stride][:brute_sample]
        t0 = time.perf_counter()
        for c in brute_queries:
            brute_force_range_search(pts.coords, c, delta)
        t_brute = time.perf_counter() - t0

        stride = max(1, len(centers) // check_sample)
        # the join groups its hits by ascending row
        indptr = np.searchsorted(found.rows, np.arange(len(centers) + 1))
        mismatches = 0
        for i in range(0, len(centers), stride)[:check_sample]:
            indices = found.indices[indptr[i] : indptr[i + 1]]
            distances = found.distances[indptr[i] : indptr[i + 1]]
            order = np.lexsort((indices, distances))
            want = brute_force_range_search(pts.coords, centers[i], delta)
            if not (
                np.array_equal(indices[order], want.indices) and np.array_equal(distances[order], want.distances)
            ):
                mismatches += 1

        rows.append(
            {
                "n": len(pts),
                "dim": dim,
                "q": q,
                "delta": delta,
                "n_queries": len(centers),
                "t_build_s": t_build,
                "t_search_total_s": t_search,
                "t_search_per_query_s": t_search / len(centers),
                "cand_mean": found.candidates / len(centers),
                "t_brute_per_query_s": t_brute / len(brute_queries),
                "brute_mismatches": mismatches,
            }
        )

    def ratios(key):
        vals = [r[key] for r in rows]
        return [vals[i + 1] / vals[i] if vals[i] > 0 else float("inf") for i in range(len(vals) - 1)]

    return {
        "rows": rows,
        "build_time_ratios": ratios("t_build_s"),
        "search_time_ratios": ratios("t_search_total_s"),
        "per_query_time_ratios": ratios("t_search_per_query_s"),
    }
