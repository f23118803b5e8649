"""Exp-5 — Fig. 14: index sizes (32-bit label entry model).

Paper shape: TL-Index is the largest (on average 3.7x CTL-Index and
2.35x CTLS-Index); CTLS-Index is larger than CTL-Index because of
shortcut-driven wider cuts.

Beside the modelled ``index_bytes_*`` records, ``arena_bytes_*``
records the packed label arena's real bytes (``LabelArena.nbytes()``),
so ``bench-report`` fails if the stored label widths grow again.
"""

import pytest

from repro.bench.experiments import exp5_index_size
from repro.bench.report import render_exp5

from conftest import BENCH_DATASETS


@pytest.mark.parametrize("dataset", BENCH_DATASETS)
def test_index_size_measurement(benchmark, cache, dataset):
    def measure():
        return {
            alg: cache.get(dataset, alg).size_bytes()
            for alg in ("TL", "CTL", "CTLS")
        }

    sizes = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info.update(sizes)
    assert all(size > 0 for size in sizes.values())


def test_fig14_summary(benchmark, cache, capsys, perf):
    """Print Fig. 14 and check the paper's size ordering."""
    rows = benchmark.pedantic(
        lambda: exp5_index_size(datasets=BENCH_DATASETS, cache=cache),
        rounds=1,
        iterations=1,
    )
    with capsys.disabled():
        print("\n\nExp-5 (Fig. 14): index size")
        print(render_exp5(rows))
    # Byte sizes are deterministic per build, so these records are
    # portable: any drift is a real index-layout change, not noise.
    for row in rows:
        perf.record(
            f"index_bytes_{row.algorithm}",
            [row.size_bytes],
            unit="bytes",
            direction="lower",
            dataset=row.dataset,
        )
        perf.record(
            f"arena_bytes_{row.algorithm}",
            [cache.get(row.dataset, row.algorithm).arena.nbytes()],
            unit="bytes",
            direction="lower",
            dataset=row.dataset,
        )

    # The paper's size gap (TL 3.7x CTL, 2.35x CTLS) grows with graph
    # scale; on our scaled-down datasets it emerges at the top of the
    # tier, so the ordering is asserted on the largest dataset only.
    largest = BENCH_DATASETS[-1]
    by_alg = {r.algorithm: r.size_bytes for r in rows if r.dataset == largest}
    assert by_alg["TL"] > by_alg["CTL"], largest
    assert by_alg["TL"] > by_alg["CTLS"], largest

    # The within-family ordering holds at every scale: CTLS-Index pays
    # for its shortcuts with wider cuts, so it is never smaller than CTL.
    for dataset in BENCH_DATASETS:
        sizes = {r.algorithm: r.size_bytes for r in rows if r.dataset == dataset}
        assert sizes["CTLS"] >= sizes["CTL"], dataset
