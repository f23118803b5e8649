"""``repro-spc analyze`` — workload analytics over a ``/stats`` payload.

Renders the server's Space-Saving ``top_pairs`` block (see
:class:`repro.obs.sketch.SpaceSaving`) as an operator report: the
hot-pair table with per-key error bounds, a skew summary (what share
of all queries the tracked heavy hitters account for), the
and the cache-efficiency attribution split between heavy hitters and
the tail.  :func:`render_analysis` is a pure function of the payload, so
tests drive it with fixture dicts and the CLI just fetches and prints.
"""

from __future__ import annotations

from typing import List

__all__ = ["render_analysis"]


def _fmt_share(count: float, total: float) -> str:
    return f"{count / total * 100:6.2f}%" if total else "   n/a "


def _pair_label(pair) -> str:
    if isinstance(pair, (list, tuple)) and len(pair) == 2:
        return f"({pair[0]}, {pair[1]})"
    return repr(pair)


def _attribution_lines(attribution: dict) -> List[str]:
    lines = ["cache efficiency by workload class:"]
    for side, label in (("hot", "heavy hitters"), ("tail", "tail")):
        block = attribution.get(side) or {}
        hits = block.get("hits", 0)
        misses = block.get("misses", 0)
        seen = hits + misses
        rate = block.get(
            "hit_rate", hits / seen if seen else 0.0
        )
        lines.append(
            f"  {label:<14} lookups {seen:>8}  hits {hits:>8}"
            f"  hit-rate {rate * 100:6.2f}%"
        )
    hot = attribution.get("hot") or {}
    tail = attribution.get("tail") or {}
    hot_seen = hot.get("hits", 0) + hot.get("misses", 0)
    tail_seen = tail.get("hits", 0) + tail.get("misses", 0)
    if hot_seen and tail_seen:
        hot_rate = hot.get("hit_rate", hot.get("hits", 0) / hot_seen)
        tail_rate = tail.get(
            "hit_rate", tail.get("hits", 0) / tail_seen
        )
        if hot_rate < tail_rate:
            lines.append(
                "  note: heavy hitters hit the cache *less* than the "
                "tail — the cache may be too small for the hot set, or "
                "the workload shifted inside the window"
            )
    return lines


def render_analysis(stats: dict, *, top_n: int = 20) -> str:
    """One analytics report from a ``/stats`` payload (pure function)."""
    lines: List[str] = []
    block = stats.get("top_pairs")
    title = "repro-spc analyze"
    lines.append(title)
    lines.append("=" * len(title))
    if not isinstance(block, dict):
        lines.append(
            "no workload analytics in this /stats payload — the server "
            "was started with top_pairs_capacity=0 (--top-pairs 0)"
        )
        return "\n".join(lines) + "\n"
    sketch = block.get("sketch") or {}
    total = sketch.get("total", 0)
    capacity = sketch.get("capacity", 0)
    top = block.get("top") or []
    lines.append(
        f"workload: {total} query-pair observations; sketch tracks up "
        f"to {capacity} pairs (error bound <= total/capacity = "
        f"{total / capacity if capacity else 0:.1f})"
    )
    lines.append("")
    shown = top[:top_n]
    if shown:
        covered = sum(entry.get("count", 0) for entry in shown)
        lines.append(
            f"top {len(shown)} pairs ({_fmt_share(covered, total).strip()}"
            " of all observations):"
        )
        lines.append(
            "  rank  pair                 count     share  over-count <="
        )
        for rank, entry in enumerate(shown, start=1):
            lines.append(
                f"  {rank:>4}  {_pair_label(entry.get('pair')):<18}"
                f"  {entry.get('count', 0):>8}"
                f"  {_fmt_share(entry.get('count', 0), total)}"
                f"  {entry.get('error', 0):>12}"
            )
        top_share = covered / total if total else 0.0
        skew = (
            "heavy-tailed (a result cache pays for itself)"
            if top_share >= 0.2
            else "near-uniform (caching buys little; rely on batching)"
        )
        lines.append("")
        lines.append(
            f"skew: top {len(shown)} pairs cover "
            f"{top_share * 100:.1f}% of the workload — {skew}"
        )
    else:
        lines.append("no pairs observed yet")
    attribution = block.get("cache_attribution")
    if isinstance(attribution, dict):
        lines.append("")
        lines.extend(_attribution_lines(attribution))
    return "\n".join(lines) + "\n"
