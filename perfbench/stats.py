"""Percentile helper for the benchmark's timings.

Every timing is reported as its median plus the highest percentile that
still has at least ten samples beyond it, together with the sample
count: 500 samples support p98 (ten beyond), 1000 support p99, 10000
support p99.9.  A smaller sample supports no tail percentile at all, and
the summary says so instead of inventing one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

#: Candidate tail levels in hundredths of a percent, highest first.
TAIL_LEVELS_BP = (9999, 9995, 9990, 9980, 9950, 9900, 9800, 9500, 9000,
                  7500)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def _rank(n: int, level_bp: int) -> int:
    """1-based nearest rank of the *level_bp* / 100 percentile of *n*."""
    return max(1, -(-n * level_bp // 10_000))


def percentile(sorted_values: Sequence[float], level_bp: int) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sample."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    return sorted_values[_rank(len(sorted_values), level_bp) - 1]


def tail_level_bp(n: int) -> Optional[int]:
    """Highest candidate level with at least :data:`MIN_BEYOND` beyond it."""
    for level in TAIL_LEVELS_BP:
        if n - _rank(n, level) >= MIN_BEYOND:
            return level
    return None


def level_name(level_bp: int) -> str:
    """``9800`` -> ``"p98"``, ``9990`` -> ``"p99.9"``."""
    whole, frac = divmod(level_bp, 100)
    return f"p{whole}" if frac == 0 else f"p{whole}.{frac:02d}".rstrip("0")


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, supported tail percentile and count of *values*."""
    ordered: List[float] = sorted(values)
    if not ordered:
        return {"n": 0, "p50": None, "tail": None, "tail_value": None}
    level = tail_level_bp(len(ordered))
    return {"n": len(ordered),
            "p50": percentile(ordered, 5000),
            "tail": level_name(level) if level is not None else None,
            "tail_value": (percentile(ordered, level)
                           if level is not None else None)}


def describe(name: str, unit: str, values: Sequence[float]) -> str:
    """One human-readable line: ``name: p50 X unit, p98 Y unit (n=500)``."""
    summary = summarize(values)
    if not summary["n"]:
        return f"{name}: no samples"
    text = f"{name}: p50 {summary['p50']:.3f} {unit}"
    if summary["tail"] is not None:
        text += f", {summary['tail']} {summary['tail_value']:.3f} {unit}"
    return text + f" (n={summary['n']})"
