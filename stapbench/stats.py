"""Statistics the benchmark reports: medians, tail percentiles, ratios."""

import math
import statistics

# The tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10
# Samples per block in block_tail().
TAIL_BLOCK = 100


def median(values):
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values, beyond=TAIL_BEYOND):
    """The highest whole percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample_count). The value is the
    nearest-rank order statistic: the ceil(p/100 * n)-th smallest sample,
    which leaves n - ceil(p/100 * n) >= `beyond` samples beyond it.
    Raises ValueError when there are too few samples for any percentile.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(
            f"{n} samples cannot leave {beyond} beyond any percentile")
    ordered = sorted(values)
    p = math.floor(100 * (n - beyond) / n)
    while p > 0 and n - math.ceil(p * n / 100) < beyond:
        p -= 1
    if p <= 0:
        raise ValueError(f"no percentile of {n} samples leaves {beyond} beyond")
    rank = math.ceil(p * n / 100)
    return ordered[rank - 1], p, n


def block_tail(values, block=TAIL_BLOCK, beyond=TAIL_BEYOND):
    """The median over blocks of consecutive samples of each block's tail().

    The samples are cut, in order, into len(values) // block blocks of
    near-equal size (one block when there are fewer than 2 * block), so
    each block holds at least `block` samples when there are that many. A
    few rare stalls then move one block's tail, not the reported figure.
    Returns (value, percentiles, block_count, sample_count), where
    `percentiles` is the sorted set of per-block percentiles.
    """
    n = len(values)
    count = max(1, n // block)
    bounds = [n * i // count for i in range(count + 1)]
    tails = [tail(values[lo:hi], beyond)
             for lo, hi in zip(bounds, bounds[1:])]
    return (median([t[0] for t in tails]), sorted({t[1] for t in tails}),
            count, n)


def ratio(part, base):
    """part / base, raising on an empty or zero base so no ratio is silent."""
    if not base:
        raise ValueError(f"ratio with zero base (part {part})")
    return part / base


def relative_gap(value, base):
    """|value - base| / base: how far a decomposition misses its total."""
    return ratio(abs(value - base), base)


def spread(values):
    """Interquartile range over median, as the benchmark's steadiness test
    computes it with statistics.quantiles(values, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)
