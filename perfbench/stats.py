"""Small statistics helpers shared by the benchmark."""

import statistics


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, p):
    """The p-th percentile (0..100), linear between closest ranks."""
    if not values:
        return 0.0
    s = sorted(values)
    k = (len(s) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def hypervolume_2d(points, reference=(100.0, 100.0)):
    """Area dominated by `points` (minimized pairs) up to `reference`."""
    front, best_y = [], float("inf")
    for x, y in sorted(p for p in points if p[0] < reference[0] and p[1] < reference[1]):
        if y < best_y:
            front.append((x, y))
            best_y = y
    area = 0.0
    for i, (x, y) in enumerate(front):
        next_x = front[i + 1][0] if i + 1 < len(front) else reference[0]
        area += (next_x - x) * (reference[1] - y)
    return area


def summary(values):
    """Median, quartiles and sample count of one metric's samples."""
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}
