"""Skewed-distribution utilities for workload synthesis.

The paper's workloads are characterized by highly skewed block reference
distributions (Figures 5 and 7; "fewer than 2000 blocks absorbed all of the
requests, and the 100 hottest blocks absorbed about 90%", Section 5.4).
These helpers build bounded Zipf-like popularity vectors, sample from them
reproducibly, and measure skew the way the paper reports it (cumulative
share absorbed by the top-k items).
"""

from __future__ import annotations

import numpy as np


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalized Zipf(``exponent``) probabilities over ranks 1..n."""
    if n <= 0:
        raise ValueError("n must be positive")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def _run_length_p(mean: float, cap: int) -> float:
    if mean < 1:
        raise ValueError("mean run length must be at least 1")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    return 1.0 / mean


def geometric_run_length(rng: np.random.Generator, mean: float, cap: int) -> int:
    """A run length >= 1 with the given mean, capped at ``cap``."""
    return int(min(rng.geometric(_run_length_p(mean, cap)), cap))


def geometric_run_lengths(
    rng: np.random.Generator, mean: float, cap: int, size: int
) -> list[int]:
    """``size`` draws of :func:`geometric_run_length` in one numpy call.

    numpy fills the array one variate at a time with the sampler a
    scalar call uses, so the values and the generator's state afterwards
    are those of ``size`` scalar draws."""
    p = _run_length_p(mean, cap)
    return np.minimum(rng.geometric(p, size=size), cap).tolist()


def top_k_share(counts: list[int] | np.ndarray, k: int) -> float:
    """Fraction of all references absorbed by the ``k`` hottest items.

    ``counts`` need not be sorted; zeros are allowed.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    arr = np.asarray(counts, dtype=float)
    total = arr.sum()
    if total <= 0:
        return 0.0
    top = np.sort(arr)[::-1][:k]
    return float(top.sum() / total)


def sorted_counts(counts: dict[int, int]) -> list[int]:
    """Reference counts sorted descending — the Figure 5/7 curve."""
    return sorted(counts.values(), reverse=True)


def poisson_arrivals(
    rng: np.random.Generator,
    rate_per_ms: float,
    duration_ms: float,
    clump_mean: float = 1.0,
    clump_spread_ms: float = 200.0,
) -> list[float]:
    """Arrival times of a (possibly clumped) Poisson process.

    With ``clump_mean > 1`` the process is a Poisson cluster process:
    cluster centers arrive at ``rate / clump_mean`` and each center spawns a
    geometric number of arrivals spread over ``clump_spread_ms``.  This
    models the bursty multi-client request pattern the paper observed
    ("the request arrival pattern was very bursty", Section 5.2).
    """
    if rate_per_ms < 0:
        raise ValueError("rate must be non-negative")
    if duration_ms <= 0:
        raise ValueError("duration must be positive")
    if clump_mean < 1.0:
        raise ValueError("clump_mean must be at least 1")
    # The stream must stay that of one ``exponential(1 / center_rate)``
    # per center and one ``uniform(0, clump_spread_ms)`` per clump member
    # (the bench digests pin it).  Those equal ``scale *
    # standard_exponential()`` and ``spread * random()``, so a clump's
    # offsets come from one ``random(size)`` call; see docs/scaling.md,
    # "Workload generation", and tests/test_generation_equivalence.py.
    arrivals: list[float] = []
    center_rate = rate_per_ms / clump_mean
    if center_rate <= 0:
        return arrivals
    scale = 1.0 / center_rate
    exponential = rng.standard_exponential
    geometric = rng.geometric
    uniforms = rng.random
    p = 1.0 / clump_mean
    clumped = clump_mean > 1
    append = arrivals.append
    t = 0.0
    while True:
        t += scale * exponential()
        if t >= duration_ms:
            break
        if clumped:
            size = geometric(p)
            if size > 1:
                for u in uniforms(size).tolist():
                    when = t + clump_spread_ms * u
                    if when < duration_ms:
                        append(when)
                continue
        append(t)
    arrivals.sort()
    return arrivals
