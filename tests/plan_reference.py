"""The supports of the r >= 1 sweep, the reference the plan tests
recompute the schedule facts of build_sweep_plan_rn from."""


def band_sets(s: int, t: int, r: int) -> frozenset:
    """The off-diagonal positions between rows s and t whose jump is
    small enough to matter at order r: pairs (j,k) with s <= j < k <= t
    and (t-s) - (k-j) >= r-1."""
    if not (1 <= s < t) or r < 1:
        raise ValueError(f"band_sets needs 1 <= s < t and r >= 1, got ({s},{t},{r})")
    return frozenset((j, k) for j in range(s, t + 1)
                     for k in range(j + 1, t + 1)
                     if (t - s) - (k - j) >= r - 1)
