"""The bucket-and-balls security model (Section IV-A, Fig. 5).

Buckets are tag-store sets, balls are valid tag entries, and a ball
throw is a fill.  Maya's model distinguishes priority-0 balls
(tag-only entries) from priority-1 balls (tag + data).  Each iteration
performs the paper's three access types:

* **demand tag miss** - a priority-0 ball is thrown with load-aware
  skew selection, then a random priority-0 ball anywhere is removed
  (global random tag eviction);
* **demand/writeback tag hit** - a random priority-0 ball upgrades to
  priority-1 while a random priority-1 ball downgrades (global random
  data eviction); bucket totals are unchanged;
* **writeback tag miss** - a priority-1 ball is thrown load-aware, a
  random priority-1 ball downgrades, and a random priority-0 ball is
  removed.

A *bucket spill* - both candidate buckets at capacity - is a
set-associative eviction (SAE), the security event the design must
make astronomically rare.  The model tracks spills (Fig. 6) and the
time-averaged bucket-occupancy distribution ``Pr(n = N)`` (Fig. 7,
and the seed for the analytical model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..common.config import MayaConfig
from ..common.errors import ConfigurationError
from ..common.rng import make_rng


@dataclass(frozen=True)
class BucketModelConfig:
    """Parameters of the model (Table II defaults, scaled by ``buckets_per_skew``).

    ``bucket_capacity`` is the tag ways per skew; ``None`` models
    unlimited buckets (the spill-free scenario behind the analytical
    model).
    """

    skews: int = 2
    buckets_per_skew: int = 16384
    avg_priority0_per_bucket: int = 3  # reuse ways per skew
    avg_priority1_per_bucket: int = 6  # base ways per skew
    bucket_capacity: Optional[int] = 15
    #: "load_aware" (the paper's policy) or "random" (the insecure
    #: alternative used by CEASER-S/Scatter-Cache; ablation only).
    skew_policy: str = "load_aware"
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.skews < 2:
            raise ConfigurationError("the model needs at least two skews")
        if self.skew_policy not in ("load_aware", "random"):
            raise ConfigurationError(f"unknown skew policy {self.skew_policy!r}")
        if self.buckets_per_skew <= 0:
            raise ConfigurationError("need a positive bucket count")
        if self.avg_priority0_per_bucket <= 0 or self.avg_priority1_per_bucket <= 0:
            raise ConfigurationError("need positive ball densities")
        if self.bucket_capacity is not None and self.bucket_capacity < (
            self.avg_priority0_per_bucket + self.avg_priority1_per_bucket
        ):
            raise ConfigurationError("capacity below the average load can never reach steady state")

    @classmethod
    def from_maya(cls, config: MayaConfig, seed: Optional[int] = None) -> "BucketModelConfig":
        """Model parameters matching a Maya cache configuration."""
        return cls(
            skews=config.skews,
            buckets_per_skew=config.sets_per_skew,
            avg_priority0_per_bucket=config.reuse_ways_per_skew,
            avg_priority1_per_bucket=config.base_ways_per_skew,
            bucket_capacity=config.ways_per_skew,
            seed=seed,
        )

    @property
    def total_buckets(self) -> int:
        return self.skews * self.buckets_per_skew

    @property
    def total_priority0(self) -> int:
        return self.total_buckets * self.avg_priority0_per_bucket

    @property
    def total_priority1(self) -> int:
        return self.total_buckets * self.avg_priority1_per_bucket

    @property
    def average_load(self) -> int:
        return self.avg_priority0_per_bucket + self.avg_priority1_per_bucket


@dataclass
class BucketModelResult:
    """Aggregated outcome of a run."""

    iterations: int
    throws: int
    spills: int
    occupancy_probability: Dict[int, float]

    @property
    def iterations_per_spill(self) -> float:
        return self.iterations / self.spills if self.spills else float("inf")


class BucketAndBallsModel:
    """Executable bucket-and-balls simulation."""

    def __init__(self, config: Optional[BucketModelConfig] = None):
        self.config = config or BucketModelConfig()
        cfg = self.config
        self._rng = make_rng(cfg.seed)
        n = cfg.total_buckets
        self._p0_count = [0] * n
        self._p1_count = [0] * n
        self._total = [0] * n
        # Ball pools: one bucket id per ball, random removal by index.
        self._p0_balls: List[int] = []
        self._p1_balls: List[int] = []
        # Incremental count-of-counts histogram: hist[k] = #buckets with k balls.
        max_n = (cfg.bucket_capacity or cfg.average_load * 4) + 2
        self._hist = [0] * (max_n + 1)
        self._hist[0] = n
        self._hist_accum = [0.0] * (max_n + 1)
        self._samples = 0
        self.spills = 0
        self.throws = 0
        self.iterations_run = 0
        self._initialize()

    # -- setup ------------------------------------------------------------

    def _initialize(self) -> None:
        """Pre-load buckets with the steady-state ball mix (Section IV-A).

        The paper initializes buckets to the steady state so the model
        is in the attacker's best case immediately.
        """
        cfg = self.config
        for bucket in range(cfg.total_buckets):
            for _ in range(cfg.avg_priority0_per_bucket):
                self._add_ball(bucket, priority0=True)
            for _ in range(cfg.avg_priority1_per_bucket):
                self._add_ball(bucket, priority0=False)

    # -- primitive ball operations ----------------------------------------

    def _add_ball(self, bucket: int, priority0: bool) -> None:
        self._hist[self._total[bucket]] -= 1
        self._total[bucket] += 1
        self._hist[self._total[bucket]] += 1
        if priority0:
            self._p0_count[bucket] += 1
            self._p0_balls.append(bucket)
        else:
            self._p1_count[bucket] += 1
            self._p1_balls.append(bucket)

    def _remove_random(self, balls: List[int], counts: List[int]) -> int:
        idx = self._rng.randrange(len(balls))
        bucket = balls[idx]
        last = balls.pop()
        if idx < len(balls):
            balls[idx] = last
        counts[bucket] -= 1
        self._hist[self._total[bucket]] -= 1
        self._total[bucket] -= 1
        self._hist[self._total[bucket]] += 1
        return bucket

    def _remove_from_bucket(self, bucket: int, priority0: bool) -> None:
        """Targeted removal (spill handling only, so the scan is fine)."""
        balls = self._p0_balls if priority0 else self._p1_balls
        counts = self._p0_count if priority0 else self._p1_count
        idx = balls.index(bucket)
        last = balls.pop()
        if idx < len(balls):
            balls[idx] = last
        counts[bucket] -= 1
        self._hist[self._total[bucket]] -= 1
        self._total[bucket] -= 1
        self._hist[self._total[bucket]] += 1

    def _pick_target_bucket(self) -> int:
        """Skew selection over one random candidate bucket per skew.

        Load-aware picks the emptier candidate (ties break randomly);
        the "random" ablation picks a uniformly random skew, which is
        what lets imbalance build up and spills happen much sooner.
        """
        cfg = self.config
        if cfg.skew_policy == "random":
            skew = self._rng.randrange(cfg.skews)
            return skew * cfg.buckets_per_skew + self._rng.randrange(cfg.buckets_per_skew)
        best_bucket = -1
        best_load = -1
        start = 0
        for skew in range(cfg.skews):
            bucket = start + self._rng.randrange(cfg.buckets_per_skew)
            load = self._total[bucket]
            if best_bucket < 0 or load < best_load or (load == best_load and self._rng.random() < 0.5):
                best_bucket, best_load = bucket, load
            start += cfg.buckets_per_skew
        return best_bucket

    def _throw(self, priority0: bool) -> Optional[bool]:
        """One load-aware ball throw, spilling if the target is full.

        Returns the priority of the spill victim (``True`` = a
        priority-0 ball was removed, ``False`` = priority-1), or
        ``None`` when no spill happened.
        """
        cfg = self.config
        bucket = self._pick_target_bucket()
        self.throws += 1
        spilled: Optional[bool] = None
        if cfg.bucket_capacity is not None and self._total[bucket] >= cfg.bucket_capacity:
            # Both candidates at capacity (the chosen one is the emptier).
            self.spills += 1
            spilled = self._p0_count[bucket] > 0
            self._remove_from_bucket(bucket, priority0=spilled)
        self._add_ball(bucket, priority0)
        return spilled

    # -- the three access types (Fig. 5) -------------------------------------
    #
    # On the (astronomically rare) spill, the spill victim substitutes
    # for the paired global eviction so that the total priority-0 and
    # priority-1 ball populations stay exactly at their steady-state
    # values - mirroring how the real cache keeps its entry-type counts
    # constant (Section III-A).

    def demand_tag_miss(self) -> None:
        """Fig. 5(a): throw priority-0; global random tag eviction."""
        spilled = self._throw(priority0=True)
        if spilled is None:
            self._remove_random(self._p0_balls, self._p0_count)
        elif spilled is False:
            # The spill removed a priority-1 ball: restore the balance by
            # upgrading a random priority-0 ball in its place.
            bucket_up = self._remove_random(self._p0_balls, self._p0_count)
            self._add_ball(bucket_up, priority0=False)

    def tag_hit(self) -> None:
        """Fig. 5(b): upgrade a random p0 ball; downgrade a random p1 ball."""
        bucket_up = self._remove_random(self._p0_balls, self._p0_count)
        self._add_ball(bucket_up, priority0=False)
        bucket_down = self._remove_random(self._p1_balls, self._p1_count)
        self._add_ball(bucket_down, priority0=True)

    def writeback_tag_miss(self) -> None:
        """Fig. 5(c): throw priority-1; downgrade random p1; evict random p0."""
        spilled = self._throw(priority0=False)
        if spilled is None:
            bucket_down = self._remove_random(self._p1_balls, self._p1_count)
            self._add_ball(bucket_down, priority0=True)
            self._remove_random(self._p0_balls, self._p0_count)
        elif spilled is True:
            # The spill already removed a priority-0 ball; the downgrade
            # replenishes priority-0 and drains the thrown priority-1.
            bucket_down = self._remove_random(self._p1_balls, self._p1_count)
            self._add_ball(bucket_down, priority0=True)
        # spilled is False: the spill victim replaced both the downgrade
        # and the global priority-0 eviction.

    # -- driving ---------------------------------------------------------------

    def run(self, iterations: int, sample_every: int = 1) -> BucketModelResult:
        """Run ``iterations`` x the three access types; returns aggregates.

        ``sample_every`` controls how often the occupancy histogram is
        accumulated into the time-averaged distribution (1 = every
        iteration; sampling is O(max occupancy) so this is cheap).
        """
        for i in range(iterations):
            self.demand_tag_miss()
            self.tag_hit()
            self.writeback_tag_miss()
            self.iterations_run += 1
            if i % sample_every == 0:
                for k, count in enumerate(self._hist):
                    self._hist_accum[k] += count
                self._samples += 1
        return self.result()

    def result(self) -> BucketModelResult:
        total = self.config.total_buckets * max(1, self._samples)
        distribution = {
            k: accum / total for k, accum in enumerate(self._hist_accum) if accum > 0
        }
        return BucketModelResult(
            iterations=self.iterations_run,
            throws=self.throws,
            spills=self.spills,
            occupancy_probability=distribution,
        )

    # -- inspection -----------------------------------------------------------

    def occupancy_snapshot(self) -> Dict[int, int]:
        """Instantaneous count-of-counts histogram."""
        return {k: v for k, v in enumerate(self._hist) if v}

    def check_invariants(self) -> None:
        cfg = self.config
        if len(self._p0_balls) != cfg.total_priority0:
            raise AssertionError("priority-0 ball count drifted")
        if len(self._p1_balls) != cfg.total_priority1:
            raise AssertionError("priority-1 ball count drifted")
        if sum(self._total) != cfg.total_priority0 + cfg.total_priority1:
            raise AssertionError("total ball count drifted")
        if sum(self._hist) != cfg.total_buckets:
            raise AssertionError("histogram bucket count drifted")
        for bucket in range(cfg.total_buckets):
            if self._p0_count[bucket] + self._p1_count[bucket] != self._total[bucket]:
                raise AssertionError(f"bucket {bucket} per-type counts disagree with total")
            if cfg.bucket_capacity is not None and self._total[bucket] > cfg.bucket_capacity:
                raise AssertionError(f"bucket {bucket} above capacity")
