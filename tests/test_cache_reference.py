"""The set-associative cache against a from-scratch reference, in lockstep.

``SetAssociativeCache`` caches the active tenant's set slice and ASID color
at every switch and partition change, indexes a block at ``base + block %
count`` and matches it on ``block ^ color`` through a resident-line
directory.  The reference here shares none of that code: it recomputes the
slice from the partition map and the color from the ASID on every call,
keeps each set as a recency-ordered list (true LRU) and scans it.

Hypothesis draws fills, accesses, ``contains`` probes, ASID switches
(including colors wider than 64 bits), partition maps -- among them maps
with more tenants than the level has sets, which fall back to tagged
sharing -- and whole-level invalidations, on levels of 1, 2 and 4 sets
(slices of 3 sets index modulo a non-power of two).  After every step both
must agree on the result, the resident blocks of every set in recency order,
the partition report and the counters.  No numpy.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.common.asid import ASID_SALT, ASID_SHIFT
from repro.common.config import CacheConfig, partition_set_counts
from repro.common.stats import Stats
from repro.memory.cache import CacheAccessResult, SetAssociativeCache

LINE = 64

#: ASIDs, including ones whose color constant exceeds 64 bits.
ASIDS = (0, 1, 2, 5, 1_000_003)

#: Partition maps; the wider ones exceed the smaller levels' sets.
PARTITIONS = (None, (1,), (1, 1), (3, 1), (1, 2, 1), (1, 1, 1, 1), (2, 1, 1, 1, 1, 1))

#: Block numbers: a dense run that shares sets, plus far blocks whose high
#: bits differ.
BLOCKS = tuple(range(24)) + tuple((1 << 30) + k for k in range(6))

OPS = st.one_of(
    st.tuples(st.sampled_from(("access", "fill", "contains")), st.sampled_from(BLOCKS)),
    st.tuples(st.just("asid"), st.sampled_from(ASIDS)),
    st.tuples(st.just("partition"), st.sampled_from(PARTITIONS)),
    st.tuples(st.just("invalidate")),
)


class ReferenceCache:
    """Index ``base + block % count``, tag ``block ^ color``, true LRU by list order.

    Its operations carry the cache's names, so one operation applies to both.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.asid = 0
        self.ranges = None
        # Per set, [tag, block] pairs from least to most recently used.
        self.sets = [[] for _ in range(num_sets)]
        self.counts = {"accesses": 0, "hits": 0, "misses": 0, "fills": 0, "evictions": 0}

    def _locate(self, addr):
        block = addr // LINE
        if self.ranges is None:
            base, count = 0, self.num_sets
        else:
            base, count = self.ranges[self.asid % len(self.ranges)]
        color = (self.asid * ASID_SALT) << ASID_SHIFT
        return self.sets[base + block % count], block ^ color, block

    @staticmethod
    def _find(lines, tag):
        return next((line for line in lines if line[0] == tag), None)

    def access(self, addr):
        lines, tag, _ = self._locate(addr)
        self.counts["accesses"] += 1
        line = self._find(lines, tag)
        if line is None:
            self.counts["misses"] += 1
            return CacheAccessResult(hit=False)
        self.counts["hits"] += 1
        lines.remove(line)
        lines.append(line)
        return CacheAccessResult(hit=True)

    def fill(self, addr):
        lines, tag, block = self._locate(addr)
        line = self._find(lines, tag)
        if line is not None:
            lines.remove(line)
            lines.append(line)
            return None
        evicted = None
        if len(lines) == self.ways:
            evicted = lines.pop(0)[1] * LINE
            self.counts["evictions"] += 1
        lines.append([tag, block])
        self.counts["fills"] += 1
        return evicted

    def contains(self, addr):
        lines, tag, _ = self._locate(addr)
        return self._find(lines, tag) is not None

    def set_active_asid(self, asid):
        self.asid = asid

    def configure_partitions(self, weights):
        old = self.ranges
        self.ranges = None
        if weights is not None and self.num_sets >= len(weights):
            self.ranges, base = [], 0
            for count in partition_set_counts(self.num_sets, weights):
                self.ranges.append((base, count))
                base += count
        if old is not None or self.ranges is not None:
            self.invalidate_all()

    def invalidate_all(self):
        self.sets = [[] for _ in range(self.num_sets)]

    def observable(self):
        report = None if self.ranges is None else [count for _, count in self.ranges]
        return [[block for _, block in lines] for lines in self.sets], report, self.counts


def _observable(cache: SetAssociativeCache, stats: Stats):
    resident = []
    for index in range(cache.num_sets):
        lines, lru = cache._sets[index], cache._lru[index]
        order = [] if lines is None else lru.recency_order()[-len(lines):]
        resident.append([lines[way].block for way in order])
    prefix = "cache.t."
    counts = {
        "accesses": stats.get(prefix + "accesses.read"),
        "hits": stats.get(prefix + "hits.read"),
        "misses": stats.get(prefix + "misses.read"),
        "fills": stats.get(prefix + "fills"),
        "evictions": stats.get(prefix + "evictions"),
    }
    return resident, cache.partition_set_counts(), counts


def _apply(target, op):
    kind = op[0]
    if kind in ("access", "fill", "contains"):
        return getattr(target, kind)(op[1] * LINE + 7)
    if kind == "asid":
        target.set_active_asid(op[1])
    elif kind == "partition":
        target.configure_partitions(op[1])
    else:
        target.invalidate_all()
    return None


@settings(max_examples=200, deadline=None)
@given(
    sets=st.sampled_from((1, 2, 4)),
    ways=st.sampled_from((1, 2, 4)),
    ops=st.lists(OPS, max_size=150),
)
def test_cache_matches_scratch_reference(sets, ways, ops):
    stats = Stats()
    cache = SetAssociativeCache(
        CacheConfig("T", sets * ways * LINE, ways, line_size=LINE, hit_latency=1), stats
    )
    reference = ReferenceCache(sets, ways)
    # A closing burst that overflows every set of every slice.
    burst = [("fill", block) for block in BLOCKS] + [("access", block) for block in BLOCKS]
    for op in (*ops, *burst):
        assert _apply(cache, op) == _apply(reference, op), op
        assert _observable(cache, stats) == reference.observable(), op
    if sets * ways < len(BLOCKS):
        assert reference.counts["evictions"] > 0


def test_the_reference_sees_the_fallback_and_the_colors():
    """Pinned paths: a too-small map stays shared, and a tagged line never crosses."""
    stats = Stats()
    cache = SetAssociativeCache(CacheConfig("T", 2 * LINE, 1, line_size=LINE, hit_latency=1), stats)
    reference = ReferenceCache(2, 1)
    ops = [
        ("fill", 3),
        ("partition", (1, 1, 1)),
        ("contains", 3),
        ("asid", 1_000_003),
        ("access", 3),
        ("fill", 3),
        ("asid", 0),
        ("access", 3),
        ("partition", (1, 1)),
        ("contains", 3),
    ]
    results = [_apply(reference, op) for op in ops]
    assert [_apply(cache, op) for op in ops] == results
    miss = CacheAccessResult(hit=False)
    assert results == [None, None, True, None, miss, 3 * LINE, None, miss, None, False]
    assert _observable(cache, stats) == reference.observable()
