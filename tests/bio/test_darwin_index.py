"""Per-queue Darwin index: identical results to the per-TEU code it replaced.

``LegacyDarwin`` keeps the previous ``align_partition`` path verbatim: it
expanded, sorted and hashed the whole queue on every TEU, inside
``align_partition``, ``teu_fixed_cost`` and ``teu_pair_count``. The
indexed engine must return ``==``-equal costs, pair counts and match sets
for every queue and partition shape, including one engine that serves
several queues.
"""

from typing import Any, Dict, List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bio import DarwinEngine, DatabaseProfile
from repro.bio.align import sw_score
from repro.bio.costmodel import QueueIndex
from repro.errors import BioError
from repro.processes import partitioning


def legacy_teu_fixed_cost(model, profile, partition, queue) -> float:
    queue_arr = np.asarray(sorted(queue), dtype=np.int64)
    queue_lengths = profile.lengths[queue_arr - 1].astype(np.float64)
    suffix = np.concatenate([np.cumsum(queue_lengths[::-1])[::-1], [0.0]])
    positions = np.searchsorted(queue_arr, np.asarray(partition))
    cells = 0.0
    for pos, entry in zip(positions, partition):
        # entries strictly after `entry` in the queue
        cells += profile.length(entry) * suffix[pos + 1]
    return cells * model.fixed_pam_factor / model.cell_rate


def legacy_teu_pair_count(model, partition, queue) -> int:
    queue_arr = np.asarray(sorted(queue), dtype=np.int64)
    positions = np.searchsorted(queue_arr, np.asarray(partition))
    total = len(queue_arr)
    return int(sum(total - pos - 1 for pos in positions))


class LegacyDarwin:
    """The per-TEU alignment path before the queue index, verbatim."""

    def __init__(self, engine: DarwinEngine):
        self.engine = engine

    def __getattr__(self, name):
        return getattr(self.engine, name)

    def align_partition(self, partition, queue) -> Dict[str, Any]:
        partition = sorted(int(i) for i in partition)
        queue = sorted(int(i) for i in queue)
        queue_set = set(queue)
        unknown = [i for i in partition if i not in queue_set]
        if unknown:
            raise BioError(f"partition entries not in queue: {unknown[:5]}")
        if self.mode == "real":
            match_set, pairs, cost = self._align_real(partition, queue)
        else:
            match_set, pairs, cost = self._align_modeled(partition, queue_set,
                                                         queue)
        cost += self.init_cost()
        cost += match_set["count"] * self.cost_model.match_record_cost
        return {"match_set": match_set, "cost": cost, "pairs": pairs}

    def _align_real(self, partition, queue):
        matrix = self.matrix_family.matrix(100.0)
        matches: List[Dict[str, Any]] = []
        cells = 0
        pairs = 0
        for i in partition:
            seq_i = self.database.entry(i)
            for j in queue:
                if j <= i:
                    continue
                seq_j = self.database.entry(j)
                score = sw_score(seq_i.residues, seq_j.residues, matrix)
                cells += len(seq_i) * len(seq_j)
                pairs += 1
                if score >= self.match_threshold:
                    matches.append(
                        {"i": i, "j": j, "score": round(score, 2)}
                    )
        cost = cells * self.cost_model.fixed_pam_factor / self.cost_model.cell_rate
        truncated = len(matches) > self.sample_cap
        match_set = {
            "count": len(matches),
            "matches": matches[: self.sample_cap],
            "truncated": truncated,
        }
        return match_set, pairs, cost

    def _align_modeled(self, partition, queue_set, queue):
        cost = legacy_teu_fixed_cost(self.cost_model, self.profile,
                                     partition, queue)
        pairs = legacy_teu_pair_count(self.cost_model, partition, queue)
        rng = self._rng("teu", partition[0] if partition else 0, len(partition))
        matches: List[Dict[str, Any]] = []
        # Homologous pairs: deterministic from the family structure.
        for i in partition:
            for j in self.profile.family_partners(i):
                if j > i and j in queue_set:
                    min_len = min(self.profile.length(i), self.profile.length(j))
                    score = max(
                        self.match_threshold,
                        rng.gauss(3.0 * min_len, 0.3 * min_len),
                    )
                    matches.append({"i": i, "j": j, "score": round(score, 2)})
        # Background matches: rare chance similarities among non-homologs.
        family_count = len(matches)
        n_random = self._binomial(rng, max(0, pairs - family_count),
                                  self.random_match_rate)
        queue_list = queue
        for _ in range(min(n_random, self.sample_cap)):
            i = rng.choice(partition)
            later = [j for j in (rng.choice(queue_list) for _ in range(8)) if j > i]
            if not later:
                continue
            j = later[0]
            score = self.match_threshold + rng.expovariate(1 / 15.0)
            matches.append({"i": i, "j": j, "score": round(score, 2)})
        count = family_count + n_random
        matches.sort(key=lambda m: (m["i"], m["j"]))
        truncated = len(matches) > self.sample_cap or count > len(matches)
        match_set = {
            "count": count,
            "matches": matches[: self.sample_cap],
            "truncated": truncated,
        }
        return match_set, pairs, cost


PROFILE = DatabaseProfile.synthetic("idx_db", 400, seed=9,
                                    family_fraction=0.4, family_size=4)


def modeled_engine() -> DarwinEngine:
    # A high background rate and a small cap exercise the random-match
    # draws and the truncation of the carried sample.
    return DarwinEngine(PROFILE, mode="modeled", random_match_rate=0.01,
                        sample_cap=40, seed=3)


@st.composite
def queues(draw):
    kind = draw(st.sampled_from(("range", "stride", "list")))
    if kind == "range":
        lo = draw(st.integers(min_value=1, max_value=300))
        hi = draw(st.integers(min_value=lo, max_value=len(PROFILE)))
        return {"kind": "range", "lo": lo, "hi": hi}
    if kind == "stride":
        start = draw(st.integers(min_value=1, max_value=40))
        return {"kind": "stride", "start": start,
                "stride": draw(st.integers(min_value=1, max_value=7)),
                "hi": len(PROFILE)}
    entries = draw(st.lists(st.integers(min_value=1, max_value=len(PROFILE)),
                            min_size=1, max_size=250))
    if draw(st.booleans()):
        return partitioning.list_queue(entries)
    # A hand-written list: unsorted, possibly with repeats.
    return {"kind": "list", "entries": entries}


def indexed(engine, queue):
    return engine.queue_index(partitioning.queue_key(queue),
                              lambda: partitioning.sequence(queue))


class TestIndexedEqualsLegacy:
    @settings(max_examples=30, deadline=None)
    @given(queues(), st.integers(min_value=1, max_value=9),
           st.sampled_from(("interleaved", "contiguous", "balanced")))
    def test_every_teu_identical(self, queue, granularity, strategy):
        engine = modeled_engine()
        legacy = LegacyDarwin(modeled_engine())
        model = engine.cost_model
        entries = partitioning.expand(queue)
        index = indexed(engine, queue)
        for part in partitioning.make_partitions(queue, granularity,
                                                 strategy, profile=PROFILE):
            partition = partitioning.expand(part)
            expected = legacy.align_partition(partition, entries)
            assert engine.align_partition(partition, index) == expected
            assert engine.align_partition(partition, entries) == expected
            ordered = sorted(partition)
            assert (model.teu_fixed_cost(PROFILE, ordered, index)
                    == legacy_teu_fixed_cost(model, PROFILE, ordered,
                                             entries))
            assert (model.teu_pair_count(ordered, index)
                    == legacy_teu_pair_count(model, ordered, entries))

    def test_one_engine_serves_two_queues(self):
        engine = modeled_engine()
        legacy = LegacyDarwin(modeled_engine())
        full = partitioning.range_queue(len(PROFILE))
        # Discard every seventh entry (ill-behaved sequences), then the
        # full range: two indexes, neither leaking into the other.
        kept = partitioning.list_queue(
            [e for e in range(1, len(PROFILE) + 1) if e % 7])
        for queue in (kept, full, kept):
            entries = partitioning.expand(queue)
            for part in partitioning.make_partitions(queue, 5):
                partition = partitioning.expand(part)
                assert (engine.align_partition(partition,
                                               indexed(engine, queue))
                        == legacy.align_partition(partition, entries))
        assert len(engine._queue_indexes) == 2

    def test_index_built_once_per_queue(self):
        engine = modeled_engine()
        queue = partitioning.range_queue(len(PROFILE))
        builds = []

        def entries():
            builds.append(1)
            return partitioning.sequence(queue)

        first = engine.queue_index(partitioning.queue_key(queue), entries)
        again = engine.queue_index(
            partitioning.queue_key(dict(queue)), entries)
        assert first is again and builds == [1]
        assert isinstance(first.sequence, range)

    def test_real_mode_identical(self, darwin_real, small_profile):
        queue = list(range(1, len(small_profile) + 1, 2))
        legacy = LegacyDarwin(darwin_real)
        index = QueueIndex(small_profile, queue)
        for partition in ([1, 5, 9],):
            assert (darwin_real.align_partition(partition, index)
                    == legacy.align_partition(partition, queue))


class TestEntryChecks:
    def test_unknown_partition_entry_rejected(self):
        engine = modeled_engine()
        index = QueueIndex(PROFILE, [1, 2, 3])
        with pytest.raises(BioError, match="not in queue"):
            engine.align_partition([1, 99], index)

    def test_out_of_range_entries_raise_typed_error(self):
        """Entry 0 used to alias entry N through numpy's negative
        indexing, and entry N+1 raised a bare IndexError."""
        engine = modeled_engine()
        n = len(PROFILE)
        with pytest.raises(BioError):
            engine.align_partition([0, 1], [0, 1, 2, 3])
        with pytest.raises(BioError):
            engine.align_partition([1], [1, n + 1])
        for entry in (0, -1, n + 1):
            with pytest.raises(BioError):
                PROFILE.length(entry)
            with pytest.raises(BioError):
                PROFILE.family_of(entry)
        with pytest.raises(BioError):
            engine.cost_model.teu_fixed_cost(PROFILE, [0], [1, 2])
        assert PROFILE.length(n) == int(PROFILE.lengths[-1])
