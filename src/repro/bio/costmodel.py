"""Workload profiles and the calibrated activity cost model.

The discrete-event simulator never executes SP38-scale alignments for real;
instead every activity is charged the CPU time the real computation would
take. Costs are expressed in **dynamic-programming cells** (the product of
the two sequence lengths, the exact work of the Smith-Waterman recurrence)
divided by a calibrated ``cell_rate``. :func:`CostModel.calibrate` fits the
rate by timing the real aligner, so "modeled" and "real" runs are on one
scale.

A :class:`DatabaseProfile` is the statistical skeleton of a sequence
database — entry lengths and homologous-family structure — sufficient for
both cost computation and synthetic match generation, without materializing
80,000 residue strings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence as Seq

import numpy as np

from ..errors import BioError
from .align import sw_score
from .matrices import default_family
from .sequence import SequenceDatabase


class DatabaseProfile:
    """Lengths + family structure of a database, indexable 1..N."""

    def __init__(self, name: str, lengths: np.ndarray, families: np.ndarray):
        if len(lengths) != len(families):
            raise BioError("lengths and families must have equal size")
        if len(lengths) == 0:
            raise BioError("profile must contain at least one entry")
        self.name = name
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.families = np.asarray(families, dtype=np.int64)
        self._family_members: Dict[int, np.ndarray] = {}
        for family_id in np.unique(self.families):
            if family_id < 0:
                continue
            members = np.where(self.families == family_id)[0] + 1  # 1-based
            if len(members) > 1:
                self._family_members[int(family_id)] = members

    def __len__(self) -> int:
        return len(self.lengths)

    def length(self, index: int) -> int:
        """Length of the 1-based entry ``index``."""
        return int(self.lengths[self._offset(index)])

    def family_of(self, index: int) -> int:
        """Family id of entry ``index`` (-1 for singletons)."""
        return int(self.families[self._offset(index)])

    def _offset(self, index: int) -> int:
        """0-based array offset of entry ``index``; rejects entries outside
        1..N instead of letting numpy's negative indexing alias them."""
        if not 1 <= index <= len(self.lengths):
            raise BioError(
                f"entry {index} outside database {self.name!r} "
                f"(1..{len(self.lengths)})"
            )
        return index - 1

    def check_entries(self, entries: np.ndarray) -> None:
        """Reject any entry of an index array outside 1..N."""
        if len(entries) and (entries.min() < 1
                             or entries.max() > len(self.lengths)):
            bad = entries[(entries < 1) | (entries > len(self.lengths))]
            raise BioError(
                f"entries outside database {self.name!r} "
                f"(1..{len(self.lengths)}): {bad[:5].tolist()}"
            )

    def family_partners(self, index: int) -> List[int]:
        """Other members of this entry's family (1-based indexes)."""
        family_id = self.family_of(index)
        members = self._family_members.get(family_id)
        if members is None:
            return []
        return [int(m) for m in members if m != index]

    def homologous_pairs(self) -> List[tuple]:
        """All (i, j) with i < j in the same family."""
        pairs = []
        for members in self._family_members.values():
            members = sorted(int(m) for m in members)
            for a_pos, i in enumerate(members):
                for j in members[a_pos + 1:]:
                    pairs.append((i, j))
        return sorted(pairs)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_database(cls, db: SequenceDatabase) -> "DatabaseProfile":
        family_names: Dict[str, int] = {}
        families = []
        for seq in db:
            if seq.family is None:
                families.append(-1)
            else:
                families.append(
                    family_names.setdefault(seq.family, len(family_names))
                )
        return cls(db.name, np.array(db.lengths()), np.array(families))

    @classmethod
    def synthetic(
        cls,
        name: str,
        size: int,
        seed: int = 0,
        mean_length: float = 360.0,
        length_shape: float = 2.0,
        min_length: int = 30,
        max_length: int = 4000,
        family_fraction: float = 0.3,
        family_size: int = 4,
    ) -> "DatabaseProfile":
        """Fast numpy generation of an SP38-scale profile (no residues)."""
        if size < 1:
            raise BioError("profile size must be positive")
        rng = np.random.default_rng(seed)
        lengths = rng.gamma(length_shape, mean_length / length_shape, size)
        lengths = np.clip(lengths.astype(np.int64), min_length, max_length)
        families = np.full(size, -1, dtype=np.int64)
        n_members = int(size * family_fraction)
        n_families = n_members // family_size
        if n_families:
            member_slots = rng.permutation(size)[: n_families * family_size]
            for family_id in range(n_families):
                slots = member_slots[
                    family_id * family_size:(family_id + 1) * family_size
                ]
                families[slots] = family_id
                # family members share a core length
                core = lengths[slots[0]]
                jitter = rng.integers(-core // 10 - 1, core // 10 + 2, len(slots))
                lengths[slots] = np.clip(core + jitter, min_length, max_length)
        return cls(name, lengths, families)


class QueueIndex:
    """One queue file, indexed once for every TEU that aligns against it.

    Holds the sorted entry array, the entries' lengths and the suffix
    sums of those lengths (``suffix[k]`` = total length of the entries at
    positions >= k), plus ``sequence``: the sorted entries as a Python
    sequence (a ``range`` where the queue is one), from which synthetic
    background matches are drawn. Building it is O(N log N); every query
    after that is a binary search over the partition's entries only.
    """

    __slots__ = ("entries", "lengths", "suffix", "sequence")

    def __init__(self, profile: DatabaseProfile, queue: Seq[int]):
        if isinstance(queue, range) and queue.step > 0:
            self.sequence: Seq[int] = queue
        else:
            self.sequence = sorted(int(i) for i in queue)
        self.entries = (
            np.arange(queue.start, queue.stop, queue.step, dtype=np.int64)
            if isinstance(self.sequence, range)
            else np.asarray(self.sequence, dtype=np.int64)
        )
        profile.check_entries(self.entries)
        self.lengths = profile.lengths[self.entries - 1].astype(np.float64)
        self.suffix = np.concatenate(
            [np.cumsum(self.lengths[::-1])[::-1], [0.0]]
        )

    @classmethod
    def of(cls, profile: DatabaseProfile,
           queue: Seq[int] | QueueIndex) -> QueueIndex:
        """``queue`` itself when already indexed, else its index."""
        return queue if isinstance(queue, cls) else cls(profile, queue)

    def require(self, entries: Seq[int]) -> None:
        """BioError unless every one of ``entries`` is in the queue."""
        wanted = np.asarray(entries, dtype=np.int64)
        positions = np.searchsorted(self.entries, wanted)
        found = np.zeros(len(wanted), dtype=bool)
        inside = positions < len(self.entries)
        found[inside] = self.entries[positions[inside]] == wanted[inside]
        if not found.all():
            raise BioError(
                f"partition entries not in queue: "
                f"{wanted[~found][:5].tolist()}"
            )

    def contains(self, entry: int) -> bool:
        """Whether ``entry`` is in the queue (binary search)."""
        position = int(np.searchsorted(self.entries, entry))
        return (position < len(self.entries)
                and int(self.entries[position]) == entry)


@dataclass
class CostModel:
    """CPU-cost model for Darwin-style activities, in seconds.

    ``cell_rate`` is DP cells per second on a speed-1.0 CPU (calibrated to
    late-1990s hardware by default so absolute magnitudes land in the
    paper's range). The fixed-PAM first pass is a fast heuristic
    (``fixed_pam_factor`` of the full DP cost); refinement re-runs the DP
    once per scoring matrix evaluated (``refine_evaluations``).
    """

    cell_rate: float = 1.8e6
    fixed_pam_factor: float = 0.25
    refine_evaluations: int = 15
    darwin_startup: float = 0.5
    db_load_per_entry: float = 0.0035
    match_record_cost: float = 0.002
    merge_cost_per_match: float = 0.0005
    merge_base_cost: float = 5.0

    def init_cost(self, db_size: int) -> float:
        """Darwin start-up + database load, charged once per TEU."""
        return self.darwin_startup + self.db_load_per_entry * db_size

    def fixed_pair_cost(self, len_a: int, len_b: int) -> float:
        return len_a * len_b * self.fixed_pam_factor / self.cell_rate

    def refine_pair_cost(self, len_a: int, len_b: int) -> float:
        return len_a * len_b * self.refine_evaluations / self.cell_rate

    def teu_fixed_cost(self, profile: DatabaseProfile,
                       partition: Seq[int],
                       queue: Seq[int] | QueueIndex) -> float:
        """Cost of aligning each partition entry against all later queue
        entries (redundant comparisons ruled out, as in the paper).

        ``queue`` is an index list or a prebuilt :class:`QueueIndex`; the
        per-entry cells are summed in partition order (a sequential fold,
        not numpy's pairwise sum), so the float is the same either way.
        """
        index = QueueIndex.of(profile, queue)
        part = np.asarray(partition, dtype=np.int64)
        profile.check_entries(part)
        cells = profile.lengths[part - 1] * index.suffix[
            np.searchsorted(index.entries, part) + 1]
        total = np.add.accumulate(cells)[-1] if len(cells) else 0.0
        return total * self.fixed_pam_factor / self.cell_rate

    def teu_pair_count(self, partition: Seq[int],
                       queue: Seq[int] | QueueIndex) -> int:
        """Pairs (i, j) with i in the partition and j a later queue entry."""
        entries = (queue.entries if isinstance(queue, QueueIndex)
                   else np.sort(np.asarray(queue, dtype=np.int64)))
        positions = np.searchsorted(entries, np.asarray(partition))
        return int(len(positions) * (len(entries) - 1) - positions.sum())

    def mean_refine_cost(self, profile: DatabaseProfile) -> float:
        mean_len = float(profile.lengths.mean())
        return self.refine_pair_cost(int(mean_len), int(mean_len))

    # -- calibration ----------------------------------------------------------

    def calibrate(self, db: SequenceDatabase, sample_pairs: int = 4,
                  seed: int = 0) -> float:
        """Fit ``cell_rate`` by timing the real aligner on sampled pairs.

        Returns the measured rate (cells/second) and installs it.
        """
        import random as _random

        rng = _random.Random(seed)
        family = default_family()
        matrix = family.matrix(100.0)
        total_cells = 0
        started = time.perf_counter()
        for _ in range(sample_pairs):
            i = rng.randrange(1, len(db) + 1)
            j = rng.randrange(1, len(db) + 1)
            seq_a, seq_b = db.entry(i), db.entry(j)
            sw_score(seq_a.residues, seq_b.residues, matrix)
            total_cells += len(seq_a) * len(seq_b)
        elapsed = time.perf_counter() - started
        if elapsed <= 0:
            raise BioError("calibration timing produced zero elapsed time")
        self.cell_rate = total_cells / elapsed
        return self.cell_rate
