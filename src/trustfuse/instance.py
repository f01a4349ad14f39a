"""Immutable fusion-instance and ground-truth containers.

A fusion instance bundles the sources, the objects, the conflicting
observations, the per-object candidate values, and an optional per-source
feature matrix. Everything is frozen after construction; downstream code
treats instances as values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import index, itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "FusionInstance",
    "GroundTruth",
    "InstanceError",
    "correctness_counts",
    "label_correctness_counts",
]

# Entries of GroundTruth.label_candidates that are not candidate indices.
_UNLABELLED = -1
_UNREPORTED = -2


class InstanceError(ValueError):
    """Raised when an instance or ground truth violates a structural rule;
    ``positions`` are the input rows at fault, if the rule is about rows."""

    def __init__(self, message: str, positions: tuple[int, ...] = ()):
        super().__init__(message)
        self.positions = positions


def factorize(
    cells: Sequence[str], strip: bool = False
) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct cells in first-appearance order, and each cell's code:
    its position in that tuple, as int64.

    With ``strip``, the distinct cells are trimmed of surrounding whitespace
    and cells that trim to the same string share one code, ranked by the
    first appearance of the trimmed string.
    """
    firsts: dict = {}
    first = np.fromiter(
        map(firsts.setdefault, cells, itertools.count()),
        dtype=np.int64,
        count=len(cells),
    )
    # first[i] is the position of cell i's first appearance; numbering the
    # first appearances in order gives the dense codes.
    codes = (np.cumsum(first == np.arange(first.size), dtype=np.int64) - 1)[first]
    distinct = tuple(firsts)
    if strip:
        trimmed = tuple(map(str.strip, distinct))
        if trimmed != distinct:
            distinct, merged = factorize(trimmed)
            codes = merged[codes]
    return distinct, codes


def group_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal entries of the 1-D array ``keys``: each entry's
    group, and each group's first entry.

    An entry equal to the one before it joins that entry's group, so only
    the heads of such runs are sorted, with an unstable sort; a group's
    first entry is the smallest of its members. Groups are numbered in
    sorted key order.
    """
    n = len(keys)
    if not n:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    at = np.flatnonzero(head)
    heads = keys[at]
    order = np.argsort(heads)
    heads = heads[order]
    new = np.empty(order.size, dtype=bool)
    new[0] = True
    np.not_equal(heads[1:], heads[:-1], out=new[1:])
    # Each temporary goes once used: they are as long as the heads or keys.
    del heads
    first = np.minimum.reduceat(at[order], np.flatnonzero(new))
    del at
    group_of_head = np.empty(order.size, dtype=np.int64)
    group_of_head[order] = np.cumsum(new) - 1
    del order, new
    # Entry i belongs to the run of the last head at or before it.
    run = np.cumsum(head)
    del head
    run -= 1
    return group_of_head[run], first


def _first_repeat(keys: np.ndarray) -> tuple[int, int] | None:
    """The first row of ``keys`` whose key an earlier row holds, as (the
    key's first row, that row); None if the keys are distinct."""
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():
        return None
    group, first = group_keys(keys)
    i = int(np.flatnonzero(first[group] != np.arange(keys.size))[0])
    return int(first[group[i]]), i


# `FusionInstance.from_columns` finds candidates through a table over the
# (object, value code) key range when it has at most this many cells per
# observation, and by sorting (`group_keys`) otherwise.
_TABLE_CELLS_PER_OBSERVATION = 1


def _first_of_keys(keys: np.ndarray, n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """`group_keys` of ``keys``, each in ``[0, n_keys)``, through a table of
    each key's first row: one `np.minimum.at` over the rows, then O(n_keys)
    to number the keys present, in key order."""
    table = np.full(n_keys, keys.size, dtype=np.int64)
    np.minimum.at(table, keys, np.arange(keys.size))
    present = table < keys.size
    group_of_key = np.cumsum(present) - 1
    return group_of_key[keys], table[present]


def _index_column(name: str, column: Sequence | np.ndarray, n: int) -> np.ndarray:
    """``column`` as int64 indices into ``n`` items. An entry that is not an
    integer, or is outside ``[0, n)``, raises InstanceError naming the
    column and the first such entry; the error is located only once a
    whole-column test fails."""
    idx = np.asarray(column)
    if idx.dtype.kind not in "biuf":
        idx = idx.astype(np.int64)
    if not idx.size:
        return idx.astype(np.int64)
    if idx.dtype.kind == "f":
        whole = np.isfinite(idx) & (np.trunc(idx) == idx)
        if not whole.all():
            bad = idx[np.argmin(whole)]
            raise InstanceError(f"{name} index {bad} is not an integer")
    if idx.min() < 0 or idx.max() >= n:
        bad = idx[np.flatnonzero((idx < 0) | (idx >= n))[0]]
        raise InstanceError(f"{name} index {int(bad)} out of range")
    return idx.astype(np.int64, copy=False)


@dataclass(frozen=True)
class FusionInstance:
    """Sources, objects, observations and candidates, index-based and flat.

    Observation i is (``obs_object[i]``, ``obs_source[i]``, ``obs_cand[i]``),
    where ``obs_cand`` indexes ``cand_values``. Object o's candidates are
    ``cand_values[cand_offsets[o]:cand_offsets[o + 1]]``: the distinct values
    observed for it, in first-appearance order. ``domains`` and
    ``obs_value_idx`` are read-only views derived from these arrays.
    """

    sources: tuple[str, ...]
    objects: tuple[str, ...]
    obs_object: np.ndarray
    obs_source: np.ndarray
    obs_cand: np.ndarray
    cand_values: tuple[str, ...]
    cand_offsets: np.ndarray
    features: np.ndarray
    feature_names: tuple[str, ...] = ()
    # Registered copying pairs (i < j); empty unless add_copying_features ran.
    pairs: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_triples(
        cls,
        sources: Sequence[str],
        objects: Sequence[str],
        triples: Iterable[tuple[int, int, str]],
        features: np.ndarray | None = None,
        feature_names: Sequence[str] = (),
    ) -> "FusionInstance":
        """Build an instance from (object index, source index, value) triples.

        ``triples`` is read once, so a generator or ``zip`` object serves as
        well as a list. The triples are unzipped into columns and handed to
        `from_columns`, whose checks and candidate order apply.
        """
        triples = list(triples)
        if set(map(len, triples)) - {3}:
            raise InstanceError("every triple must be (object, source, value)")
        values, obs_value = factorize(list(map(itemgetter(2), triples)))
        return cls.from_columns(
            sources,
            objects,
            np.array(list(map(itemgetter(0), triples))),
            np.array(list(map(itemgetter(1), triples))),
            values,
            obs_value,
            features,
            feature_names,
        )

    @classmethod
    def from_columns(
        cls,
        sources: Sequence[str],
        objects: Sequence[str],
        obs_object: np.ndarray,
        obs_source: np.ndarray,
        values: Sequence[str],
        obs_value: np.ndarray,
        features: np.ndarray | None = None,
        feature_names: Sequence[str] = (),
    ) -> "FusionInstance":
        """Build an instance from observation columns: observation i is
        (``obs_object[i]``, ``obs_source[i]``, ``values[obs_value[i]]``).

        Rejects indices that are not integers or are out of range (each
        column is tested by its min and max; the first bad entry is located
        only when that fails), then duplicate (object, source) pairs (the
        error's ``positions`` are the first observation and its repeat),
        then objects with zero observations, then non-finite feature
        values. Each object's candidates come in the order its observations
        first report them: the first observation of each (object, value
        code) key is found through a table over the key range
        (`_first_of_keys`) when that range is at most the number of
        observations, and otherwise by `group_keys` of the same 1-D keys,
        which serves a value vocabulary of any size.
        """
        sources = tuple(sources)
        objects = tuple(objects)
        values = tuple(values)
        n_s, n_o, n_v = len(sources), len(objects), len(values)
        obs_o = _index_column("object", obs_object, n_o)
        obs_s = _index_column("source", obs_source, n_s)
        obs_v = _index_column("value", obs_value, n_v)
        repeat = _first_repeat(obs_o * n_s + obs_s)
        if repeat:
            i = repeat[1]
            raise InstanceError(
                f"duplicate observation for object {objects[obs_o[i]]!r} "
                f"and source {sources[obs_s[i]]!r}",
                positions=repeat,
            )
        empty = np.flatnonzero(np.bincount(obs_o, minlength=n_o) == 0)
        if empty.size:
            raise InstanceError(f"object {objects[empty[0]]!r} has no observations")
        # Candidates are the distinct (object, value code) keys, ranked by
        # object and then by first appearance.
        keys = obs_o * max(n_v, 1) + obs_v
        if n_o * n_v <= _TABLE_CELLS_PER_OBSERVATION * obs_o.size:
            cand, first = _first_of_keys(keys, n_o * n_v)
        else:
            cand, first = group_keys(keys)
        del keys
        order = np.lexsort((first, obs_o[first]))
        cand_counts = np.bincount(obs_o[first], minlength=n_o)

        if features is None:
            features = np.zeros((n_s, len(feature_names)), dtype=float)
        features = np.asarray(features, dtype=float)
        if features.shape != (n_s, len(feature_names)):
            raise InstanceError(
                f"feature matrix shape {features.shape} does not match "
                f"{n_s} sources x {len(feature_names)} features"
            )
        if features.size and not np.all(np.isfinite(features)):
            raise InstanceError("feature values must be finite")
        return cls(
            sources=sources,
            objects=objects,
            obs_object=obs_o,
            obs_source=obs_s,
            obs_cand=np.argsort(order)[cand],
            cand_values=tuple(map(values.__getitem__, obs_v[first[order]].tolist())),
            cand_offsets=np.concatenate(([0], np.cumsum(cand_counts))),
            features=features,
            feature_names=tuple(feature_names),
        )

    # -- basic shape accessors -------------------------------------------

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_observations(self) -> int:
        return int(self.obs_object.size)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    # -- derived index structures (cached, instances are immutable) ------

    @cached_property
    def cand_counts(self) -> np.ndarray:
        """Domain size |D_o| per object."""
        return np.diff(self.cand_offsets)

    @property
    def n_candidates(self) -> int:
        return int(self.cand_offsets[-1])

    @cached_property
    def cand_object(self) -> np.ndarray:
        """Object index owning each flat candidate slot."""
        return np.repeat(np.arange(self.n_objects), self.cand_counts)

    @cached_property
    def cand_votes(self) -> np.ndarray:
        """Number of sources reporting each candidate."""
        return np.bincount(self.obs_cand, minlength=self.n_candidates)

    @cached_property
    def wrong_counts(self) -> np.ndarray:
        """``max(|D_o| - 1, 1)``, the values a wrong vote spreads over, per object."""
        return np.maximum(self.cand_counts - 1, 1)

    @cached_property
    def cand_vote_term(self) -> np.ndarray:
        """``log(wrong_counts)`` per vote on each candidate: the score a vote
        adds when wrong votes spread uniformly (0 on binary domains)."""
        return np.log(self.wrong_counts)[self.cand_object] * self.cand_votes

    @cached_property
    def domains(self) -> tuple[tuple[str, ...], ...]:
        """Candidate values per object, in first-appearance order."""
        bounds = self.cand_offsets.tolist()
        return tuple(
            self.cand_values[a:b] for a, b in zip(bounds[:-1], bounds[1:])
        )

    @cached_property
    def obs_value_idx(self) -> np.ndarray:
        """Position of each observation's value within its object's domain."""
        idx = self.obs_cand - self.cand_offsets[self.obs_object]
        idx.flags.writeable = False
        return idx

    @cached_property
    def obs_counts(self) -> np.ndarray:
        """Number of observing sources per object."""
        return np.bincount(self.obs_object, minlength=self.n_objects)

    @cached_property
    def _obs_by_object(self) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(self.obs_object, kind="stable")
        bounds = np.zeros(self.n_objects + 1, dtype=np.int64)
        np.cumsum(self.obs_counts, out=bounds[1:])
        return order, bounds

    def observers_of(self, o: int) -> np.ndarray:
        """Indices into the observation arrays for object ``o``."""
        order, bounds = self._obs_by_object
        return order[bounds[o] : bounds[o + 1]]

    @cached_property
    def source_obs_counts(self) -> np.ndarray:
        return np.bincount(self.obs_source, minlength=self.n_sources)

    # The vote incidence A (candidates x sources, one 1 per observation):
    # the scores are A sigma, and each per-source tally is A' of a
    # per-candidate array. bincount adds in observation order, as a
    # scatter-add does; on no observations it gives integers, hence asarray.

    def candidate_sums(self, source_values: np.ndarray) -> np.ndarray:
        """A x, as float64: each candidate's sum of ``source_values`` over
        the sources that vote for it."""
        x = source_values[self.obs_source]
        return np.asarray(np.bincount(self.obs_cand, x, self.n_candidates), float)

    def source_sums(self, cand_values: np.ndarray) -> np.ndarray:
        """A' y, as float64: each source's sum of ``cand_values`` over the
        candidates it votes for; ``y = x[cand_object]`` sums a per-object
        ``x`` over the objects each source observes."""
        y = cand_values[self.obs_cand]
        return np.asarray(np.bincount(self.obs_source, y, self.n_sources), float)

    @cached_property
    def _pair_positions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The one vote-pair incidence that `obs_pairs` and `obs_pair_cells`
        read: the observations in (object, source) order, each one's count
        of later observations of its object (the pairs it is first in), and
        each pair's second observation as a position in that order."""
        order = np.argsort(self.obs_object * self.n_sources + self.obs_source)
        block_end = np.repeat(np.cumsum(self.obs_counts), self.obs_counts)
        n_after = block_end - np.arange(order.size) - 1
        # Pair k, first at position i, has its second at position
        # i + 1 + k - (the pairs of the positions before i).
        shift = np.arange(1, order.size + 1) - (np.cumsum(n_after) - n_after)
        second = np.repeat(shift, n_after)
        second += np.arange(second.size)
        return order, n_after, second

    @cached_property
    def obs_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every pair of observations of one object, as observation indices
        (first, second) with first's source below second's.

        Objects come in index order; an object's pairs come in lexicographic
        order of their (first, second) sources. The keys ``obs_object *
        n_sources + obs_source`` are distinct, since an instance holds one
        observation per object and source, so one ``argsort`` of them gives
        that order whatever the sort's stability. Past that N log N sort
        over the N observations, the pairs take O(N + P) for P pairs: one
        repeat per column and one ``arange``.
        """
        order, n_after, second = self._pair_positions
        return np.repeat(order, n_after), order[second]

    @cached_property
    def obs_pair_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Per `obs_pairs` pair: its sources' cell in a row-major S x S matrix
        (``np.ravel_multi_index``), above the diagonal, and whether its votes agree.

        Read in O(N + P) from the sources and candidates in `obs_pairs`'
        sorted order, which shares its sort and positions, so the pairs'
        observation indices are not built."""
        order, n_after, second = self._pair_positions
        source, cand = self.obs_source[order], self.obs_cand[order]
        cells = np.repeat(source * self.n_sources, n_after)
        cells += source[second]
        return cells, np.repeat(cand, n_after) == cand[second]

    @cached_property
    def pair_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Two S x S arrays, filled above the diagonal: the objects each pair
        of sources observes together, and the objects on which the pair's
        votes agree (as float64). Tallied once from `obs_pair_cells`."""
        n = self.n_sources
        cells, agree = self.obs_pair_cells
        shared = np.bincount(cells, minlength=n * n).reshape(n, n)
        # Weighting by the flags counts the agreeing pairs without a masked copy.
        agreed = np.bincount(cells, weights=agree, minlength=n * n).reshape(n, n)
        return shared, agreed

    @cached_property
    def pair_events(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copying-feature firings: (object, agreed candidate, pair id).

        One event per registered pair and object where both sources observe
        the object and report the same value, in `obs_pairs` order.
        """
        if not self.pairs:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        first, _ = self.obs_pairs
        cells, agree = self.obs_pair_cells
        pair_keys = np.ravel_multi_index(np.array(self.pairs).T, (self.n_sources,) * 2)
        by_key = np.argsort(pair_keys, kind="stable")
        pos = np.minimum(np.searchsorted(pair_keys[by_key], cells), by_key.size - 1)
        pair_id = by_key[pos]
        fires = (pair_keys[pair_id] == cells) & agree
        return (
            self.obs_object[first[fires]],
            self.obs_cand[first[fires]],
            pair_id[fires].astype(np.int64),
        )

    def with_pairs(self, pairs: Sequence[tuple[int, int]]) -> "FusionInstance":
        """Copy of this instance with the given copying pairs registered."""
        norm = tuple(sorted((min(i, j), max(i, j)) for i, j in pairs))
        if len(set(norm)) != len(norm):
            raise InstanceError("duplicate copying pair")
        for i, j in norm:
            if i == j or not (0 <= i < self.n_sources and 0 <= j < self.n_sources):
                raise InstanceError(f"invalid copying pair ({i}, {j})")
        return replace(self, pairs=norm)

    def sub_instance(self, keep: np.ndarray) -> "FusionInstance":
        """The instance of the objects where the boolean mask ``keep`` is
        set: their observations, in this instance's observation order, and
        their candidate slices. Sources, features and copying pairs stay.

        Objects and candidates keep their order, so each kept object's
        candidates, votes and `cand_vote_term` equal its slice here, and a
        per-object or per-candidate sum adds the same terms in the same
        order.
        """
        keep = np.asarray(keep, dtype=bool)
        kept_cand = keep[self.cand_object]
        obs = np.flatnonzero(keep[self.obs_object])
        new_object = np.cumsum(keep) - 1
        new_cand = np.cumsum(kept_cand) - 1
        objects = np.flatnonzero(keep).tolist()
        cands = np.flatnonzero(kept_cand).tolist()
        return replace(
            self,
            objects=tuple(map(self.objects.__getitem__, objects)),
            obs_object=new_object[self.obs_object[obs]],
            obs_source=self.obs_source[obs],
            obs_cand=new_cand[self.obs_cand[obs]],
            cand_values=tuple(map(self.cand_values.__getitem__, cands)),
            cand_offsets=np.concatenate(([0], np.cumsum(self.cand_counts[keep]))),
        )

    def candidate_index(
        self, objects: Iterable[int], values: Iterable[str]
    ) -> np.ndarray:
        """The flat candidate index of each (object index, value) pair: where
        the value sits in ``cand_values`` within its object's slice.

        A value that no source reported for its object, or an object index
        outside ``[0, n_objects)``, gets -2; an object index that is not an
        integer raises InstanceError.
        """
        bounds = self.cand_offsets.tolist()
        find = self.cand_values.index
        n = self.n_objects
        found = []
        for o, value in zip(objects, values):
            try:
                o = index(o)
            except TypeError:
                raise InstanceError(
                    f"ground-truth object index {o!r} is not an integer"
                ) from None
            # An object out of range searches an empty slice.
            start, stop = (bounds[o], bounds[o + 1]) if 0 <= o < n else (0, 0)
            try:
                found.append(find(value, start, stop))
            except ValueError:
                found.append(_UNREPORTED)
        return np.array(found, dtype=np.int64)

    def triples(self) -> list[tuple[int, int, str]]:
        """Observations as (object index, source index, value) triples."""
        values = self.cand_values
        return [
            (o, s, values[c])
            for o, s, c in zip(
                self.obs_object.tolist(),
                self.obs_source.tolist(),
                self.obs_cand.tolist(),
            )
        ]

    def __eq__(self, other: object) -> bool:
        """Semantic equality: everything is compared keyed by name, so two
        instances that index the same observations in a different internal
        order still compare equal."""
        if not isinstance(other, FusionInstance):
            return NotImplemented
        if (
            sorted(self.sources) != sorted(other.sources)
            or sorted(self.objects) != sorted(other.objects)
            or self.feature_names != other.feature_names
        ):
            return False

        def named_triples(inst: FusionInstance) -> set[tuple[str, str, str]]:
            return {
                (inst.objects[o], inst.sources[s], v)
                for o, s, v in inst.triples()
            }

        def named_pairs(inst: FusionInstance) -> set[frozenset[str]]:
            return {
                frozenset((inst.sources[i], inst.sources[j]))
                for i, j in inst.pairs
            }

        if named_triples(self) != named_triples(other):
            return False
        if named_pairs(self) != named_pairs(other):
            return False
        other_row = {name: i for i, name in enumerate(other.sources)}
        return all(
            np.array_equal(self.features[i], other.features[other_row[name]])
            for i, name in enumerate(self.sources)
        )

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class GroundTruth:
    """Known true values for a subset of objects, keyed by object index."""

    labels: Mapping[int, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.labels)

    def label_candidates(self, instance: FusionInstance) -> np.ndarray:
        """Flat candidate index of each object's label, per object.

        An unlabelled object gets -1 and a label that no source reported
        gets -2; an object index that is not an integer, or is outside the
        instance, raises.
        """
        objects = []
        for o in self.labels:
            try:
                o = index(o)
            except TypeError:
                raise InstanceError(
                    f"ground-truth object index {o!r} is not an integer"
                ) from None
            if not (0 <= o < instance.n_objects):
                raise InstanceError(f"ground-truth object index {o} out of range")
            objects.append(o)
        idx = np.full(instance.n_objects, _UNLABELLED, dtype=np.int64)
        idx[objects] = instance.candidate_index(objects, self.labels.values())
        return idx

    def validate(self, instance: FusionInstance) -> np.ndarray:
        """Check labels name valid objects and values inside their domain.

        Returns the `label_candidates` index, so callers need no second pass
        over the labels.
        """
        idx = self.label_candidates(instance)
        unreported = np.flatnonzero(idx == _UNREPORTED)
        if unreported.size:
            o = int(unreported[0])
            raise InstanceError(
                f"ground-truth value {self.labels[o]!r} for object "
                f"{instance.objects[o]!r} was not reported by any source"
            )
        return idx

    def restricted_to_domains(self, instance: FusionInstance) -> "GroundTruth":
        """Drop labels whose value no source reported (closed-world rule)."""
        found = instance.candidate_index(self.labels, self.labels.values())
        kept = itertools.compress(self.labels.items(), (found >= 0).tolist())
        return GroundTruth(dict(kept))


def correctness_counts(
    instance: FusionInstance, labels: GroundTruth
) -> tuple[np.ndarray, np.ndarray]:
    """Per-source (correct, total) counts over the observations of labelled
    objects, as float64.

    An observation is correct when it reports its object's label, so a
    label that no source reported counts as wrong for every reporter.
    """
    return label_correctness_counts(instance, labels.label_candidates(instance))


def label_correctness_counts(
    instance: FusionInstance, label_cand: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`correctness_counts` from a `GroundTruth.label_candidates` index: the
    `FusionInstance.source_sums` of the one-hot labels and of the labelled
    objects, the hard case of EM's expected counts. Sums of ones, so the
    counts are exact."""
    labels = np.zeros(instance.n_candidates)
    labels[label_cand[label_cand >= 0]] = 1.0
    labelled = label_cand != _UNLABELLED
    return (
        instance.source_sums(labels),
        instance.source_sums(labelled[instance.cand_object]),
    )
