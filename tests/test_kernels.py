"""The vectorised kernels against the per-object loops they replaced.

Each reference below is the earlier loop implementation, kept verbatim in
substance: the kernels must give the same numbers (bit for bit where the
additions happen in the same order) and consume the rng the same way.
"""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustfuse import (
    FusionInstance,
    GroundTruth,
    InstanceError,
    LearnConfig,
    add_copying_features,
    em_units,
    estimate_avg_accuracy,
    estimate_pair_state,
    io,
    load_instance,
    posterior_all,
)
from trustfuse.analysis import _draw_pairs
from trustfuse.instance import factorize
from trustfuse.io import dump_json, round_floats, write_instance
from trustfuse.learning import _lasso_qp, _soft_threshold
from trustfuse.model import argmax_with_ties, candidate_scores
from trustfuse.optimizer import agreement_matrix, majority_success_probability
from trustfuse.simulation import SimConfig, SimResult, generate
from conftest import random_weights


# -- references: the loop implementations the kernels replaced -------------


def ref_from_triples(sources, objects, triples):
    """The per-triple loop `FusionInstance.from_triples` replaced: returns
    (obs_object, obs_source, obs_value_idx, domains)."""
    n_s, n_o = len(sources), len(objects)
    domains = [[] for _ in range(n_o)]
    value_pos = [{} for _ in range(n_o)]
    seen = set()
    obs_o, obs_s, obs_v = [], [], []
    for o, s, value in triples:
        if not (0 <= o < n_o):
            raise InstanceError(f"object index {o} out of range")
        if not (0 <= s < n_s):
            raise InstanceError(f"source index {s} out of range")
        if (o, s) in seen:
            raise InstanceError(
                f"duplicate observation for object {objects[o]!r} "
                f"and source {sources[s]!r}"
            )
        seen.add((o, s))
        pos = value_pos[o].get(value)
        if pos is None:
            pos = len(domains[o])
            value_pos[o][value] = pos
            domains[o].append(value)
        obs_o.append(o)
        obs_s.append(s)
        obs_v.append(pos)
    for o, dom in enumerate(domains):
        if not dom:
            raise InstanceError(f"object {objects[o]!r} has no observations")
    return (
        np.asarray(obs_o, dtype=np.int64),
        np.asarray(obs_s, dtype=np.int64),
        np.asarray(obs_v, dtype=np.int64),
        tuple(tuple(d) for d in domains),
    )


def ref_from_columns(sources, objects, obs_object, obs_source, values, obs_value):
    """The `np.unique` build `FusionInstance.from_columns` replaced, without
    features: returns (obs_object, obs_source, obs_cand, cand_values,
    cand_offsets), or raises its InstanceError with the same positions."""
    n_s, n_o = len(sources), len(objects)
    obs_o = np.asarray(obs_object, dtype=np.int64)
    obs_s = np.asarray(obs_source, dtype=np.int64)
    obs_v = np.asarray(obs_value, dtype=np.int64)
    for name, idx, n in (
        ("object", obs_o, n_o),
        ("source", obs_s, n_s),
        ("value", obs_v, len(values)),
    ):
        bad = np.flatnonzero((idx < 0) | (idx >= n))
        if bad.size:
            raise InstanceError(f"{name} index {idx[bad[0]]} out of range")
    _, first, pair = np.unique(
        obs_o * n_s + obs_s, return_index=True, return_inverse=True
    )
    repeats = np.flatnonzero(first[pair] != np.arange(obs_o.size))
    if repeats.size:
        i = int(repeats[0])
        raise InstanceError(
            f"duplicate observation for object {objects[obs_o[i]]!r} "
            f"and source {sources[obs_s[i]]!r}",
            positions=(int(first[pair[i]]), i),
        )
    empty = np.flatnonzero(np.bincount(obs_o, minlength=n_o) == 0)
    if empty.size:
        raise InstanceError(f"object {objects[empty[0]]!r} has no observations")
    _, first, cand = np.unique(
        obs_o * max(len(values), 1) + obs_v, return_index=True, return_inverse=True
    )
    order = np.lexsort((first, obs_o[first]))
    cand_counts = np.bincount(obs_o[first], minlength=n_o)
    return (
        obs_o,
        obs_s,
        np.argsort(order)[cand],
        tuple(values[v] for v in obs_v[first[order]].tolist()),
        np.concatenate(([0], np.cumsum(cand_counts))),
    )


def ref_read_rows(path, min_cols):
    """The per-row `csv.reader` loop `io._read_rows` replaced, plus the
    conversion of `csv.Error` into a located InstanceError: returns (header,
    columns of trimmed cells, line numbers, widths)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        lineno = 0
        try:
            header = next(reader, None)
            if header is None:
                raise InstanceError(f"{path}: file is empty")
            header = [h.strip() for h in header]
            n_cols = max(min_cols, len(header))
            cells, lines, widths = [], [], []
            lineno = 1
            for lineno, row in enumerate(reader, start=2):
                width = len(row)
                if not width:
                    continue
                if width < min_cols:
                    raise InstanceError(
                        f"{path}, line {lineno}: expected at least "
                        f"{min_cols} columns, got {width}"
                    )
                lines.append(lineno)
                widths.append(width)
                if width != n_cols:
                    row = row[:n_cols] if width > n_cols else row + [""] * (n_cols - width)
                cells += row
        except csv.Error as exc:
            raise InstanceError(f"{path}, line {lineno + 1}: {exc}") from None
    columns = [list(map(str.strip, cells[j::n_cols])) for j in range(n_cols)]
    return header, columns, lines, widths


def ref_load_observations(path):
    """`load_instance` of an observations file through `ref_read_rows`,
    dictionaries and `ref_from_triples`: returns (sources, objects,
    obs_object, obs_source, obs_value_idx, domains)."""
    header, columns, lines, _ = ref_read_rows(path, 3)
    if header[:3] != ["object_id", "source_id", "value"]:
        raise InstanceError(f"{path}: header must be object_id,source_id,value")
    object_idx, source_idx, first_line = {}, {}, {}
    for line, obj, src in zip(lines, columns[0], columns[1]):
        key = (object_idx.setdefault(obj, len(object_idx)),
               source_idx.setdefault(src, len(source_idx)))
        if key in first_line:
            raise InstanceError(
                f"{path}, line {line}: duplicate observation for object {obj!r} "
                f"and source {src!r} (first at line {first_line[key]})"
            )
        first_line[key] = line
    triples = zip(map(object_idx.get, columns[0]), map(source_idx.get, columns[1]),
                  columns[2])
    obs_o, obs_s, obs_v, domains = ref_from_triples(
        tuple(source_idx), tuple(object_idx), triples
    )
    return (tuple(source_idx), tuple(object_idx), obs_o.tolist(), obs_s.tolist(),
            obs_v.tolist(), domains)


def ref_candidate_scores(instance, w):
    sigma = w.trust_scores(instance.features)
    scores = np.zeros(instance.n_candidates)
    np.add.at(scores, instance.obs_cand, sigma[instance.obs_source])
    votes = np.zeros(instance.n_candidates)
    np.add.at(votes, instance.obs_cand, 1.0)
    log_wrong = np.log(np.maximum(instance.cand_counts - 1, 1))
    scores += log_wrong[instance.cand_object] * votes
    if instance.pairs:
        ev_obj, ev_cand, ev_pair = instance.pair_events
        if ev_obj.size:
            pw = np.array(
                [w.pair_weights.get(p, 0.0) for p in instance.pairs], dtype=float
            )
            per_object = np.zeros(instance.n_objects)
            np.add.at(per_object, ev_obj, pw[ev_pair])
            scores += per_object[instance.cand_object]
            np.subtract.at(scores, ev_cand, pw[ev_pair])
    return scores


def ref_softmax_by_object(scores, offsets):
    starts = offsets[:-1]
    counts = np.diff(offsets)
    seg_max = np.maximum.reduceat(scores, starts)
    ex = np.exp(scores - np.repeat(seg_max, counts))
    return ex / np.repeat(np.add.reduceat(ex, starts), counts)


def ref_argmax_with_ties(values, instance, rng, tol=1e-12):
    out = {}
    offsets = instance.cand_offsets
    for o in range(instance.n_objects):
        row = values[offsets[o] : offsets[o + 1]]
        best = row.max()
        ties = np.flatnonzero(row >= best - tol)
        idx = int(ties[0]) if ties.size == 1 else int(ties[rng.integers(ties.size)])
        out[instance.objects[o]] = instance.domains[o][idx]
    return out


def ref_agreement_matrix(instance):
    n = instance.n_sources
    num = np.zeros((n, n))
    cnt = np.zeros((n, n))
    for o in range(instance.n_objects):
        rows = instance.observers_of(o)
        if rows.size < 2:
            continue
        srcs = instance.obs_source[rows]
        vals = instance.obs_value_idx[rows]
        sign = np.where(np.equal.outer(vals, vals), 1.0, -1.0)
        ix = np.ix_(srcs, srcs)
        num[ix] += sign
        cnt[ix] += 1.0
    with np.errstate(invalid="ignore"):
        x = np.where(cnt > 0, num / np.maximum(cnt, 1.0), 0.0)
    np.fill_diagonal(x, 0.0)
    return x


def ref_obs_pairs(instance):
    """Every pair of observations of one object: objects in index order,
    each object's pairs in (first source, second source) order."""
    first, second = [], []
    for o in range(instance.n_objects):
        rows = instance.observers_of(o)
        rows = rows[np.argsort(instance.obs_source[rows])].tolist()
        for a, row in enumerate(rows):
            for other in rows[a + 1 :]:
                first.append(row)
                second.append(other)
    return np.array(first, dtype=np.int64), np.array(second, dtype=np.int64)


def ref_estimate_avg_accuracy(instance):
    """The estimate with c as the mean of 1 / max(|D_o| - 1, 1) over every
    vote pair, and the agreement mean over the overlapping source pairs."""
    n = instance.n_sources
    x = ref_agreement_matrix(instance)
    overlap = np.zeros((n, n), dtype=bool)
    per_pair = []
    for o in range(instance.n_objects):
        srcs = instance.obs_source[instance.observers_of(o)].tolist()
        wrong = max(int(instance.cand_counts[o]) - 1, 1)
        for a, s in enumerate(srcs):
            for t in srcs[a + 1 :]:
                overlap[s, t] = overlap[t, s] = True
                per_pair.append(1.0 / wrong)
    mu = float(x.sum()) / int(overlap.sum()) if overlap.any() else 0.0
    c = float(np.mean(per_pair)) if per_pair else 1.0
    r = ((1.0 + c) * mu + (1.0 - c)) / 2.0
    return float(min((c + np.sqrt(max(0.0, r))) / (1.0 + c), 1.0))


def ref_em_units(instance, avg_accuracy):
    def entropy_bits(p):
        if p <= 0.0 or p >= 1.0:
            return 0.0
        return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))

    total = 0.0
    for m, d in zip(instance.obs_counts, instance.cand_counts):
        m, d = int(m), int(d)
        p_e = majority_success_probability(m, d, avg_accuracy)
        if p_e >= 0.5:
            total += m * (1.0 - entropy_bits(p_e))
    return total


def ref_pair_events(instance):
    pair_id = {p: i for i, p in enumerate(instance.pairs)}
    ev_obj, ev_cand, ev_pair = [], [], []
    for o in range(instance.n_objects):
        rows = instance.observers_of(o)
        if rows.size < 2:
            continue
        srcs = instance.obs_source[rows]
        vals = instance.obs_value_idx[rows]
        order = np.argsort(srcs)
        srcs, vals = srcs[order], vals[order]
        for a in range(srcs.size):
            for b in range(a + 1, srcs.size):
                pid = pair_id.get((int(srcs[a]), int(srcs[b])))
                if pid is not None and vals[a] == vals[b]:
                    ev_obj.append(o)
                    ev_cand.append(int(instance.cand_offsets[o] + vals[a]))
                    ev_pair.append(pid)
    return tuple(np.asarray(ev, dtype=np.int64) for ev in (ev_obj, ev_cand, ev_pair))


def ref_copying_pairs(instance, min_overlap):
    n = instance.n_sources
    overlap = np.zeros((n, n), dtype=np.int64)
    for o in range(instance.n_objects):
        rows = instance.observers_of(o)
        if rows.size < 2:
            continue
        srcs = instance.obs_source[rows]
        overlap[np.ix_(srcs, srcs)] += 1
    return tuple(
        (i, j) for i in range(n) for j in range(i + 1, n)
        if overlap[i, j] >= min_overlap
    )


def ref_pair_state(instance, seed):
    """The pairwise estimator's per-object pair reduction and primary-source
    loop: (a_e_hat, a_counts, primary_counts, objects kept)."""
    rng = np.random.default_rng(seed)
    pairs = []
    for o in range(instance.n_objects):
        rows = instance.observers_of(o)
        if rows.size < 2:
            continue
        if rows.size > 2:
            pick = rng.choice(rows.size, size=2, replace=False)
            rows = rows[np.sort(pick)]
        pairs.append((instance.obs_source[rows], instance.obs_cand[rows]))
    n_s = instance.n_sources
    n_o = len(pairs)
    agree = np.array([1.0 if v[0] == v[1] else 0.0 for _, v in pairs])
    radicand = n_s * (n_s - 1) / n_o * float(np.sum(2.0 * agree - 1.0))
    a_e_hat = float(np.sqrt(max(0.0, radicand)))
    primary_counts = np.zeros(n_s)
    a_counts = np.zeros(n_s)
    for (srcs, _), ag in zip(pairs, agree):
        primary = int(srcs[rng.integers(2)])
        primary_counts[primary] += 1.0
        a_counts[primary] += (2.0 * n_s * ag - (n_s - a_e_hat)) / (2.0 * a_e_hat)
    a_counts = np.clip(a_counts, 0.0, primary_counts)
    return a_e_hat, a_counts, primary_counts, n_o


def ref_proximal_fit(x0, fg, l1, max_iters, tol, step_size=1.0):
    """Monotone FISTA with backtracking on ``fg``'s smooth objective plus
    ``l1 . |x|``: the independent solver the Newton fits are checked
    against. Also counts its restarts."""
    restarts = 0

    def full_obj(x, f=None):
        if f is None:
            f = fg(x)[0]
        return f + float(l1 @ np.abs(x))

    def soft_threshold(x, t):
        return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)

    x = x0.copy()
    obj = full_obj(x)
    y = x.copy()
    t_k = 1.0
    step = step_size
    iters = 0
    for iters in range(1, max_iters + 1):
        f_y, g_y = fg(y)
        accepted = False
        for _ in range(60):
            cand = soft_threshold(y - step * g_y, step * l1)
            cand_obj = full_obj(cand)
            if np.isfinite(cand_obj) and cand_obj <= obj + 1e-12 * (1.0 + abs(obj)):
                accepted = True
                break
            step *= 0.5
            if not np.array_equal(y, x):
                y = x.copy()
                t_k = 1.0
                restarts += 1
                f_y, g_y = fg(y)
        if not accepted:
            break
        delta = obj - cand_obj
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
        y = cand + ((t_k - 1.0) / t_next) * (cand - x)
        x, obj, t_k = cand, cand_obj, t_next
        step = min(step * 1.2, step_size)
        if delta < tol:
            break
    return x, iters, obj, restarts


# -- instances ---------------------------------------------------------------


def simulated(domain, seed, n_sources=30, n_objects=400):
    sim = generate(
        SimConfig(
            n_sources=n_sources,
            n_objects=n_objects,
            density=0.15,
            domain_size=domain,
            accuracy_mean=0.7,
            accuracy_spread=0.15,
            true_weights=(1.5, -0.8),
            seed=seed,
        )
    )
    return sim.instance, sim.truth.restricted_to_domains(sim.instance)


def planted_ties(rng, max_values):
    """Random integer score table where many objects tie on their best value."""
    n_o = 300
    triples = []
    for o in range(n_o):
        n_vals = int(rng.integers(1, max_values + 1))
        observers = rng.permutation(12)[: int(rng.integers(n_vals, 13))]
        for i, s in enumerate(observers):
            value = i if i < n_vals else int(rng.integers(n_vals))
            triples.append((o, int(s), f"v{value}"))
    inst = FusionInstance.from_triples(
        [f"s{i}" for i in range(12)], [f"o{i}" for i in range(n_o)], triples
    )
    values = rng.integers(0, 3, size=inst.n_candidates).astype(float)
    # Near ties inside the tolerance count as ties too.
    values += rng.choice([0.0, 0.0, 1e-13, -1e-13], size=values.size)
    return inst, values


# Values that differ only by inner spaces, or only in non-ASCII characters.
VALUE_POOL = ("a", "b", "a b", "a  b", "ä", "a\u0308", "Zürich", "東京", "東 京")


def shuffled_triples(rng, n_s=9, n_o=60):
    """Triples in random row order: 1-6 values per object, and every fifth
    object seen by one source only."""
    triples = []
    for o in range(n_o):
        pick = rng.permutation(len(VALUE_POOL))[: rng.integers(1, 7)]
        values = [VALUE_POOL[i] for i in pick]
        n_obs = 1 if o % 5 == 0 else int(rng.integers(1, n_s + 1))
        for s in rng.permutation(n_s)[:n_obs]:
            triples.append((o, int(s), values[rng.integers(len(values))]))
    return [triples[i] for i in rng.permutation(len(triples))]


# -- tests -------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_from_triples_matches_loop(seed):
    rng = np.random.default_rng(seed)
    sources, objects = [f"s{i}" for i in range(9)], [f"o{i}" for i in range(60)]
    triples = shuffled_triples(rng)
    inst = FusionInstance.from_triples(sources, objects, triples)
    obs_o, obs_s, obs_v, domains = ref_from_triples(sources, objects, triples)
    offsets = np.cumsum([0] + [len(d) for d in domains])
    assert np.array_equal(inst.obs_object, obs_o)
    assert np.array_equal(inst.obs_source, obs_s)
    assert np.array_equal(inst.obs_cand, offsets[obs_o] + obs_v)
    assert inst.cand_values == tuple(v for d in domains for v in d)
    assert np.array_equal(inst.cand_offsets, offsets)
    assert inst.domains == domains
    assert np.array_equal(inst.obs_value_idx, obs_v)
    assert not inst.obs_value_idx.flags.writeable

    # One repeated (object, source) pair: the loop's message, and the
    # positions of the first row and its repeat.
    i = int(rng.integers(len(triples)))
    j = int(rng.integers(i + 1, len(triples) + 1))
    o, s, _ = triples[i]
    faulty = triples[:j] + [(o, s, "z")] + triples[j:]
    with pytest.raises(InstanceError) as ref_err:
        ref_from_triples(sources, objects, faulty)
    with pytest.raises(InstanceError) as err:
        FusionInstance.from_triples(sources, objects, faulty)
    assert str(err.value) == str(ref_err.value)
    assert err.value.positions == (i, j)


@pytest.mark.parametrize("seed", range(3))
def test_from_triples_reads_one_shot_iterables(seed):
    rng = np.random.default_rng(seed)
    sources, objects = [f"s{i}" for i in range(9)], [f"o{i}" for i in range(60)]
    triples = shuffled_triples(rng)
    expected = FusionInstance.from_triples(sources, objects, triples)
    obs_o, obs_s, obs_v, domains = ref_from_triples(sources, objects, iter(triples))
    assert np.array_equal(expected.obs_object, obs_o)
    assert np.array_equal(expected.obs_source, obs_s)
    assert np.array_equal(expected.obs_value_idx, obs_v)
    assert expected.domains == domains
    obj_col, src_col, value_col = map(list, zip(*triples))
    one_shots = {
        "generator": (t for t in triples),
        "zip": zip(obj_col, src_col, value_col),
    }
    for kind, one_shot in one_shots.items():
        assert FusionInstance.from_triples(sources, objects, one_shot) == expected, kind

    # The repeat's positions count the triples of the one-shot iterator.
    o, s, _ = triples[3]
    faulty = triples[:7] + [(o, s, "z")] + triples[7:]
    with pytest.raises(InstanceError) as err:
        FusionInstance.from_triples(sources, objects, (t for t in faulty))
    assert err.value.positions == (3, 7)


def test_from_triples_empty_iterable():
    expected = FusionInstance.from_triples([], [], [])
    assert expected.n_observations == 0 and expected.domains == ()
    assert ref_from_triples([], [], [])[3] == ()
    for empty in (iter(()), (t for t in ()), zip((), (), ())):
        assert FusionInstance.from_triples([], [], empty) == expected
    # Objects without triples are still rejected, as the loop rejects them.
    with pytest.raises(InstanceError, match="'o0' has no observations"):
        ref_from_triples(["s0"], ["o0"], iter(()))
    with pytest.raises(InstanceError, match="'o0' has no observations"):
        FusionInstance.from_triples(["s0"], ["o0"], iter(()))


@st.composite
def observation_columns(draw):
    """Columns for `from_columns`: each object seen by distinct sources, its
    rows shuffled, sorted into long runs of one (object, value) key, or
    dealt round-robin across objects, so that equal keys are rarely
    neighbours; sometimes with repeated (object, source) rows, or an object
    or value that no row uses."""
    n_s = draw(st.integers(1, 12))
    n_o = draw(st.integers(0, 8))
    n_v = draw(st.integers(1, 4))
    rows = []
    for o in range(n_o):
        seen_by = draw(st.lists(st.integers(0, n_s - 1), min_size=1, unique=True))
        for rank, s in enumerate(seen_by):
            rows.append((rank, o, s, draw(st.integers(0, n_v - 1))))
    layout = draw(st.sampled_from(("shuffled", "runs", "round-robin")))
    if layout == "shuffled":
        rows = draw(st.permutations(rows))
    elif layout == "runs":
        rows.sort(key=lambda r: (r[1], r[3]))
    else:
        rows.sort()
    rows = [r[1:] for r in rows]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        o, s, _ = rows[draw(st.integers(0, len(rows) - 1))]
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, (o, s, draw(st.integers(0, n_v - 1))))
    n_o += draw(st.integers(0, 1))
    columns = [np.array(c, dtype=np.int64) for c in zip(*rows)] or [
        np.zeros(0, dtype=np.int64)
    ] * 3
    sources = tuple(f"s{s}" for s in range(n_s))
    objects = tuple(f"o{o}" for o in range(n_o))
    values = tuple(f"v{v}" for v in range(n_v))
    return sources, objects, columns[0], columns[1], values, columns[2]


def build_outcome(build, sources, objects, obs_o, obs_s, values, obs_v):
    try:
        return build(sources, objects, obs_o, obs_s, values, obs_v)
    except InstanceError as exc:
        return "InstanceError", str(exc), exc.positions


def from_columns_arrays(*columns):
    inst = FusionInstance.from_columns(*columns)
    return (inst.obs_object, inst.obs_source, inst.obs_cand, inst.cand_values,
            inst.cand_offsets)


@settings(max_examples=300, deadline=None)
@given(columns=observation_columns())
def test_from_columns_matches_the_unique_build(columns):
    got = build_outcome(from_columns_arrays, *columns)
    want = build_outcome(ref_from_columns, *columns)
    if isinstance(want[0], str):
        assert got == want
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, tuple):
            assert g == w
        else:
            assert g.dtype == w.dtype and np.array_equal(g, w)


# -- closed-world label matching ----------------------------------------------


def ref_candidate_index(instance, objects, values):
    """Each (object, value) pair's flat candidate, found by a scan of every
    candidate; -2 when the object owns no candidate equal to the value."""
    found = []
    for o, value in zip(objects, values):
        hits = [
            c for c in range(instance.n_candidates)
            if instance.cand_object[c] == o and instance.cand_values[c] == value
        ]
        found.append(hits[0] if hits else -2)
    return found


@st.composite
def labelled_instances(draw):
    """A small instance over the values a, b and c, and truth rows that name
    objects in and out of range (negative ones too), values reported only
    for another object, untrimmed variants of reported values, and objects
    more than once."""
    n_o, n_s = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    value = st.sampled_from(("a", "b", "c"))
    # Source 0 observes every object, so no object is without observations.
    triples = [
        (o, s, draw(value))
        for o in range(n_o)
        for s in range(n_s)
        if s == 0 or draw(st.booleans())
    ]
    instance = FusionInstance.from_triples(
        [f"s{s}" for s in range(n_s)], [f"o{o}" for o in range(n_o)], triples
    )
    rows = draw(st.lists(
        st.tuples(st.integers(-2, n_o + 1),
                  st.sampled_from(("a", "b", "c", "d", " a", "b ", " c "))),
        max_size=8,
    ))
    return instance, rows


@settings(max_examples=200, deadline=None)
@given(case=labelled_instances())
def test_label_matching_agrees_with_the_candidate_loop(tmp_path_factory, case):
    instance, rows = case
    objects = [o for o, _ in rows]
    values = [v for _, v in rows]
    want = ref_candidate_index(instance, objects, values)
    got = instance.candidate_index(objects, values)
    assert got.dtype == np.int64 and got.tolist() == want
    match = dict(zip(rows, want))

    truth = GroundTruth(dict(rows))
    outside = [o for o in truth.labels if not 0 <= o < instance.n_objects]
    if outside:
        for check in (truth.label_candidates, truth.validate):
            with pytest.raises(InstanceError) as err:
                check(instance)
            assert str(err.value) == (
                f"ground-truth object index {outside[0]} out of range"
            )
    else:
        idx = np.full(instance.n_objects, -1)
        for o, v in truth.labels.items():
            idx[o] = match[o, v]
        assert truth.label_candidates(instance).tolist() == idx.tolist()
        if (idx == -2).any():
            o = int(np.flatnonzero(idx == -2)[0])
            with pytest.raises(InstanceError) as err:
                truth.validate(instance)
            assert str(err.value) == (
                f"ground-truth value {truth.labels[o]!r} for object "
                f"'o{o}' was not reported by any source"
            )
        else:
            assert truth.validate(instance).tolist() == idx.tolist()
    kept = truth.restricted_to_domains(instance).labels
    assert kept == {o: v for o, v in truth.labels.items() if match[o, v] >= 0}

    # The same rows as a truth file, whose loader trims each cell; the first
    # row naming an unknown object, an unreported value or a labelled object
    # is reported.
    base = tmp_path_factory.getbasetemp()
    obs, truth_csv = base / "observations.csv", base / "truth.csv"
    obs.write_text("object_id,source_id,value\n" + "".join(
        f"o{o},s{s},{v}\n" for o, s, v in instance.triples()
    ))
    truth_csv.write_text("object_id,value\n" + "".join(
        f"o{o},{v}\n" for o, v in rows
    ))
    expected, seen = None, set()
    for line, (o, v) in enumerate(rows, start=2):
        where = f"{truth_csv}, line {line}"
        if not 0 <= o < instance.n_objects:
            expected = f"{where}: object 'o{o}' has no observations"
        elif ref_candidate_index(instance, [o], [v.strip()])[0] < 0:
            expected = (f"{where}: value {v.strip()!r} for object 'o{o}' "
                        "was not reported by any source")
        elif o in seen:
            expected = f"{where}: duplicate label for object 'o{o}'"
        if expected:
            break
        seen.add(o)
    try:
        loaded, loaded_truth = load_instance(obs, None, truth_csv)
    except InstanceError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        assert {loaded.objects[o]: v for o, v in loaded_truth.labels.items()} == {
            f"o{o}": v.strip() for o, v in rows
        }




@pytest.mark.parametrize("max_values", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_argmax_with_ties_matches_loop_and_rng_stream(max_values, seed):
    rng = np.random.default_rng([max_values, seed])
    inst, values = planted_ties(rng, max_values)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    assert argmax_with_ties(values, inst, ours) == ref_argmax_with_ties(
        values, inst, theirs
    )
    assert ours.bit_generator.state == theirs.bit_generator.state
    if max_values > 1:
        # Ties were drawn for, so the stream moved.
        fresh = np.random.default_rng(seed).bit_generator.state
        assert ours.bit_generator.state != fresh


def test_argmax_with_ties_rejects_nan():
    inst, values = planted_ties(np.random.default_rng(3), 3)
    values[5] = np.nan
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        argmax_with_ties(values, inst, np.random.default_rng(0))


@pytest.mark.parametrize("domain", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_agreement_matrix_and_em_units_equal_loops(domain, seed):
    inst, _ = simulated(domain, seed)
    assert np.array_equal(agreement_matrix(inst), ref_agreement_matrix(inst))
    for acc in (0.55, 0.8, 1.0 - 1e-12):
        assert em_units(inst, acc) == ref_em_units(inst, acc)


@pytest.mark.parametrize("domain", [2, 3, 5, 8])
@pytest.mark.parametrize("shape", [(30, 400), (60, 40)])
def test_avg_accuracy_equals_the_per_pair_loop(domain, shape):
    # (60, 40) leaves a third to a half of the source pairs without overlap.
    inst, _ = simulated(domain, seed=domain, n_sources=shape[0], n_objects=shape[1])
    got, want = estimate_avg_accuracy(inst), ref_estimate_avg_accuracy(inst)
    if domain == 2:
        # c is 1 however it is summed.
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0)


@st.composite
def pair_instances(draw):
    """Up to 6 sources and 8 objects in shuffled observation order: objects
    with one observer, and one object that every source observes."""
    n_s = draw(st.integers(1, 6))
    n_o = draw(st.integers(1, 8))
    everyone = draw(st.integers(0, n_o - 1))
    some_sources = st.lists(
        st.integers(0, n_s - 1), min_size=1, max_size=n_s, unique=True
    )
    triples = [
        (o, s, draw(st.sampled_from("abc")))
        for o in range(n_o)
        for s in (range(n_s) if o == everyone else draw(some_sources))
    ]
    return FusionInstance.from_triples(
        [f"s{i}" for i in range(n_s)],
        [f"o{i}" for i in range(n_o)],
        draw(st.permutations(triples)),
    )


@settings(max_examples=300, deadline=None)
@given(pair_instances())
@example(FusionInstance.from_triples(["s0"], ["o0", "o1"], [(1, 0, "a"), (0, 0, "b")]))
def test_obs_pairs_and_cells_equal_the_per_object_loop(inst):
    first, second = ref_obs_pairs(inst)
    for got, want in zip(inst.obs_pairs, (first, second)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    cells, agree = inst.obs_pair_cells
    want_cells = inst.obs_source[first] * inst.n_sources + inst.obs_source[second]
    assert cells.dtype == want_cells.dtype
    assert np.array_equal(cells, want_cells)
    assert agree.dtype == bool
    assert np.array_equal(agree, inst.obs_cand[first] == inst.obs_cand[second])


@settings(max_examples=300, deadline=None)
@given(pair_instances(), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_incidence_sums_and_pair_counts_equal_loops(inst, seed, min_overlap):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=inst.n_sources)
    y = rng.normal(size=inst.n_candidates)
    # A x and A' y, one observation at a time in observation order: the
    # additions bincount makes, so the sums agree bit for bit.
    want_cand, want_source = np.zeros(inst.n_candidates), np.zeros(inst.n_sources)
    for s, c in zip(inst.obs_source.tolist(), inst.obs_cand.tolist()):
        want_cand[c] += x[s]
        want_source[s] += y[c]
    for got, want in ((inst.candidate_sums(x), want_cand),
                      (inst.source_sums(y), want_source)):
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
    n = inst.n_sources
    shared, agreed = np.zeros((n, n), dtype=np.int64), np.zeros((n, n))
    for i, j in zip(*(pairs.tolist() for pairs in ref_obs_pairs(inst))):
        s, t = inst.obs_source[i], inst.obs_source[j]
        shared[s, t] += 1
        agreed[s, t] += inst.obs_cand[i] == inst.obs_cand[j]
    got_shared, got_agreed = inst.pair_counts
    assert np.array_equal(got_shared, shared)
    assert np.array_equal(got_agreed, agreed)
    registered = tuple(
        (s, t) for s in range(n) for t in range(s + 1, n)
        if shared[s, t] >= min_overlap
    )
    assert add_copying_features(inst, min_overlap).pairs == registered


@pytest.mark.parametrize("domain", [2, 3, 5, 8, 12])
def test_scores_and_posteriors_match_scatter_reference(domain):
    inst, _ = simulated(domain, seed=domain)
    rng = np.random.default_rng(domain)
    for _ in range(3):
        w = random_weights(rng, inst)
        scores = candidate_scores(inst, w)
        assert np.array_equal(scores, ref_candidate_scores(inst, w))
        probs = posterior_all(inst, w).probs
        ref = ref_softmax_by_object(scores, inst.cand_offsets)
        if domain <= 8:
            # Normalisers sum in add.reduceat's order up to 8 values.
            assert np.array_equal(probs, ref)
        else:
            np.testing.assert_allclose(probs, ref, rtol=1e-14, atol=0)


def test_scores_with_copying_pairs_match_scatter_reference():
    inst, _ = simulated(3, seed=4, n_sources=12, n_objects=300)
    inst = add_copying_features(inst, min_overlap=5)
    assert inst.pairs and inst.pair_events[0].size
    w = random_weights(np.random.default_rng(4), inst)
    assert np.array_equal(candidate_scores(inst, w), ref_candidate_scores(inst, w))


@pytest.mark.parametrize("domain", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_copying_pairs_and_events_equal_loops(domain, seed):
    inst, _ = simulated(domain, seed, n_sources=15, n_objects=300)
    # Observations in shuffled order, so an object's sources are not sorted.
    triples = inst.triples()
    order = np.random.default_rng(seed).permutation(len(triples))
    inst = FusionInstance.from_triples(
        inst.sources, inst.objects, [triples[k] for k in order]
    )
    for min_overlap in (1, 8, 15):
        ext = add_copying_features(inst, min_overlap=min_overlap)
        assert ext.pairs == ref_copying_pairs(inst, min_overlap)
        for got, want in zip(ext.pair_events, ref_pair_events(ext)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
    # A sparse set of registered pairs, some never co-observed.
    rng = np.random.default_rng([domain, seed])
    every = [(i, j) for i in range(15) for j in range(i + 1, 15)]
    picked = rng.choice(len(every), 20, replace=False)
    some = inst.with_pairs([every[k] for k in picked])
    events = some.pair_events
    assert events[0].size
    for got, want in zip(events, ref_pair_events(some)):
        assert np.array_equal(got, want)


def shuffled_rows(inst, rng):
    """The same instance with its observations in a random order."""
    triples = inst.triples()
    return FusionInstance.from_triples(
        inst.sources, inst.objects,
        [triples[k] for k in rng.permutation(len(triples))],
        inst.features, inst.feature_names,
    )


@pytest.mark.parametrize("seed", range(4))
def test_pair_state_equals_the_per_object_loop_on_pair_samples(seed):
    # Every object has exactly two observers, so no pair is drawn, and one
    # primary draw per object must consume the rng as the scalar loop did.
    sim = generate(SimConfig(n_sources=20, n_objects=600, pair_sampling=True,
                             true_weights=(0.5, 0.8, 0.9), feature_density=0.5,
                             seed=seed))
    inst = shuffled_rows(sim.instance, np.random.default_rng(seed))
    state = estimate_pair_state(inst, LearnConfig(seed=seed))
    a_e_hat, a_counts, primary_counts, n_o = ref_pair_state(inst, seed)
    assert state.a_e_hat == a_e_hat
    assert np.array_equal(state.a_counts, a_counts)
    assert np.array_equal(state.primary_counts, primary_counts)
    assert state.n_reduced_objects == n_o == 600


@pytest.fixture(scope="module")
def four_observers():
    """24 000 objects seen by 4 of 6 sources each, then 100 seen by 2 and 100
    by 1, in shuffled rows; 80% of the votes are "a"."""
    rng = np.random.default_rng(11)
    per_object = np.repeat([4, 2, 1], [24_000, 100, 100])
    obs_o = np.repeat(np.arange(per_object.size), per_object)
    # An object's k-th observation comes from source (its first source + k) % 6.
    starts = np.cumsum(per_object) - per_object
    k = np.arange(obs_o.size) - np.repeat(starts, per_object)
    obs_s = (rng.integers(6, size=per_object.size)[obs_o] + k) % 6
    obs_v = (rng.random(obs_o.size) > 0.8).astype(np.int64)
    perm = rng.permutation(obs_o.size)
    return FusionInstance.from_columns(
        [f"s{i}" for i in range(6)], [f"o{i}" for i in range(per_object.size)],
        obs_o[perm], obs_s[perm], ["a", "b"], obs_v[perm],
        rng.normal(size=(6, 2)), ("f0", "f1"),
    )


def test_pair_draw_is_uniform_and_in_observation_order(four_observers):
    inst = four_observers
    first, second = _draw_pairs(inst, np.random.default_rng(0))
    kept = np.flatnonzero(inst.obs_counts >= 2)
    assert np.array_equal(inst.obs_object[first], kept)
    assert np.array_equal(inst.obs_object[second], kept)
    assert np.all(first < second)
    # Each observation's place among its object's observations, in order.
    order, bounds = inst._obs_by_object
    place = np.empty(inst.n_observations, dtype=np.int64)
    place[order] = np.arange(order.size) - bounds[inst.obs_object[order]]
    pair = place[first] * 4 + place[second]
    four = inst.obs_counts[kept] == 4
    assert np.all(pair[~four] == 1)
    counts = np.bincount(pair[four], minlength=16)[[1, 2, 3, 6, 7, 11]]
    assert counts.sum() == four.sum()
    # Five standard errors of a 1/6 frequency over 24 000 objects: 0.012.
    np.testing.assert_allclose(counts / four.sum(), 1 / 6, atol=0.012)


def test_pair_state_keeps_the_objects_with_two_observations(four_observers):
    state = estimate_pair_state(four_observers, LearnConfig())
    assert state.n_reduced_objects == 24_100
    assert state.primary_counts.sum() == 24_100


# -- CSV reading and JSON writing ---------------------------------------------

# Cells of 8, 9, 16 and 17+ bytes that share their first 7 bytes: some
# differ only in the last byte of a 64-bit word of the loader's cell keys,
# some only in a later word, and some only by surrounding whitespace (an
# ideographic space is 3 bytes); the wide ones are longer than CSV_LIMIT.
CSV_WIDE = ("abcdefgh", "abcdefgX", "abcdefghi", " abcdefgh", "abcdefgh\t",
            "abcdefghijklmnop", "abcdefghijklmnoX", "abcdefghijklmnopq",
            "abcdefghijklmnopq ", "\u3000abcdefghijklmnopqrstu")
# Multi-byte UTF-8 cells: the field limit counts characters, so 10 "é" (20
# bytes) and 11 "😀" (44 bytes) fit CSV_LIMIT and 12 "😀" do not.
CSV_MULTIBYTE = ("é", "😀", "é" * 10, "😀" * 11, "😀" * 12)
# Cells that trim to one another, that need quoting (comma, record ends, a
# quote), that are blank, non-ASCII, NUL, or longer than CSV_LIMIT.
CSV_CELLS = ("o0", " o0", "o1", "o1 ", "s0", " s0 ", "s1", "a", "a b", "b ", "",
             " ", "é", "東京", "x,y", "p\nq", "r\r\ns", "t\ru", 'q"t', "\0",
             "a-very-long-cell", *CSV_WIDE, *CSV_MULTIBYTE)
CSV_LIMIT = 11  # " object_id " just fits, the long cell does not
CSV_HEADERS = ("object_id,source_id,value", " object_id , source_id ,value",
               "object_id,source_id,value,note", "object_id,source_id",
               "object_id,value,source_id", '"object_id","source_id","value"', "")


@st.composite
def csv_texts(draw):
    """CSV text mixing the three record ends, blank records, quoted and
    padded cells, and rows of any width, with or without a final record end.
    A third of the files hold well-formed observation rows only, and a third
    one column, as a features file without features."""
    cell = st.sampled_from(CSV_CELLS)
    quoted = st.tuples(cell, st.booleans()).map(
        lambda c: '"' + c[0].replace('"', '""') + '"' if c[1] else c[0]
    )
    observation = st.tuples(
        st.sampled_from(("o0", "o1", " o1", "o2", "o2 ", *CSV_WIDE)),
        st.sampled_from(("s0", "s1", "s2 ", " s1", *CSV_MULTIBYTE)),
        st.sampled_from(("a", "b", " a", "c", "", "a-very-long-cell", *CSV_WIDE)),
    ).map(",".join)
    header = draw(st.one_of(st.sampled_from(CSV_HEADERS[:3]),
                            st.sampled_from(CSV_HEADERS)))
    mode = draw(st.sampled_from(("observations", "mixed", "one column")))
    if mode == "observations":
        row = observation
    elif mode == "mixed":
        row = st.one_of(observation, st.lists(quoted, max_size=5).map(",".join))
    else:
        header = "source_id"
        row = st.sampled_from(("s0", " s0", "", "a-very-long-cell", *CSV_WIDE,
                               *CSV_MULTIBYTE))
    rows = draw(st.lists(row, max_size=12))
    ends = draw(st.lists(st.sampled_from(("\n", "\r\n", "\r")),
                         min_size=len(rows) + 1, max_size=len(rows) + 1))
    text = "".join(r + e for r, e in zip([header, *rows], ends))
    return text if draw(st.booleans()) else text[: -len(ends[-1])]


def outcome(read, *args):
    try:
        return read(*args)
    except InstanceError as exc:
        return "InstanceError", str(exc)


def read_rows_by_column(path, min_cols):
    header, rows = io._read_rows(path, min_cols)
    columns = [rows.cells(j) for j in range(len(rows.columns))]
    return header, columns, list(rows.lines), list(rows.widths)


def load_observations(path):
    inst, _ = load_instance(path)
    return (inst.sources, inst.objects, inst.obs_object.tolist(),
            inst.obs_source.tolist(), inst.obs_value_idx.tolist(), inst.domains)


@pytest.mark.parametrize("limit", [CSV_LIMIT, csv.field_size_limit()])
@settings(max_examples=300, deadline=None)
@given(text=csv_texts())
def test_reader_and_loader_match_the_csv_reader_loop(tmp_path_factory, limit, text):
    path = tmp_path_factory.getbasetemp() / "observations.csv"
    path.write_text(text, encoding="utf-8", newline="")
    default = csv.field_size_limit(limit)
    try:
        for min_cols in (1, 2, 3):
            assert outcome(read_rows_by_column, path, min_cols) == outcome(
                ref_read_rows, path, min_cols
            )
        assert outcome(load_observations, path) == outcome(ref_load_observations, path)
    finally:
        csv.field_size_limit(default)


def reversing_hash(keys):
    """A stand-in for the loader's row hash that ignores the words: the sort
    reverses each group of multi-word cells, so equal cells that are not
    neighbours form runs of their own, as cells whose hashes collide may."""
    return np.arange(len(keys), 0, -1, dtype=np.uint64)


@pytest.mark.parametrize("row_hash", [io._row_hash, reversing_hash])
@pytest.mark.parametrize("limit", [CSV_LIMIT, csv.field_size_limit()])
@settings(max_examples=150, deadline=None)
@given(text=csv_texts())
def test_coded_columns_equal_factorize_of_their_cells(
    tmp_path_factory, limit, row_hash, text
):
    path = tmp_path_factory.getbasetemp() / "coded.csv"
    path.write_text(text, encoding="utf-8", newline="")
    default = csv.field_size_limit(limit)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(io, "_row_hash", row_hash)
            coded = [outcome(io._read_rows, path, min_cols) for min_cols in (1, 2, 3)]
        for min_cols, result in zip((1, 2, 3), coded):
            if result[0] == "InstanceError":
                continue
            rows = result[1]
            _, columns, _, _ = ref_read_rows(path, min_cols)
            assert len(rows.columns) == len(columns)
            for (distinct, codes), cells in zip(rows.columns, columns):
                want_distinct, want_codes = factorize(cells, strip=True)
                assert distinct == want_distinct
                assert codes.dtype == np.int64
                assert codes.tolist() == want_codes.tolist()
    finally:
        csv.field_size_limit(default)


def test_runs_of_equal_cells_share_one_code(tmp_path, monkeypatch):
    monkeypatch.setattr(io, "_row_hash", reversing_hash)
    cells = ["abcdefghi", "abcdefghijklmnop", "abcdefghi", "abcdefghi", "é" * 5]
    path = tmp_path / "features.csv"
    path.write_text("\n".join(["source_id", *cells, cells[1]]), encoding="utf-8")
    _, rows = io._read_rows(path, 1)
    distinct, codes = rows.columns[0]
    assert distinct == ("abcdefghi", "abcdefghijklmnop", "é" * 5)
    assert codes.tolist() == [0, 1, 0, 0, 2, 1]


@pytest.mark.parametrize("row_hash", [io._row_hash, reversing_hash])
def test_runs_of_equal_multi_word_cells_share_one_code(tmp_path, monkeypatch,
                                                        row_hash):
    monkeypatch.setattr(io, "_row_hash", row_hash)
    # Two words each: runs of one cell, a run broken by a padded copy, and
    # equal cells that come back after another cell's run.
    long, other = "abcdefghijk", "é" * 6
    cells = [long, long, long, other, other, long, " " + long, long, other, other]
    path = tmp_path / "features.csv"
    path.write_text("\n".join(["source_id", *cells]), encoding="utf-8")
    _, rows = io._read_rows(path, 1)
    distinct, codes = rows.columns[0]
    assert distinct == (long, other)
    assert codes.tolist() == [0, 0, 0, 1, 1, 0, 0, 0, 1, 1]


@pytest.mark.parametrize("cell", ["x", "abcdefgh", "abcdefghijklmnopq"])
def test_a_column_of_one_run_is_one_code(tmp_path, cell):
    path = tmp_path / "observations.csv"
    rows = "".join(f"o{i % 7},s{i},{cell}\r\n" for i in range(50))
    path.write_text("object_id,source_id,value\r\n" + rows, newline="")
    _, rows = io._read_rows(path, 3)
    distinct, codes = rows.columns[2]
    assert distinct == (cell,)
    assert codes.dtype == np.int64 and codes.tolist() == [0] * 50


# Numeric cells come three times as often as the ones that break a rule.
FEATURE_CELLS = ("1", "-2.5", " 3 ", "1e3", "0") * 3 + ("nan", "inf", "", "oops")


@st.composite
def features_records(draw):
    """The records of a features CSV as lists of cells: a header of
    source_id (or not) and up to three feature names, some repeated or
    padded, then rows of any width, blank ones included, with repeated and
    padded sources and numeric, non-finite, empty and non-numeric cells."""
    first = draw(st.sampled_from(("source_id",) * 3 + (" source_id ", "source")))
    names = draw(st.lists(st.sampled_from(("f0", "f1", " f1", "f2 ")), max_size=3,
                          unique=True))
    cell = st.sampled_from(FEATURE_CELLS)
    values = st.one_of(
        st.lists(cell, min_size=len(names), max_size=len(names)),
        st.lists(cell, max_size=4),
    )
    row = st.tuples(st.sampled_from(("s0", " s0", "s1", "s2 ", "é")), values)
    rows = draw(st.lists(st.one_of(row.map(lambda r: [r[0], *r[1]]), st.just([])),
                         max_size=8))
    return [[first, *names], *rows]


def read_features_lists(path):
    names, table = io.read_features(path)
    return names, list(table), [row.tolist() for row in table.values()]


@settings(max_examples=300, deadline=None)
@given(records=features_records())
@example(records=[["source_id", "f0", "f1"]])
@example(records=[["source_id"], ["s0"], [" s1"]])
def test_features_read_alike_by_bytes_and_by_csv_reader(tmp_path_factory, records):
    # The all-quoted copy goes through csv.reader; the plain file takes the
    # byte path unless it has blank records or rows of differing widths.
    path = tmp_path_factory.getbasetemp() / "features.csv"
    outcomes = []
    for quote in ("", '"'):
        path.write_text("".join(
            ",".join(f"{quote}{c}{quote}" for c in record) + "\n" for record in records
        ), encoding="utf-8")
        outcomes.append(outcome(read_features_lists, path))
    assert outcomes[0] == outcomes[1]


def test_features_without_rows_or_columns_load_as_zero_columns(tmp_path):
    obs = tmp_path / "observations.csv"
    obs.write_text("object_id,source_id,value\no0,s0,a\no0,s1,b\n")
    feats = tmp_path / "features.csv"
    for text, shape in (("source_id,f0,f1\n", (2, 2)), ("source_id\ns0\n", (2, 0))):
        feats.write_text(text)
        inst, _ = load_instance(obs, feats)
        assert inst.features.shape == shape and not inst.features.any()


def test_factorize_merges_cells_that_trim_alike():
    cells = ["b ", "a", " b", "b", "a ", "c"]
    distinct, codes = factorize(cells + ["a"])
    assert distinct == tuple(cells) and codes.tolist() == [0, 1, 2, 3, 4, 5, 1]
    distinct, codes = factorize(cells, strip=True)
    assert distinct == ("b", "a", "c")
    assert codes.dtype == np.int64 and codes.tolist() == [0, 1, 0, 0, 1, 2]
    assert factorize([], strip=True)[0] == () and factorize([])[1].size == 0


def ref_dump_json(obj):
    return json.dumps(round_floats(obj), sort_keys=True, indent=2) + "\n"


json_scalars = (st.none() | st.booleans() | st.integers() | st.text(max_size=4)
                | st.floats(allow_nan=True, allow_infinity=True))
json_payloads = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=24,
)
JSON_PAYLOADS = [
    {"a": math.nan, "b": math.inf, "c": -math.inf, "d": 0.1 + 0.2, "e": -0.0},
    {"empty": {}, "none": [], "nested": {"x": [[], {}], "y": [{}]}},
    {"ünï": "日本", "値": ["é", "\u2028", "\0"], "ascii": "a\"b\\c\n"},
    {"n": 3, "big": 10**30, "t": True, "f": False, "z": None, "m": [1, 1.0, True]},
    {"values": {f"o{i}": f"v{i % 3}" for i in range(50)},
     "accuracies": {f"s{i}": 1 / (i + 3) for i in range(9)}},
    {"rows": [{"config": {"train_fraction": 0.01, "rep": r}, "seed": r,
               "algorithm": "erm", "object_accuracy": 2 / 3,
               "weighted_accuracy_error": None, "runtime_ms": None}
              for r in range(3)]},
    {"accuracies": {"s0": np.float64(0.1234567890123456)}, "w": (1.5, 2)},
    [], {}, 1.0000000000001, "plain", None,
]


@pytest.mark.parametrize("payload", JSON_PAYLOADS)
def test_dump_json_matches_indent_encoder(tmp_path, payload):
    dump_json(payload, tmp_path / "out.json")
    assert (tmp_path / "out.json").read_bytes() == ref_dump_json(payload).encode()


@settings(max_examples=200, deadline=None)
@given(payload=json_payloads)
def test_dump_json_matches_indent_encoder_on_random_payloads(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "out.json"
    dump_json(payload, path)
    assert path.read_bytes() == ref_dump_json(payload).encode()


# -- writing simulated instances ----------------------------------------------


def ref_write_instance(result, out):
    """The `csv.writer` loops `write_instance` replaced, for observations and
    truth."""
    inst = result.instance
    with open(out / "observations.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["object_id", "source_id", "value"])
        for o, s, value in inst.triples():
            writer.writerow([inst.objects[o], inst.sources[s], value])
    with open(out / "truth.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["object_id", "value"])
        loadable = result.truth.restricted_to_domains(inst)
        for o in sorted(loadable.labels):
            writer.writerow([inst.objects[o], loadable.labels[o]])


# Names and values that csv.writer must quote (comma, quote, record ends),
# blank, padded, non-ASCII or NUL, next to plain ones.
WRITE_CELLS = ("o0", "a,b", 'q"t', '"', "p\nq", "r\r\ns", "t\ru", "", " ", " x ",
               "é", "東京", "😀", "\0", "a-very-long-cell" * 4, "s1", "v")


@st.composite
def written_instances(draw):
    names = st.lists(st.sampled_from(WRITE_CELLS), min_size=1, max_size=6,
                     unique=True)
    sources, objects = draw(names), draw(names)
    triples = []
    for o in range(len(objects)):
        observers = draw(st.lists(st.integers(0, len(sources) - 1), min_size=1,
                                  unique=True))
        triples += [(o, s, draw(st.sampled_from(WRITE_CELLS))) for s in observers]
    inst = FusionInstance.from_triples(sources, objects, triples)
    # Some labels name a value no source reported, which the writer drops.
    labels = draw(st.dictionaries(st.integers(0, len(objects) - 1),
                                  st.sampled_from(WRITE_CELLS)))
    return SimResult(inst, GroundTruth(labels), np.zeros(len(sources)), np.zeros(0))


@settings(max_examples=200, deadline=None)
@given(result=written_instances())
def test_write_instance_matches_the_csv_writer_loop(tmp_path_factory, result):
    base = tmp_path_factory.mktemp("written")
    write_instance(result, base / "got")
    (base / "want").mkdir()
    ref_write_instance(result, base / "want")
    for name in ("observations.csv", "truth.csv"):
        assert (base / "got" / name).read_bytes() == (base / "want" / name).read_bytes()


@pytest.mark.parametrize("rows_per_block", [1, 2, 7])
def test_write_instance_blocks_do_not_change_the_file(tmp_path, monkeypatch,
                                                       rows_per_block):
    sim = generate(SimConfig(n_sources=6, n_objects=20, density=0.5, seed=3))
    ref_write_instance(sim, tmp_path)
    monkeypatch.setattr(io, "_ROWS_PER_BLOCK", rows_per_block)
    write_instance(sim, tmp_path / "blocks")
    for name in ("observations.csv", "truth.csv"):
        assert (tmp_path / "blocks" / name).read_bytes() == (tmp_path / name).read_bytes()


# -- the lasso subproblem -------------------------------------------------------


def ref_lasso_qp(q, r, v, l1):
    """`_lasso_qp`'s coordinate descent on arrays, which the float loop
    replaced."""
    if l1 == 0.0:
        return v + np.linalg.lstsq(q, -r, rcond=None)[0]
    diag = np.diag(q)
    u = v.copy()
    grad = r.copy()
    for _ in range(1000):
        largest = 0.0
        for k in range(u.size):
            new = 0.0
            if diag[k] > 0:
                new = _soft_threshold(diag[k] * u[k] - grad[k], l1) / diag[k]
            delta = new - u[k]
            if delta:
                grad += q[:, k] * delta
                u[k] = new
                largest = max(largest, abs(delta))
        if largest <= 1e-12 * max(1.0, float(np.max(np.abs(u), initial=0.0))):
            break
    return u


@st.composite
def lasso_problems(draw):
    """A PSD q = A A' of size K <= 6 whose zeroed rows of A give coordinates
    without curvature, and r, v and l1 >= 0 (often 0, at times below the
    gradients or exactly on a coordinate's |x|)."""
    k = draw(st.integers(1, 6))
    entry = st.floats(-3, 3, allow_subnormal=False)
    a = np.array(draw(st.lists(entry, min_size=k * k, max_size=k * k))).reshape(k, k)
    flat = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    a[np.array(flat)] = 0.0
    vec = st.lists(st.floats(-5, 5, allow_subnormal=False), min_size=k, max_size=k)
    r, v = np.array(draw(vec)), np.array(draw(vec))
    l1 = draw(st.one_of(st.just(0.0), st.floats(0, 5), st.sampled_from(np.abs(r).tolist())))
    return a @ a.T, r, v, l1


@settings(max_examples=400, deadline=None)
@given(problem=lasso_problems())
def test_lasso_qp_equals_the_array_loop(problem):
    q, r, v, l1 = problem
    got = _lasso_qp(q, r.copy(), v.copy(), l1)
    want = ref_lasso_qp(q, r.copy(), v.copy(), l1)
    assert got.dtype == want.dtype and got.shape == want.shape
    # Bit for bit, signed zeros included.
    assert got.tobytes() == want.tobytes()
