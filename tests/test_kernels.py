"""The vectorised kernels against the per-object loops they replaced.

Each reference below is the earlier loop implementation, kept verbatim in
substance: the kernels must give the same numbers (bit for bit where the
additions happen in the same order) and consume the rng the same way.
"""

import numpy as np
import pytest
from scipy import special

from trustfuse import (
    FusionInstance,
    InstanceError,
    add_copying_features,
    em_units,
    posterior_all,
)
from trustfuse.model import argmax_with_ties, candidate_scores
from trustfuse.optimizer import agreement_matrix
from trustfuse.simulation import SimConfig, generate
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


def ref_em_units(instance, avg_accuracy, per_observer=True):
    def entropy_bits(p):
        if p <= 0.0 or p >= 1.0:
            return 0.0
        return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))

    total = 0.0
    for m, d in zip(instance.obs_counts, instance.cand_counts):
        m, d = int(m), int(d)
        p_e = float(special.bdtrc(min(m // d, m - 1), m, avg_accuracy))
        if p_e >= 0.5:
            total += (m if per_observer else 1) * (1.0 - entropy_bits(p_e))
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
        for per_observer in (True, False):
            assert em_units(inst, acc, per_observer) == ref_em_units(
                inst, acc, per_observer
            )


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
