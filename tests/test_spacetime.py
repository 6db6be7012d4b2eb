import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ordinal import (BoundExceeded, Event, IntervalPair, NonPositiveBoost,
                     NotQuantifiable, NotSynchronized, ObserverChain, OrdinalError,
                     boost_frame, causal_grid, causal_grid_poset, causal_leq,
                     check_synchronized, coordinatize, interval_pair, project)
from ordinal.spacetime import _last_inside, _sync_window


def rest_chain(x, tick=1, rng=(0, 200), label=""):
    return ObserverChain(origin=Event(0, x), tick=F(tick), index_range=rng,
                         label=label)


def project_oracle(e, c):
    """Independent oracle: scan the whole declared range for the least cover."""
    lo, hi = c.index_range
    for i in range(lo, hi + 1):
        if causal_leq(e, c.event(i)):
            return i
    return None


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)


# --- causal order ---

def test_causal_order_examples():
    assert causal_leq(Event(0, 0), Event(2, 1))
    assert not causal_leq(Event(0, 0), Event(1, 2))
    assert not causal_leq(Event(1, 0), Event(1, 2))
    assert not causal_leq(Event(1, 2), Event(1, 0))


@settings(max_examples=200, deadline=None)
@given(rationals, rationals, rationals, rationals, rationals, rationals)
def test_causal_order_axioms(t1, x1, t2, x2, t3, x3):
    a, b, c = Event(t1, x1), Event(t2, x2), Event(t3, x3)
    assert causal_leq(a, a)
    if causal_leq(a, b) and causal_leq(b, a):
        assert a == b
    if causal_leq(a, b) and causal_leq(b, c):
        assert causal_leq(a, c)


# --- projection ---

def test_projection_of_off_chain_event():
    assert project(Event(2, 1), rest_chain(0)) == 3


def test_projection_of_on_chain_event():
    c = rest_chain(0)
    for i in (0, 4, 9):
        assert project(c.event(i), c) == i


def test_projection_out_of_range():
    with pytest.raises(NotQuantifiable):
        project(Event(0, 100), rest_chain(0, rng=(0, 10)))


def test_projection_matches_range_scan_oracle():
    rng = random.Random(2203)
    chains = [ObserverChain(origin=Event(F(rng.randint(-3, 3)), F(rng.randint(-6, 6))),
                            k=F(rng.choice([1, 1, 2, 3]), rng.choice([1, 2])),
                            tick=F(rng.choice([1, 1, 2]), rng.choice([1, 2])),
                            index_range=(0, 60))
              for _ in range(8)]
    for _ in range(120):
        e = Event(F(rng.randint(-4, 10)), F(rng.randint(-8, 8)))
        for c in chains:
            expected = project_oracle(e, c)
            if expected is None:
                with pytest.raises(NotQuantifiable):
                    project(e, c)
            else:
                assert project(e, c) == expected


def test_projection_is_monotone_on_the_grid():
    events = causal_grid(8)
    chains = [rest_chain(-1, rng=(-40, 400)),
              rest_chain(12, rng=(-40, 400)),
              ObserverChain(origin=Event(0, -1), k=F(1, 2), tick=F(1, 2),
                            index_range=(-40, 400)),
              ObserverChain(origin=Event(0, 12), k=F(2, 3), tick=F(1, 6),
                            index_range=(-40, 800)),
              rest_chain(-3, tick=F(1, 3), rng=(-40, 400))]
    for c in chains:
        for e1 in events:
            for e2 in events:
                if causal_leq(e1, e2):
                    assert project(e1, c) <= project(e2, c)


def test_coordinatize_pair():
    chains = [rest_chain(0), rest_chain(5)]
    assert coordinatize(Event(2, 1), chains) == (3, 6)


def test_coordinatize_on_chain_with_offset():
    p, q = rest_chain(0), rest_chain(7)
    for k in (0, 3, 8):
        assert coordinatize(p.event(k), [p, q]) == (k, k + 7)


def test_coordinatize_empty_chain_list():
    assert coordinatize(Event(1, 1), []) == ()


def test_coordinatize_reports_offending_chain():
    chains = [rest_chain(0, label="near"), rest_chain(50, rng=(0, 10), label="far")]
    with pytest.raises(NotQuantifiable, match="far"):
        coordinatize(Event(0, 0), chains)


# --- synchronization ---

def test_rest_chains_with_equal_ticks_synchronize():
    assert check_synchronized(rest_chain(0), rest_chain(4), (0, 10))


def test_mismatched_ticks_do_not_synchronize():
    assert not check_synchronized(rest_chain(0), rest_chain(4, tick=2), (0, 10))


def test_chain_synchronizes_with_itself():
    c = rest_chain(0)
    assert check_synchronized(c, c, (0, 10))


def test_synchronization_needs_quantifiable_window():
    with pytest.raises(NotQuantifiable):
        check_synchronized(rest_chain(0, rng=(0, 5)), rest_chain(4, rng=(0, 5)),
                           (0, 5))


def test_empty_synchronization_window_is_rejected():
    with pytest.raises(ValueError, match="empty index window"):
        check_synchronized(rest_chain(0), rest_chain(4), (5, 2))


def test_one_index_synchronization_window_is_rejected():
    # a window of one index compares no step, so it would pass anything
    with pytest.raises(ValueError, match=r"index window \[3, 3\] holds one index"):
        check_synchronized(rest_chain(0), rest_chain(4), (3, 3))


# --- intervals ---

def test_interval_pair_rest_frame():
    ip = interval_pair(Event(0, 0), Event(2, 1), rest_chain(0), rest_chain(5))
    assert (ip.dp, ip.dq) == (3, 1)
    assert (ip.dt, ip.dx) == (2, 1)
    assert ip.ds2 == 3


def test_interval_of_identical_events_is_zero():
    ip = interval_pair(Event(1, 1), Event(1, 1), rest_chain(0), rest_chain(5))
    assert (ip.dp, ip.dq) == (0, 0) and ip.ds2 == 0


def test_lightlike_interval():
    ip = interval_pair(Event(0, 0), Event(1, 1), rest_chain(0), rest_chain(5))
    assert ip.dq == 0 and ip.ds2 == 0


def test_interval_requires_synchronized_chains():
    with pytest.raises(NotSynchronized):
        interval_pair(Event(0, 0), Event(2, 1), rest_chain(0), rest_chain(5, tick=2))


def test_interval_needs_a_shared_index_window():
    p = rest_chain(0, rng=(0, 10))
    q = ObserverChain(origin=Event(-30, 5), index_range=(25, 40))
    with pytest.raises(NotSynchronized, match="no index window"):
        interval_pair(Event(0, 0), Event(2, 1), p, q)


def test_interval_near_the_end_of_both_ranges():
    # Q's element j projects onto P's j + 5 and back, so the window the
    # events span, [152, 200], is checked only up to index 195
    p, q = rest_chain(0), rest_chain(5)
    ip = interval_pair(Event(150, 3), Event(195, 0), p, q)
    assert (ip.dp, ip.dq) == (45 - 3, 45 + 3)


def test_interval_whose_window_clips_to_one_index():
    # every projection of these events is at index 195 or above, so the
    # window is the last two indices that project inside: [194, 195]
    p, q = rest_chain(0), rest_chain(5)
    ip = interval_pair(Event(195, 0), Event(195, 3), p, q)
    assert (ip.dp, ip.dq) == (3, -3)


def test_interval_whose_window_clips_to_one_index_of_a_range():
    # P projects both events onto its last index, 3, and Q onto 4; the
    # window [3, 4] clips to P's range as [3, 3], so it takes the index
    # below, and over [2, 3] the chains are not synchronized
    p = ObserverChain(origin=Event(1, 1), k=1, index_range=(0, 3))
    q = ObserverChain(origin=Event(F(-1, 2), -1), k=2, index_range=(0, 5))
    e1, e2 = Event(F(3, 2), F(-3, 4)), Event(F(9, 4), F(11, 4))
    assert coordinatize(e1, (p, q)) == coordinatize(e2, (p, q)) == (3, 4)
    assert not check_synchronized(p, q, (2, 3))
    with pytest.raises(NotSynchronized, match=r"over indices \(2, 3\)"):
        interval_pair(e1, e2, p, q)


def test_interval_of_one_event_at_the_last_index():
    # the window [10, 11] clips to [10, 10] and takes the index below it;
    # a range of one index has none below
    c = rest_chain(0, rng=(0, 10))
    ip = interval_pair(Event(10, 0), Event(10, 0), c, c)
    assert (ip.dp, ip.dq) == (0, 0)
    c = rest_chain(0, rng=(0, 0))
    with pytest.raises(NotSynchronized, match="fewer than two indices"):
        interval_pair(Event(0, 0), Event(0, 0), c, c)


def test_interval_needs_two_indices_that_project_inside():
    # only P's index 0 projects inside Q's range [0, 5]: P's 1 lands on Q's 6
    p, q = rest_chain(0), rest_chain(5, rng=(0, 5))
    with pytest.raises(NotSynchronized, match="fewer than two indices"):
        interval_pair(Event(0, 0), Event(0, 0), p, q)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 200), st.integers(0, 5), st.integers(0, 200), st.integers(0, 5))
def test_rest_intervals_inside_both_ranges(t1, x1, t2, x2):
    # events both chains' ranges measure give (dt + dx, dt - dx)
    p, q = rest_chain(0), rest_chain(5)
    e1, e2 = Event(min(t1, t2), x1), Event(max(t1, t2), x2)
    if any(project_oracle(e, c) is None for e in (e1, e2) for c in (p, q)):
        with pytest.raises(NotQuantifiable):
            interval_pair(e1, e2, p, q)
        return
    ip = interval_pair(e1, e2, p, q)
    dt, dx = e2.t - e1.t, e2.x - e1.x
    assert (ip.dp, ip.dq) == (dt + dx, dt - dx)


# --- synchronization against the loops it replaced ---

def reference_check_synchronized(p, q, index_range):
    """check_synchronized as a loop that compares each projection with the
    one before it."""
    lo, hi = index_range
    if hi < lo:
        raise ValueError(f"empty index window [{lo}, {hi}]")
    if hi == lo:
        raise ValueError(f"index window [{lo}, {hi}] holds one index, so it "
                         "compares no step")
    for a, b in ((p, q), (q, p)):
        previous = None
        for i in range(lo, hi + 1):
            j = project(a.event(i), b)
            if previous is not None and j != previous + 1:
                return False
            previous = j
    return True


def reference_sync_window(indices, p, q):
    """_sync_window as a widening, a clamp per chain and a slide to the
    last two indices that project inside."""
    lo, hi = min(indices), max(indices)
    if hi == lo:
        hi = lo + 1  # need one consecutive step to say anything
    for c in (p, q):
        lo = max(lo, c.index_range[0])
        hi = min(hi, c.index_range[1])
    if hi < lo:
        raise NotSynchronized(
            "chains share no index window around the events, so "
            "synchronization cannot be verified")
    last = min(_last_inside(p, q), _last_inside(q, p))
    if hi > last:
        lo, hi = min(lo, last - 1), last
    elif hi == lo:
        lo -= 1
    if lo < max(p.index_range[0], q.index_range[0]):
        raise NotSynchronized(
            "chains project into each other's ranges on fewer than two "
            "indices, so synchronization cannot be verified")
    return lo, hi


def outcome(f, *args):
    """f's result, or the class and message of what it raised."""
    try:
        return f(*args)
    except (OrdinalError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def chain_pairs(draw):
    """Two chains with k in {1, 2, 1/2, 3/2}, tick in {1, 1/2, 2}, small
    rational origins and ranges of one to 21 indices; the second shares the
    first's k and tick half of the time, so that some pairs synchronize."""
    small = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    k = st.sampled_from([F(1), F(2), F(1, 2), F(3, 2)])
    tick = st.sampled_from([F(1), F(1, 2), F(2)])
    p_k, p_tick = draw(k), draw(tick)
    same = draw(st.booleans())
    chains = []
    for c_k, c_tick in ((p_k, p_tick), (p_k, p_tick) if same else (draw(k), draw(tick))):
        lo = draw(st.integers(-3, 4))
        chains.append(ObserverChain(origin=Event(draw(small), draw(small)), k=c_k, tick=c_tick,
                                    index_range=(lo, lo + draw(st.integers(0, 20)))))
    return chains


window_indices = st.integers(-4, 24)


@settings(max_examples=500, deadline=None)
@given(chain_pairs(), st.lists(window_indices, min_size=1, max_size=4))
def test_sync_window_matches_reference(chains, indices):
    p, q = chains
    assert outcome(_sync_window, indices, p, q) == outcome(reference_sync_window, indices, p, q)


@settings(max_examples=500, deadline=None)
@given(chain_pairs(), st.data())
def test_check_synchronized_matches_reference(chains, data):
    # windows from the chains' first shared index, empty and one-index
    # windows included, and windows past either range
    p, q = chains
    lo = data.draw(st.integers(max(p.index_range[0], q.index_range[0]) - 2, 24))
    window = (lo, lo + data.draw(st.integers(-2, 8)))
    assert (outcome(check_synchronized, p, q, window)
            == outcome(reference_check_synchronized, p, q, window))


def test_decompose_pure_time_and_pure_space():
    time_like, space_like = IntervalPair(F(5), F(5)), IntervalPair(F(1), F(-1))
    assert (time_like.dt, time_like.dx) == (5, 0)
    assert (space_like.dt, space_like.dx) == (0, 1)
    assert time_like.ds2 == 25
    assert space_like.ds2 == -1


@settings(max_examples=100, deadline=None)
@given(rationals, rationals)
def test_decomposition_round_trip(dp, dq):
    ip = IntervalPair(dp, dq)
    dt, dx = ip.dt, ip.dx
    assert (dt + dx, dt - dx) == (ip.dp, ip.dq)
    assert ip.ds2 == dt * dt - dx * dx


# --- boosts ---

def test_identity_boost():
    ip = IntervalPair(F(3), F(1))
    assert boost_frame(1).apply(ip) == ip


def test_boost_two_example_exact():
    ip = IntervalPair(F(3), F(1))
    b = boost_frame(2)
    out = b.apply(ip)
    assert (out.dp, out.dq) == (6, F(1, 2))
    assert out.ds2 == ip.ds2 == 3
    assert (out.dt, out.dx) == (F(13, 4), F(11, 4))
    # a chain with parameter k moves at the boost's velocity
    c = ObserverChain(origin=Event(0, 0), k=b.k)
    assert (c.beta, c.gamma) == (F(3, 5), F(5, 4))
    # orientation check against the standard velocity transformation
    assert out.dt == c.gamma * (ip.dt + c.beta * ip.dx)
    assert out.dx == c.gamma * (ip.dx + c.beta * ip.dt)


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=F(1, 4), max_value=4, max_denominator=6),
       st.fractions(min_value=F(1, 4), max_value=4, max_denominator=6),
       rationals, rationals)
def test_boost_composition_and_invariance(k1, k2, dp, dq):
    ip = IntervalPair(dp, dq)
    once = boost_frame(k2).apply(boost_frame(k1).apply(ip))
    assert once == boost_frame(k1 * k2).apply(ip)
    assert once.ds2 == ip.ds2


def test_boost_must_be_positive():
    with pytest.raises(NonPositiveBoost):
        boost_frame(0)
    with pytest.raises(NonPositiveBoost):
        boost_frame(F(-3, 2))


# --- frame invariance from actual projections ---

def frame_chain_pairs():
    """Rest pair plus physical chain pairs matching boosts k = 3/2 and k = 2."""
    span = (-40, 900)
    return {
        "rest": (rest_chain(-1, rng=span), rest_chain(12, rng=span)),
        "k=3/2": (ObserverChain(origin=Event(0, -1), k=F(2, 3), tick=F(1, 6),
                                index_range=span),
                  ObserverChain(origin=Event(0, 12), k=F(2, 3), tick=F(1, 6),
                                index_range=span)),
        "k=2": (ObserverChain(origin=Event(0, -1), k=F(1, 2), tick=F(1, 2),
                              index_range=span),
                ObserverChain(origin=Event(0, 12), k=F(1, 2), tick=F(1, 2),
                              index_range=span)),
    }


def test_scalar_interval_is_frame_invariant_on_the_grid():
    frames = frame_chain_pairs()
    for p, q in frames.values():
        assert check_synchronized(p, q, (0, 60))
    events = causal_grid(8)
    for i, e1 in enumerate(events):
        for e2 in events[i + 1:]:
            scalars = set()
            for p, q in frames.values():
                scalars.add(interval_pair(e1, e2, p, q, check_sync=False).ds2)
            assert len(scalars) == 1
            expected = (e2.t - e1.t) ** 2 - (e2.x - e1.x) ** 2
            assert scalars == {expected}


def test_physical_boosted_projections_match_boost_frame():
    frames = frame_chain_pairs()
    e1, e2 = Event(0, 0), Event(2, 1)
    rest = interval_pair(e1, e2, *frames["rest"])
    for k, name in ((F(3, 2), "k=3/2"), (F(2), "k=2")):
        boosted = interval_pair(e1, e2, *frames[name])
        assert boosted == boost_frame(k).apply(rest)


def test_desynchronized_pair_breaks_invariance():
    good = interval_pair(Event(0, 0), Event(2, 1), rest_chain(0), rest_chain(5))
    bad = interval_pair(Event(0, 0), Event(2, 1), rest_chain(0),
                        rest_chain(5, tick=2), check_sync=False)
    assert good.ds2 == 3
    assert bad.ds2 != good.ds2


def test_three_chains_admit_no_single_decomposition():
    # P measures dt+dx, Q measures dt-dx, and a third desynchronized chain R
    # reports a label difference no (dt, dx) can reproduce alongside Q's.
    e1, e2 = Event(0, 0), Event(2, 1)
    p = rest_chain(-1)
    q = rest_chain(12)
    r = rest_chain(12, tick=2)
    assert check_synchronized(p, q, (0, 20))
    assert not check_synchronized(p, r, (0, 20))
    dp = (project(e2, p) - project(e1, p)) * p.tick
    dq = (project(e2, q) - project(e1, q)) * q.tick
    dr = (project(e2, r) - project(e1, r)) * r.tick
    assert (dp, dq, dr) == (3, 1, 2)
    candidates = [(F(num_t, 4), F(num_x, 4))
                  for num_t in range(-16, 17) for num_x in range(-16, 17)]
    candidates += [(ip.dt, ip.dx) for ip in (IntervalPair(dp, dq), IntervalPair(dp, dr))]
    # a left chain would report dt+dx, each right chain dt-dx
    consistent = [(dt, dx) for dt, dx in candidates
                  if dt + dx == dp and dt - dx == dq and dt - dx == dr]
    assert consistent == []


# --- fixtures ---

def test_causal_grid_counts():
    assert len(causal_grid(2)) == 4
    assert len(causal_grid(3)) == 9


def test_causal_grid_bounds():
    for make in (causal_grid, causal_grid_poset):
        with pytest.raises(BoundExceeded, match=r"^grid size 0 outside 1\.\.64$"):
            make(0)
        with pytest.raises(BoundExceeded, match=r"^grid size 65 outside 1\.\.64$"):
            make(65)


def test_causal_grid_poset_matches_predicate():
    p = causal_grid_poset(3)
    assert p.leq("(0,0)", "(2,1)")
    assert not p.leq("(0,0)", "(1,2)")
    events = causal_grid(3)
    for a in events:
        for b in events:
            assert p.leq(f"({a.t},{a.x})", f"({b.t},{b.x})") == causal_leq(a, b)


def test_chain_parameter_velocity():
    c = ObserverChain(origin=Event(0, 0), k=F(2))
    assert c.beta == F(3, 5)
    assert c.gamma == F(5, 4)
    step = c.event(1)
    assert step.x / step.t == c.beta


def test_chain_elements_are_totally_ordered():
    c = ObserverChain(origin=Event(F(1, 2), -3), k=F(3, 2), tick=F(2, 3),
                      index_range=(0, 12))
    for i in range(0, 13):
        for j in range(0, 13):
            assert causal_leq(c.event(i), c.event(j)) == (i <= j)


def test_chain_event_outside_its_range():
    c = rest_chain(0, rng=(-2, 3))
    assert c.event(-2) == Event(-2, 0) and c.event(3) == Event(3, 0)
    for i in (-3, 4):
        with pytest.raises(ValueError, match=f"index {i} outside declared range"):
            c.event(i)


def test_chain_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ObserverChain(origin=Event(0, 0), k=0)
    with pytest.raises(ValueError):
        ObserverChain(origin=Event(0, 0), tick=-1)
    with pytest.raises(ValueError):
        ObserverChain(origin=Event(0, 0), index_range=(5, 2))
