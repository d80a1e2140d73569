"""Property tests: the indexed matcher is observationally identical to
the seed linear-scan matcher.

The bucketed :class:`IndexedMatcher` replaces the O(pending) linear scan
on the P2P hot path.  Its correctness contract is *exact* behavioural
equivalence with :class:`LinearMatcher` under any interleaving of posts
and exact / ``ANY_SOURCE`` / ``ANY_TAG`` receives: same match/no-match
outcomes, same delivery order (arrival order among eligible messages),
and therefore the same per-(src, context, tag) FIFO guarantee.
"""

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.runtime.message import (
    ANY_SOURCE,
    ANY_TAG,
    Envelope,
    IndexedMatcher,
)
from tests.oracle import LinearMatcher

SRCS = [0, 1, 2]
TAGS = [0, 1, 2]
CTXS = [1, 2]

_counter = itertools.count()


def mk_env(src, tag, ctx, payload):
    return Envelope(
        src=src, dst=0, tag=tag, context=ctx,
        payload=payload, nbytes=8, seq=0,
    )


# One operation: ('post', src, tag, ctx) or ('recv', source, tag, ctx)
post_op = st.tuples(
    st.just("post"), st.sampled_from(SRCS), st.sampled_from(TAGS),
    st.sampled_from(CTXS),
)
recv_op = st.tuples(
    st.just("recv"),
    st.sampled_from(SRCS + [ANY_SOURCE]),
    st.sampled_from(TAGS + [ANY_TAG]),
    st.sampled_from(CTXS),
)
ops_strategy = st.lists(st.one_of(post_op, recv_op), min_size=1, max_size=60)


def drive(matcher, ops):
    """Apply an op sequence; return the delivery trace."""
    trace = []
    for i, (kind, a, b, ctx) in enumerate(ops):
        if kind == "post":
            matcher.add(mk_env(a, b, ctx, payload=i))
        else:
            env = matcher.take(a, b, ctx)
            trace.append(None if env is None else
                         (env.payload, env.src, env.tag, env.context))
    return trace


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops_strategy)
def test_property_indexed_matches_linear_trace(ops):
    """Any interleaving of posts and exact/wildcard receives yields the
    identical delivery trace on both matchers."""
    linear, indexed = LinearMatcher(), IndexedMatcher()
    assert drive(linear, ops) == drive(indexed, ops)
    assert len(linear) == len(indexed)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops_strategy)
def test_property_indexed_preserves_per_bucket_fifo(ops):
    """Deliveries within one (src, tag, context) bucket come out in
    arrival (post) order -- the MPI non-overtaking rule."""
    matcher = IndexedMatcher()
    trace = [t for t in drive(matcher, ops) if t is not None]
    per_bucket = {}
    for payload, src, tag, ctx in trace:
        per_bucket.setdefault((src, tag, ctx), []).append(payload)
    for deliveries in per_bucket.values():
        # payloads are the op indices, so post order == numeric order
        assert deliveries == sorted(deliveries)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops_strategy)
def test_property_wildcards_deliver_in_arrival_order(ops):
    """A fully wildcarded receive always returns the *oldest* pending
    message of its context, across buckets."""
    matcher = IndexedMatcher()
    pending = {ctx: [] for ctx in CTXS}
    for i, (kind, a, b, ctx) in enumerate(ops):
        if kind == "post":
            matcher.add(mk_env(a, b, ctx, payload=i))
            pending[ctx].append(i)
        else:
            env = matcher.take(ANY_SOURCE, ANY_TAG, ctx)
            if pending[ctx]:
                assert env is not None and env.payload == pending[ctx].pop(0)
            else:
                assert env is None


class TestMatcherUnits:
    def test_exact_take_is_one_comparison(self):
        m = IndexedMatcher()
        for i in range(50):
            m.add(mk_env(src=i % 5, tag=0, ctx=1, payload=i))
        before = m.comparisons
        env = m.take(4, 0, 1)
        assert env is not None and env.payload == 4
        assert m.comparisons == before + 1   # one bucket lookup, O(1)

    def test_linear_take_scans_pending(self):
        m = LinearMatcher()
        for i in range(50):
            m.add(mk_env(src=i % 5, tag=0, ctx=1, payload=i))
        before = m.comparisons
        env = m.take(4, 0, 1)
        assert env is not None and env.payload == 4
        assert m.comparisons == before + 5   # scanned to the 5th envelope

    def test_empty_buckets_are_removed(self):
        m = IndexedMatcher()
        m.add(mk_env(0, 0, 1, payload="x"))
        assert m.take(0, 0, 1).payload == "x"
        assert len(m) == 0
        assert m._ctx == {}   # no empty deques linger for wildcard scans

    def test_peek_does_not_consume(self):
        for cls in (IndexedMatcher, LinearMatcher):
            m = cls()
            m.add(mk_env(1, 2, 1, payload="p"))
            assert m.peek(ANY_SOURCE, ANY_TAG, 1).payload == "p"
            assert len(m) == 1
            assert m.take(1, 2, 1).payload == "p"
            assert m.peek(ANY_SOURCE, ANY_TAG, 1) is None

    def test_context_isolation(self):
        m = IndexedMatcher()
        m.add(mk_env(0, 0, 1, payload="ctx1"))
        assert m.take(0, 0, 2) is None
        assert m.take(ANY_SOURCE, ANY_TAG, 2) is None
        assert m.take(0, 0, 1).payload == "ctx1"


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.sampled_from([1, 2]), st.integers(0, 2)),
                min_size=1, max_size=20))
def test_property_runtime_matchers_agree_end_to_end(plan):
    """Whole-runtime equivalence: the same send plan drained through
    fully-wildcarded receives delivers the same per-source streams under
    both matchers (and each stream is in send order -- non-overtaking)."""
    from repro.runtime import ANY_SOURCE as ANY_SRC, ANY_TAG as ANY_T
    from repro.runtime import Runtime, Status

    def job(matcher):
        rt = Runtime(n_tasks=3, timeout=10.0)
        # runtime mailboxes are always indexed; swap in the matcher
        # under test before any task runs
        for mbox in rt._mailboxes:
            mbox.matcher = matcher()

        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                got = []
                st_ = Status()
                for _ in plan:
                    val = c.recv(source=ANY_SRC, tag=ANY_T, status=st_)
                    got.append((st_.source, val))
                return got
            for i, (s, tag) in enumerate(plan):
                if s == ctx.rank:
                    c.send(i, dest=0, tag=tag)
            return None

        return rt.run(main)[0]

    res_indexed = job(IndexedMatcher)
    res_linear = job(LinearMatcher)
    for src in (1, 2):
        expect = [i for i, (s, _) in enumerate(plan) if s == src]
        assert [v for s, v in res_indexed if s == src] == expect
        assert [v for s, v in res_linear if s == src] == expect
