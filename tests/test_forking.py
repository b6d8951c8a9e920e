"""``forking.ahead`` as a stream: the items of ``fn(*args)`` from a forked
child, in order, with None for every item from the first that cannot be had."""

from __future__ import annotations

import os
import pickle
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from auss import forking

from conftest import assert_no_child_process

FAILURES = ("exit", "raise", "unpicklable", "truncated")


@pytest.fixture(autouse=True)
def forking_on(monkeypatch):
    monkeypatch.setattr(forking, "fork_worthwhile", lambda: True)


def _items(n: int) -> list:
    return [{"run": k, "values": [k / 7, -k, None]} for k in range(n)]


def _stream(n: int, bad: int | None = None, failure: str = ""):
    """``_items(n)`` one at a time; at index ``bad`` the child fails as ``failure`` says."""
    for k, item in enumerate(_items(n)):
        if k == bad:
            if failure == "exit":
                os._exit(3)
            if failure == "raise":
                raise RuntimeError("stream broke")
            if failure == "unpicklable":
                item = threading.Lock()
        yield item


def _take(calls: int, *args) -> list:
    with forking.ahead(_stream, *args) as next_item:
        return [next_item() for _ in range(calls)]


@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 5), calls=st.integers(0, 7))
def test_items_arrive_in_order_then_none(n, calls):
    # Fewer calls than items leave the child to be killed on leaving the block.
    assert _take(calls, n) == (_items(n) + [None] * calls)[:calls]
    assert_no_child_process()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 5),
    data=st.data(),
    failure=st.sampled_from(FAILURES),
    extra=st.integers(0, 2),
)
def test_every_item_from_the_first_bad_one_is_none(n, data, failure, extra):
    bad = data.draw(st.integers(0, n - 1), label="bad")
    dumps = pickle.dumps
    parent = os.getpid()

    def truncating(obj, protocol):
        payload = dumps(obj, protocol)
        return payload[:-1] if os.getpid() != parent and obj == _items(n)[bad] else payload

    with pytest.MonkeyPatch.context() as patch:
        if failure == "truncated":
            patch.setattr(pickle, "dumps", truncating)
        taken = _take(n + extra, n, bad, failure)
    assert taken == _items(bad) + [None] * (n + extra - bad)
    assert_no_child_process()


def test_an_item_arrives_before_the_next_is_computed():
    def slow_second():
        yield "first"
        time.sleep(60)
        yield "second"

    start = time.perf_counter()
    with forking.ahead(slow_second) as next_item:
        assert next_item() == "first"
    assert time.perf_counter() - start < 30  # the sleeping child was killed, not awaited
    assert_no_child_process()

