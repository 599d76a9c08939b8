import sys
import threading
import time

import pytest

from semsnr.errors import DomainError
from semsnr.parallel import map_on_cores


@pytest.mark.parametrize("jobs", [1, 2, 3, 8])
@pytest.mark.parametrize("count", [0, 1, 2, 5, 17])
def test_map_on_cores_returns_results_in_input_order(jobs, count):
    def square(item):
        time.sleep(0.001 * (item % 3))  # items finish out of order
        return item * item

    assert map_on_cores(square, range(count), jobs) == [i * i for i in range(count)]


def test_only_one_thread_of_work_runs_on_the_caller():
    seen = []

    def record(item):
        seen.append((item, threading.current_thread()))
        time.sleep(0.01)  # long enough that no one thread takes every item
        return item

    assert map_on_cores(record, range(8), 2) == list(range(8))
    threads = {thread for _, thread in seen}
    assert threading.main_thread() not in threads and len(threads) == 2
    for jobs, count in ((1, 3), (2, 1), (8, 1)):
        seen.clear()
        assert map_on_cores(record, range(count), jobs) == list(range(count))
        assert seen == [(item, threading.main_thread()) for item in range(count)], (jobs, count)


# at 2 jobs every item runs on a worker thread, so the error can only come from one
@pytest.mark.parametrize("on_caller", [False], ids=["worker"])
def test_an_error_reaches_the_caller_and_no_later_item_starts(on_caller):
    started = []

    def item(index):
        started.append(index)
        if (threading.current_thread() is threading.main_thread()) == on_caller:
            raise DomainError(f"item {index} failed")
        time.sleep(0.05)  # the other thread is still in its item when the error comes
        return index

    with pytest.raises(DomainError, match="^item [0-9]+ failed$"):
        map_on_cores(item, range(20), 2)
    assert len(started) <= 3, started  # not the 20 a run that ignored the error would start


def test_the_first_error_in_input_order_is_raised_and_far_items_never_start():
    started = []

    def item(index):
        started.append(index)
        if index == 5:
            raise DomainError(f"item {index} failed")
        time.sleep(0.01)
        return index

    with pytest.raises(DomainError, match="^item 5 failed$"):
        map_on_cores(item, range(20), 2)
    assert 5 in started and not [index for index in started if index >= 12], started


def test_every_item_runs_once_under_frequent_thread_switches():
    # more threads than cores, switching often: a lost or doubled index would show
    ran = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = map_on_cores(lambda item: ran.append(item) or -item, range(3000), 8)
    finally:
        sys.setswitchinterval(interval)
    assert results == [-i for i in range(3000)]
    assert sorted(ran) == list(range(3000))
