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


def test_the_calling_thread_is_one_of_the_workers():
    seen = set()

    def record(item):
        seen.add(threading.current_thread())
        time.sleep(0.01)  # long enough that no one thread takes every item
        return item

    assert map_on_cores(record, range(8), 2) == list(range(8))
    assert len(seen) == 2 and threading.main_thread() in seen
    seen.clear()
    map_on_cores(record, range(3), 1)
    assert seen == {threading.main_thread()}  # one job runs every item on the caller


@pytest.mark.parametrize("on_caller", [False, True], ids=["worker", "caller"])
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
