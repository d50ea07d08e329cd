"""The ordered fork-map: the results and the first error of `map`."""

import multiprocessing

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transferaudit import parallel
from transferaudit.parallel import ordered_map

pytestmark = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the map forks")


@settings(max_examples=20, deadline=None)
@given(items=st.lists(st.integers(), max_size=300), cpus=st.integers(1, 3),
       offset=st.integers())
def test_ordered_map_equals_map(items, cpus, offset):
    fn = lambda x: (x * 3 + offset, str(x))  # noqa: E731  (a lambda does not pickle)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel, "usable_cpus", lambda: cpus)
        assert list(ordered_map(fn, items)) == list(map(fn, items))
    assert multiprocessing.active_children() == []


@settings(max_examples=20, deadline=None)
@given(data=st.data(), n=st.integers(1, 300), cpus=st.integers(1, 3))
# 300 items in 2 workers go in chunks of 4; the error is inside one
@example(data=None, n=300, cpus=2)
def test_ordered_map_raises_the_first_error_after_the_results_before_it(data, n, cpus):
    if data is None:
        bad = {130, 131, 200}
    else:
        bad = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3), label="bad")

    def fn(i):
        if i in bad:
            raise ValueError(f"item {i}")
        return -i

    results = []
    with pytest.MonkeyPatch.context() as patch, pytest.raises(ValueError) as info:
        patch.setattr(parallel, "usable_cpus", lambda: cpus)
        for result in ordered_map(fn, range(n)):
            results.append(result)
    first = min(bad)
    assert results == [-i for i in range(first)]
    assert info.value.args == (f"item {first}",)
    if min(n, cpus) > 1:  # a worker raised it, and its traceback comes along
        assert f"ValueError: item {first}" in str(info.value.__cause__)
    assert multiprocessing.active_children() == []
