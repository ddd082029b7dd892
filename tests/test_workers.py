"""Helper processes on their own: how many, the request/reply protocol, errors and cleanup."""

import os

import pytest

from conftest import TwoArgError, blas_env, fail_os_call, no_child_left, open_fds

from consem import workers as workers_module
from consem.errors import ContractError
from consem.workers import Helper, worker_count


def _square(x):
    return x * x


def _raising(make_error):
    def handle(request):
        raise make_error()

    return handle


class TestWorkerCount:
    @pytest.mark.parametrize(
        "cpus,units,workers",
        [(1, 0, 1), (1, 1, 1), (1, 2, 1), (1, 50, 1), (2, 0, 1), (2, 1, 1), (2, 2, 2), (2, 50, 2),
         (10_000, 0, 1), (10_000, 1, 1), (10_000, 2, 2), (10_000, 50, 2)],
    )
    def test_one_process_per_usable_cpu_at_most_two_and_at_most_one_per_unit(self, cpus, units, workers, monkeypatch):
        blas_env(monkeypatch, OPENBLAS_NUM_THREADS="1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert worker_count(units) == workers

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_platform_without_fork_or_affinity_is_one_process(self, missing, monkeypatch):
        blas_env(monkeypatch, OPENBLAS_NUM_THREADS="1")
        monkeypatch.delattr(os, missing)
        assert worker_count(50) == 1

    @pytest.mark.parametrize(
        "env",
        [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "4"},
         {"GOTO_NUM_THREADS": "8", "OMP_NUM_THREADS": "1"}, {"MKL_NUM_THREADS": "0"}, {"OMP_NUM_THREADS": ""}],
    )
    def test_blas_not_held_to_one_thread_is_one_process(self, env, monkeypatch):
        blas_env(monkeypatch, **env)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert worker_count(50) == 1

    @pytest.mark.parametrize(
        "env",
        [{"OPENBLAS_NUM_THREADS": "1"}, {"OMP_NUM_THREADS": "1"}, {"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}],
    )
    def test_blas_held_to_one_thread_allows_two(self, env, monkeypatch):
        blas_env(monkeypatch, **env)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(10_000)))
        assert worker_count(50) == 2


@pytest.mark.usefixtures("time_bound")
class TestHelper:
    def test_replies_come_back_in_request_order(self):
        helper = Helper.start(_square)
        try:
            for x in (3, 1, 2):
                helper.send(x)
            assert [helper.receive() for _ in range(3)] == [9, 1, 4]
        finally:
            helper.close()
        no_child_left()

    def test_a_handler_error_is_raised_and_the_helper_keeps_serving(self):
        helper = Helper.start(lambda x: 1 // x)
        try:
            helper.send(0)
            with pytest.raises(ZeroDivisionError):
                helper.receive()
            helper.send(1)
            assert helper.receive() == 1
        finally:
            helper.close()
        no_child_left()

    @pytest.mark.parametrize(
        "error,shown",
        [
            (lambda: ContractError(lambda: None), r"^ContractError\(<function "),
            (lambda: TwoArgError(1, 2), r"^TwoArgError\('1 and 2'\)$"),
        ],
    )
    def test_handler_error_that_does_not_pickle_arrives_as_its_repr(self, error, shown):
        helper = Helper.start(_raising(error))
        try:
            helper.send(None)
            with pytest.raises(RuntimeError, match=shown):
                helper.receive()
        finally:
            helper.close()
        no_child_left()

    @pytest.mark.parametrize("name,at", [("pipe", 1), ("pipe", 2), ("fork", 1)])
    def test_a_pipe_or_process_that_cannot_be_made_is_none(self, name, at, monkeypatch):
        fds = open_fds()
        fail_os_call(monkeypatch, name, at)
        assert Helper.start(_square) is None
        assert open_fds() == fds
        no_child_left()

    def test_a_helper_that_exits_before_its_reply_is_an_error(self):
        helper = Helper.start(lambda request: os._exit(3))
        try:
            helper.send(None)
            with pytest.raises(ChildProcessError, match=rf"^worker {helper.pid} exited before sending its reply$"):
                helper.receive()
            with pytest.raises(ChildProcessError, match=rf"^worker {helper.pid} exited before sending its reply$"):
                for _ in range(1 << 10):  # more than a pipe holds, so a write meets the closed end
                    helper.send(bytes(1 << 10))
        finally:
            helper.close()
        no_child_left()

    def test_closing_one_helper_reaps_it_while_a_sibling_runs(self):
        first, second = Helper.start(_square), Helper.start(_square)
        try:
            first.close()
            # The sibling holds none of the first helper's pipe ends, so the
            # first read EOF and exited; had it not, close would wait forever.
            second.send(5)
            assert second.receive() == 25
        finally:
            second.close()
        assert workers_module.Helper._live == []
        no_child_left()
