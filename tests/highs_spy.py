"""A recording stand-in for the HiGHS instance of an LP core.

``HighsSpy`` forwards every call to the instance it wraps and records the
method's name; ``per_run`` cuts such a record at each ``run``.  The
``highs_calls`` fixture in ``conftest.py`` wraps the instance of every
`_ScipyCore` made while a test runs.
"""


class HighsSpy:
    """Forwards every call to a HiGHS instance and records the method's name."""

    def __init__(self, highs, calls: list):
        self._highs, self._calls = highs, calls

    def __getattr__(self, name):
        method = getattr(self._highs, name)

        def call(*args):
            self._calls.append(name)
            return method(*args)

        return call


def per_run(calls: list) -> list[list]:
    """One list per HiGHS run: the calls after the run before it, up to and including this one."""
    runs = [[]]
    for name in calls:
        runs[-1].append(name)
        if name == "run":
            runs.append([])
    return runs[:-1]
