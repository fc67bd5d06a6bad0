"""Hypothesis runs the same examples on every run and has no per-example deadline.

Derandomized examples keep the suite repeatable run to run; timing noise on
small shared hosts would otherwise trip the default 200 ms deadline.
"""

from hypothesis import settings

settings.register_profile("sublap", derandomize=True, deadline=None, database=None)
settings.load_profile("sublap")
