"""Hypothesis settings for the test suite.

``HYPOTHESIS_PROFILE=ci`` selects the ``ci`` profile: examples drawn from a
fixed seed (a failure in CI reproduces on every rerun) and no per-example
deadline on shared runners.  Without the variable every run draws afresh.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)

if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
