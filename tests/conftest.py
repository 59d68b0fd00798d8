"""Hypothesis settings shared by the suite.

Under ``CI`` (set by GitHub Actions) the ``ci`` profile is loaded: examples
are derived from each test's source rather than drawn at random, so a
property failure replays exactly on every Python of the matrix, no example
is held to a deadline on a slow runner, and a failure prints the blob that
reproduces it.  Run ``CI=true python -m pytest -q`` to get it locally.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)

if os.environ.get("CI"):
    settings.load_profile("ci")
