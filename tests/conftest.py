"""Hypothesis profiles.  With ``CI`` set, the ``ci`` profile draws the same
examples on every run, so a property test cannot fail on one run and pass
on the next; local runs keep drawing at random.  Each test sets its own
example count, which the profile leaves alone."""

import os

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    settings = None

if settings is not None:
    settings.register_profile("ci", derandomize=True)
    if os.environ.get("CI"):
        settings.load_profile("ci")
