"""Hypothesis profiles. ``HYPOTHESIS_PROFILE=ci`` (set by the CI workflow)
draws the same examples on every run and prints the blob that reproduces a
failure; without it Hypothesis keeps its default profile. Tests keep their
own ``max_examples``."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
