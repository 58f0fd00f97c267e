"""Hypothesis profiles.  ``--hypothesis-profile=ci`` draws the same examples
on every run and prints a reproduction blob for a failure; without it, runs
stay random."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
