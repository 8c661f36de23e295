"""Shared test settings.

Hypothesis runs derandomized, so every run draws the same examples, and
without a deadline, because a shared host's speed can swing by 2x between
examples. No example database is written.
"""

from hypothesis import settings

settings.register_profile("dss", derandomize=True, deadline=None, database=None)
settings.load_profile("dss")
