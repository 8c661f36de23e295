"""Shared test settings.

Hypothesis runs derandomized, so every run draws the same examples, and
without a deadline, because a shared host's speed can swing by 2x between
examples. No example database is written. The dss-deep profile is the
same with 1000 examples per property; select it with
``pytest --hypothesis-profile=dss-deep``, which overrides the default
loaded here.
"""

from hypothesis import settings

settings.register_profile("dss", derandomize=True, deadline=None, database=None)
settings.register_profile("dss-deep", settings.get_profile("dss"), max_examples=1000)
settings.load_profile("dss")
