"""Shared test settings.

Property tests run under a derandomized hypothesis profile: every run draws
the same examples, no example database is written, and the example count is
bounded so the suite stays reproducible and quick.
"""

from hypothesis import settings

settings.register_profile("pslstm", derandomize=True, deadline=None,
                          max_examples=30, database=None)
settings.load_profile("pslstm")
