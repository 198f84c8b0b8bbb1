"""Shared test settings: every Hypothesis property runs derandomized (the same
examples on every run, so no example database) and without a deadline."""

from hypothesis import settings

settings.register_profile("mipclass", deadline=None, derandomize=True)
settings.load_profile("mipclass")
