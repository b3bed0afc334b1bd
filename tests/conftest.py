"""Test-session settings: every hypothesis test runs derandomized, with
examples drawn from a fixed seed and no per-example deadline, unless its
own @settings say otherwise."""

from hypothesis import settings

settings.register_profile("iqtower", derandomize=True, deadline=None)
settings.load_profile("iqtower")
