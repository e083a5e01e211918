"""Settings shared by every test module."""

from hypothesis import settings

# The same examples on every run, so a property test passes or fails
# reproducibly; no per-example deadline, since timings vary by machine.
settings.register_profile("replay", derandomize=True, deadline=None)
settings.load_profile("replay")
