"""Suite-wide settings: hypothesis draws the same examples on every run."""

from hypothesis import settings

# derandomize fixes the examples per test, so tier-1 stays deterministic;
# with no example database a run leaves nothing behind that alters the next
settings.register_profile("fewtune", derandomize=True, deadline=None, database=None)
settings.load_profile("fewtune")
