import os

# One BLAS thread unless the caller chose otherwise, set before numpy is
# imported: the small dense solves of the suite run several times slower
# with threaded BLAS.  Tests that compare thread counts set the variable for
# their child processes themselves.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("default", max_examples=40, deadline=None)
settings.register_profile("fast", max_examples=10, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
