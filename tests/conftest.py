"""Import cirlab before any test module imports numpy, so that the
package's one-thread BLAS cap takes effect in the test process too (the
acceptance matrix runs two worker processes, which a two-thread BLAS pool
in each would oversubscribe)."""

import cirlab  # noqa: F401
