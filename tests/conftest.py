"""Import the CLI first, so the tests run BLAS on the thread count the
`blowuplab` command runs it on, and the numbers the scoreboard certifies
are the ones the CLI prints."""

import blowuplab.cli  # noqa: F401  (sets OPENBLAS_NUM_THREADS before numpy)
