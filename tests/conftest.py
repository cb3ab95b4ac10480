"""Settings of the test process itself.

Importing the package writes no bytecode into ``src/``, so a developer
without ``PYTHONDONTWRITEBYTECODE`` set times the same cold CLI start-up
after a test run as the benchmark does; the child interpreters that the
tests start run with ``-B`` for the same reason.
"""

import sys

sys.dont_write_bytecode = True
