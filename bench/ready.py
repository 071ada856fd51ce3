"""Set-up probe: a fresh interpreter that does what a user's run does before
it can solve -- import lichtorus, parse each config file named on the
command line and build its coefficients -- then prints the CPU time this
process has used since it started, interpreter start included, in
nanoseconds.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lichtorus import cli, config  # noqa: E402,F401  (cli: the import a CLI run makes)

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        config.parse_config(fh.read()).coefficients()
print(time.process_time_ns())
