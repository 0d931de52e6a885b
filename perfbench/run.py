"""Run one workload of the repository benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-tax --seed 1 --seconds 20 --trace 0

The last line of standard output is the result object
(``correct``/``attempted``/``failed``/``metrics``); see ``perfbench/README.md``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cfdbench.main import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
