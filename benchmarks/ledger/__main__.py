"""``python -m benchmarks.ledger ...``: same arguments as ``run.py``."""

import sys

from benchmarks.ledger.run import main

sys.exit(main())
