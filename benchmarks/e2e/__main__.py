import sys

from benchmarks.e2e.harness import main

sys.exit(main())
