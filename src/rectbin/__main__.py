import sys

from rectbin.cli import main

sys.exit(main())
