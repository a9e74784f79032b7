import sys

from .argv import main

sys.exit(main())
