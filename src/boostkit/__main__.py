import sys

from .cli import main
from .stumps import _keep_heap

_keep_heap()  # the CLI process keeps its heap; importers of boostkit keep their allocator
sys.exit(main())
