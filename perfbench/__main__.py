"""``python3 -m perfbench`` entry point."""

from .cli import main

raise SystemExit(main())
