"""``python -m equitau`` runs the ``equitau`` command."""
from .cli import main

raise SystemExit(main())
