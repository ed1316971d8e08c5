"""``python -m chainlab``: the batch front-end of :mod:`chainlab.cli`."""

from .cli import console_main

console_main()
