"""Reach a ready CLI in a fresh interpreter: import the package (which
selects the kernel lane) and build the argument parser, then exit.

The benchmark times this whole process as ``setup_s``: it is what every
``bergeturan`` invocation pays before it does any work.
"""

from bergeturan import cli

cli.build_parser()
