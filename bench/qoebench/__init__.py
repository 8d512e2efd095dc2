"""The vantage-point benchmark of this repository (see ``bench/README.md``).

Everything here measures ``repro`` from outside, through its public
functions; nothing under ``src/`` knows this package exists.
"""
