"""Exact crystal combinatorics on Maya diagrams with a Fock-space oracle."""

__version__ = "0.1.0"
