"""Claim rewriting: overgenerate candidates, score, select, evaluate."""

__version__ = "0.1.0"
