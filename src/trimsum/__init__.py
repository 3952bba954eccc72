"""Divisibility tests of the trimming, summing and binomial families,
over arbitrary bases and arbitrary-precision digit strings.

The package root exports what the README's Library section uses; every
other name is imported from its module (``trimsum.families``,
``trimsum.oracle``, ...)."""

from .digits import DigitString, parse
from .families import TestRule, Trace, apply_once, divides_via, iterate

__version__ = "0.1.0"

__all__ = ["DigitString", "TestRule", "Trace", "apply_once", "divides_via", "iterate", "parse"]
