"""Toolkit for constructed normal sequences and exact automatic complexity.

Modules:
- bitstrings: binary words, window codes, square detection
- debruijn: de Bruijn string generation and rotation
- psc: Champernowne sequences built from de Bruijn rotations
- tseq: the layered de Bruijn power sequence
- automata: total binary DFAs and exact acceptance counting
- acsearch: exact automatic complexity with certified witnesses
- witness: chain-and-loop witness automata and their certificates
- dio: linear Diophantine solution families and enumeration
- analysis: normality statistics and exact rate-bound series
- cli: command-line entry point
"""

from .automata import Dfa
from .bitstrings import BitString

__all__ = ["BitString", "Dfa"]
__version__ = "0.1.0"
