"""ocalab: an exact simulation laboratory for one-way one-counter machines.

Machines (deterministic, probabilistic, blind, nondeterministic,
universal, Las Vegas and quantum) are immutable transition tables
simulated with exact rational / algebraic arithmetic; promise problems
come with oracles and instance generators; adversary procedures
construct or search for refutations of over-claimed machines.
"""
from . import amplitudes, classical, core, dsl, problems, quantum, zoo
from .amplitudes import *
from .classical import *
from .core import *
from .dsl import *
from .problems import *
from .quantum import *
from .zoo import *

__version__ = "0.1.0"

__all__ = sorted(name for module in (amplitudes, classical, core, dsl, problems, quantum, zoo)
                 for name in module.__all__)
