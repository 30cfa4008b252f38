"""Exception types shared across the package.

The command line maps these onto exit codes: DocumentError -> 2,
ValidationError -> 1, InternalFault -> 3.  Everything else is an
ordinary bug and propagates as-is.
"""

from __future__ import annotations


class KinsilaError(Exception):
    """Base class for errors raised by this package."""


class JacobiError(KinsilaError):
    """Structure constants violate the Jacobi identity.

    Carries the violating basis triple and the nonzero defect vector so the
    failure is reproducible by hand.
    """

    def __init__(self, triple, defect):
        self.triple = triple
        self.defect = defect
        i, j, k = triple
        super().__init__(
            f"Jacobi identity fails on basis triple ({i}, {j}, {k}); "
            f"cyclic sum = ({', '.join(str(c) for c in defect)})"
        )


class NonAbelianRadicalError(KinsilaError):
    """Levi complement construction requires an abelian solvable radical."""


class RepError(KinsilaError):
    """Matrices do not define a Lie algebra representation."""


class SimplicityUndecided(KinsilaError):
    """No candidate element of a semisimple module's commutant E decided
    its simplicity; raised instead of guessing.  It cannot occur when E is
    the scalars or a quaternion algebra, nor when a candidate (E's basis,
    then pairwise sums and differences) has a reducible minimal
    polynomial or, in a commutative E, an irreducible one of degree dim E.
    """


class DecompositionError(KinsilaError):
    """No invariant complement exists among the available intertwiners.

    For a module claimed to be a direct sum of simples this signals the
    claim is false (a non-split extension, for instance).
    """


class ValidationError(KinsilaError):
    """Input fails the definition of a generalized kinematical Lie algebra.

    ``code`` names the first failed check; ``items`` is the full ordered
    list of (check name, passed) pairs that were evaluated.
    """

    def __init__(self, code, message, items=()):
        self.code = code
        self.items = tuple(items)
        super().__init__(f"{code}: {message}")


class InternalFault(KinsilaError):
    """A theorem-backed invariant failed on a validated input.

    This never indicates bad user data; it indicates a bug in this package
    (or a counterexample to the underlying mathematics).  ``certificate``
    holds exact data reproducing the contradiction.
    """

    def __init__(self, message, certificate=None):
        self.certificate = certificate or {}
        super().__init__(message)


class DocumentError(KinsilaError):
    """A document cannot be parsed, or a file read or written."""

    def __init__(self, message, location=None):
        self.location = location
        if location:
            super().__init__(f"{location}: {message}")
        else:
            super().__init__(message)
