"""Exception types shared across the package.

``ValueError`` (and ``IndexError``) are reserved for misuse of an API:
bad dimensions, out-of-range orders, malformed parameters.  The classes
below signal *domain* failures, where the input is well formed but does
not have the mathematical structure an operation requires.  The CLI maps
domain failures to exit code 1, and usage failures and ``MemoryError``
(a size no machine can hold) to exit code 2.

Validation runs once, at the public boundary: a public function checks
its array arguments on entry and hands values it has checked or built
itself to private ``_`` kernels of its own module, which trust their
arrays; calls into another module go through its public names.  The
boundary validators raise ``ValueError`` (``as_matrix``,
``frames._check_synthesis``, ``hadamard._as_int_square``,
``complex_lift._check_signature_structure``) or a domain error
(``check_skew``: ``NotSkewSymmetricError``; ``tournaments.check_seidel``
and ``_check_skew_int``: ``InvalidSeidelError``).  Exact checks that
decide an answer derived in floating point are not validation; they
always run.  A certified ETF Gram whose rounding fails the exact
conference check (``hadamard.etf_to_conference``) raises
``RoundingError``; a lifted signature that fails its quadratic raises
``SignatureError``.
"""


class DomainError(Exception):
    """Input is well formed but lacks the required mathematical structure."""


class NotSkewSymmetricError(DomainError):
    pass


class NotAFrameError(DomainError):
    pass


class FactorizationError(DomainError):
    """Gram factorization failed: zero rank or odd numerical rank."""


class NotEtfError(DomainError):
    """A certified square or core ETF Gram matrix was required."""


class NotEquiangularError(DomainError):
    pass


class RoundingError(DomainError):
    """Entries did not round cleanly to the expected integer pattern."""


class InvalidSeidelError(DomainError):
    """Matrix is not the Seidel adjacency matrix of a tournament."""


class NotSkewHadamardError(DomainError):
    pass


class NotSkewConferenceError(DomainError):
    pass


class SignatureError(DomainError):
    """A constructed complex-ETF signature failed its quadratic."""


class NotPsdError(DomainError):
    pass


class RankMismatchError(DomainError):
    pass
