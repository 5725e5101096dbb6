"""Exception types shared across the package.

``ValueError`` (and ``IndexError``) are reserved for misuse of an API:
bad dimensions, out-of-range orders, malformed parameters.  The classes
below signal *domain* failures, where the input is well formed but does
not have the mathematical structure an operation requires.  The CLI maps
domain failures to exit code 1, and usage failures, ``MemoryError`` (a
size no machine can hold) and ``FloatingPointError`` (input or an order
so large that float64 overflows) to exit code 2.  Besides numpy's own
overflow, ``FloatingPointError`` comes from ``skewlinalg._rank``, the one
rank count, when the largest value of a spectrum passes float64, from
``skewlinalg._tight_factor`` when a tight Gram's block value does, from
``potentials.normalize_nuclear`` when the nuclear norm does, from
``frames.is_tight`` and ``hadamard.etf_to_conference`` when the tightness constant
does, and from ``hadamard.doubling_coefficients`` when the coefficients do.

Validation runs once, at the public boundary: a public function checks
its array arguments on entry and hands values it has checked or built
itself to private ``_`` kernels, which trust their arrays.  Calls into
another module go through its public names, except that a public entry
point may hand arrays it validated or built itself to another module's
``_`` kernel: ``search`` with the ``potentials`` kernels of its descent loop,
``frames`` and ``search`` with the symplectic Gram kernel ``skewlinalg._gram``,
``frames`` and ``potentials`` with the row kernel of omega
``skewlinalg._omega_rows``, ``frames.factor_gram`` and
``symplectic_witness`` with ``skewlinalg._tight_factor``,
``complex_lift.synthesis_from_signature`` and ``search.gerzon_oracle`` with
``skewlinalg._rank``, ``hadamard.etf_to_conference`` with ``frames._equiangularity``, and
``hadamard``'s exact checks, which read C C^T - (m-1) I as the residual of
the one exact +-1 identity kernel ``tournaments._unit_gram``.  Boundary
validators raise ``ValueError`` (``as_matrix``, ``frames._check_synthesis``,
``complex_lift._check_signature_structure``, the one even-dimension rule
``skewlinalg._check_even_dim``, and for ``hadamard`` the one integer
validator ``tournaments._as_int_square``) or a domain error (``check_skew``:
``NotSkewSymmetricError``; ``tournaments.check_seidel``, which has ``_as_int_square``
raise ``InvalidSeidelError``; nothing in ``hadamard`` raises or catches it).
Exact checks that decide an answer derived in floating point are not
validation; they always run.  ``hadamard.etf_to_conference`` is the one
exact ETF gate: it raises ``NotEtfError`` for an odd dimension, a wrong size, a
size outside ``frames.admissible_sizes`` or a Gram that is not equiangular, and
``RoundingError`` when g/mu misses a Seidel matrix S or S fails its conference
check; ``certify_etf`` returns None for both.
Its callers in ``hadamard`` and ``complex_lift`` raise the same, and
``hadamard.seidel_from_gram`` raises ``RoundingError`` too.
"""


class DomainError(Exception):
    """Input is well formed but lacks the required mathematical structure."""


class NotSkewSymmetricError(DomainError):
    pass


class NotAFrameError(DomainError):
    pass


class FactorizationError(DomainError):
    """Gram factorization failed: the Gram has numerical rank zero."""


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


class NotPsdError(DomainError):
    pass


class RankMismatchError(DomainError):
    pass
