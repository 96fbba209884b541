"""Every numerical threshold of the package, named once with its reason.

Each constant is one yes/no decision on a float (a singular value counts
as null, a defect counts as zero, a residual is small enough to accept),
and every module that makes the decision reads it from here.  A
comparison keeps its own operator at its call site.  Budgets and caps
(``pauli.DENSE_QUBIT_CAP``, ``xl.NODE_BUDGET``) are sizes, not
tolerances, and stay beside their code.
"""

# -- exact zero -----------------------------------------------------------

# A magnitude below this is an exact zero, not a small number: the norm of
# a zero matrix, a zero purity, an entry that elimination cancelled.
ZERO_FLOOR = 1e-300

# A generator entry smaller in magnitude than the least normal float is
# zero: LAPACK's eig returns wrong eigenvectors for a block holding a
# subnormal entry (a jump rate of 5e-324 gives V = I for
# [[-1, 5e-324], [1, -5e-324]]), and such an entry lies far below the
# generator's rounding floor.
SUBNORMAL_FLOOR = 2.2250738585072014e-308

# -- Pauli algebra --------------------------------------------------------

# Every sum, product and decomposition drops coefficients below this:
# rounding residue of words that cancel.
COEFF_PRUNE_TOL = 1e-14

# A Pauli sum is Hermitian, and a weight reads as real, when no
# coefficient has an imaginary part above this: specs, observables and
# ansatz patterns are given, not computed, so they carry no rounding.
PAULI_HERMITICITY_TOL = 1e-12

# -- dense operators and spectra ------------------------------------------

# A dense matrix is Hermitian within this entrywise defect: a density
# matrix, and the generator whose decay gap bounds the pipeline's runtime.
HERMITICITY_TOL = 1e-10

# A density matrix has unit trace within this, in real and imaginary part.
TRACE_TOL = 1e-10

# A density matrix is PSD when no eigenvalue lies below -PSD_SLACK, the
# rounding of an eigvalsh on a desk-scale matrix.
PSD_SLACK = 1e-9

# Singular values at or below rtol * s_max span the null space, whose
# dimension is the steady count.
NULL_SPACE_RTOL = 1e-10

# Eigenvectors with a condition number at or above this are numerically
# dependent, so the generator counts as not diagonalizable.
DIAGONALIZABLE_COND_MAX = 1e8

# Eigenvalues with |Re| at or below this are steady modes, not decay, so
# the gap is the smallest |Re| above it.
DECAY_RATE_FLOOR = 1e-9

# A null vector whose Hermitian part has |trace| below this is a traceless
# direction, which no state repairs to: the steady space is degenerate.
STEADY_TRACE_FLOOR = 1e-8

# Clipping more than this much negative eigenvalue mass from a trace-one
# steady candidate means it is not a state: the steady space is degenerate.
REPAIR_MASS_MAX = 0.25

# RK4 evolution whose trace drifts from 1 by more than this has taken too
# few steps for its time.
EVOLVE_TRACE_DRIFT_TOL = 1e-6

# The Pauli-sum and the dense squared generators agree entry by entry
# within this; a larger gap is a construction bug.
LDL_FORMS_TOL = 1e-10

# A doubled-register sum with M = S M^* S violated by more than this is no
# squared generator: a construction bug, or a target to reject.
EXCHANGE_PAIRING_TOL = 1e-10

# A generator block S maps onto another is that block's permuted conjugate
# within this times max|B|, and takes its factors; exact on real jumps,
# about eps where BLAS forms F^dag F, and below the backward error of eig.
EXCHANGE_PARTNER_RTOL = 1e-12

# A self-paired block is factored in real form when T^dag B T has no
# imaginary part above this times max|B|: dropping it then perturbs B by
# less than the backward error of eig.
REAL_FORM_RTOL = 1e-12

# -- verify checks --------------------------------------------------------

# spectrum_nonnegative: the smallest eigenvalue of L^dag L is >= -slack.
LDL_NEGATIVE_SLACK = 1e-9

# ground_energy_zero: the smallest eigenvalue of L^dag L is below this in
# magnitude.
GROUND_ENERGY_TOL = 1e-8

# st_symmetric: ||M S - S M^*||_F of L^dag L is below this.
ST_COMMUTATOR_TOL = 1e-9

# spectrum_left_half_plane: no eigenvalue of L has real part above this.
LEFT_HALF_PLANE_SLACK = 1e-9

# substitute_table: a brute-force entry agrees with its Pauli form, its
# closed form and the word read within this.
SUBSTITUTE_TABLE_TOL = 1e-12

# ratio_identity_spot_checks: the exact ratio matches the vectorized
# expectation within this.
SPOT_CHECK_TOL = 1e-11

# -- measurement ----------------------------------------------------------

# A brute-force two-qubit substitute is a permutation matrix, unitary to
# rounding; a larger defect is a bug in the index rule.
TABLE_UNITARY_TOL = 1e-12

# The exact numerator of a Hermitian observable is real: an imaginary part
# above this times max(1, |real part|) is an inconsistent input.
NUMERATOR_IMAG_RTOL = 1e-11

# A Hadamard read x = Re Tr(Q rho(x)rho) of a unitary Q obeys |x| <= 1; an
# overshoot above this is an inconsistent input, not rounding.
READ_OVERSHOOT_TOL = 1e-9

# -- XL -------------------------------------------------------------------

# A target is Hermitian within this imaginary weight; it is built by
# Pauli products, so it carries more rounding than an input sum.
TARGET_HERMITICITY_TOL = 1e-10

# Every Pauli coefficient of L_P^dag L_P is a real polynomial in the
# unknowns; an imaginary part above this is a bug in the expansion.
EXPANSION_IMAG_TOL = 1e-9

# Entries below rtol * row max count as zero.
PIVOT_RTOL = 1e-12

# An eliminated row 0 = c with |c| above this makes the system
# inconsistent; below it the row is dropped.
INFEASIBLE_TOL = 1e-8

# An equation whose unknowns are all substituted may leave this much
# residual; more makes the branch infeasible.
SUBST_PRUNE_TOL = 1e-6

# A root with |Im| above this times max(1, |root|) is not real.
ROOT_IMAG_TOL = 1e-8

# A rate root below -NEGATIVE_RATE_TOL is negative and dropped; one above
# it is a rounded zero or more, clipped to >= 0.
NEGATIVE_RATE_TOL = 1e-8

# Roots within this times (1 + |x|) of each other are one root.
ROOT_DEDUPE_RTOL = 1e-9

# A root solves another univariate row when the row's value there is at
# most this times its scale and max(1, |x|)^degree.
ROOT_FILTER_RTOL = 1e-6

# Largest residual of a returned assignment in the original equations.
RESIDUAL_TOL = 1e-8

# -- encodings ------------------------------------------------------------

# A circuit layer, or a Hadamard read's substitute c s A SWAP, is unitary
# within this defect.
UNITARY_TOL = 1e-10
