"""Small-ball probabilities of signed sums driven by reversible Markov chains.

Exact transfer-matrix laws and characteristic functions, quadrature-evaluated
anti-concentration bounds with fitted constants, expander-walk pseudorandom
sign sets, Monte Carlo estimation, and brute-force oracles for every
inequality the bounds rest on.
"""

from .bounds import (
    BoundReport,
    FittedConstant,
    binomial_negative_moments,
    cosine_product_integrals,
    esseen_bound,
    fit_constant,
    load_constants,
    theorem_bound,
)
from .chains import (
    MarkovChain,
    SignSystem,
    WeightSystem,
    load_chain_file,
    load_weights_file,
    make_independent_chain,
    make_sign_system,
    make_two_state_chain,
    make_weight_system,
    parity_labels,
    repeated_signs,
    spectral_lambda,
    spectral_lambdas,
    validate_chain,
    validate_chains,
)
from .oracles import (
    HolderInstance,
    averaging_identity_reports,
    enumerate_paths,
    holder_sides,
    switching_stats,
)
from .prg import (
    ExpanderGraph,
    PrgSpec,
    build_mgg_expander,
    certify_lambda,
    enumerate_walks,
    prg_smallball,
)
from .sampling import (
    McEstimate,
    first_coord_tails,
    sample_signs,
    smallball_mc,
)
from .transfer import (
    CharFnValue,
    SumDistribution,
    char_fn,
    exact_sum_distribution,
    find_prime,
    mod_p_point_probability,
    smallball_exact,
    zp_fourier_average,
)

__version__ = "0.1.0"
