"""Finite-group toolkit for n-closed subsets, cosets, and normality.

A subset D of a group (or semigroup) is n-closed when every ordered
product of n factors from D stays in D. This package decides that
property exactly on Cayley-table-backed structures, analyzes when cosets
are n-closed (least exponent, least closedness, full spectrum), extracts
the subgroup hiding behind any finite n-closed non-subgroup set, and
decides normality purely through coset closedness, cross-checked against
the classical conjugation sweep.
"""

from .closedness import (
    CosetReport,
    SpectrumDescription,
    SubgroupExtraction,
    SubgroupReport,
    analyze_coset,
    analyze_subgroup,
    closedness_spectrum,
    extract_subgroup,
    is_n_closed,
    is_n_closed_oracle,
    least_closed_scan,
    least_exponent,
    least_power_exponent,
    n_closed_witness,
    power_coset_closedness,
    semigroup_shift_2closed,
)
from .errors import NClosedError
from .groups import (
    Element,
    FiniteGroup,
    FiniteSemigroup,
    direct_product,
    dump_cayley_table,
    element_order,
    inverse,
    load_cayley_table,
    make_named,
    mul,
    power,
    validate_cayley_table,
    validate_semigroup_table,
)
from .normality import (
    NormalityVerdict,
    normal_iff_existential,
    normal_iff_index_plus_one,
)
from .parsing import parse_group_spec, parse_permutation, parse_subset_spec
from .scan import ScanReport, run_scan
from .subsets import (
    CosetPartition,
    GSubset,
    Subgroup,
    all_subgroups,
    coset_commutes,
    generated_subgroup,
    index,
    is_normal_classic,
    is_subgroup,
    left_cosets,
    product_set,
    proper_subgroups,
    translate,
)
from .verify import (
    CLAIMS,
    DEFAULT_CORPUS,
    VerificationReport,
    run_verification,
)

__version__ = "0.1.0"
