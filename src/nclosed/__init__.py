"""Finite-group toolkit for n-closed subsets, cosets, and normality.

A subset D of a group (or semigroup) is n-closed when every ordered
product of n factors from D stays in D. This package decides that
property exactly on Cayley-table-backed structures, analyzes when cosets
are n-closed (least exponent, least closedness, full spectrum), extracts
the subgroup hiding behind any finite n-closed non-subgroup set, and
decides normality purely through coset closedness, cross-checked against
the classical conjugation sweep.

The package exports the names the README documents; everything else
lives in its modules (groups, subsets, closedness, normality, parsing,
scan, verify).
"""

from .closedness import (
    ClosednessProfile,
    analyze_coset,
    analyze_subgroup,
    closedness_profile,
    closedness_spectrum,
    extract_subgroup,
    is_n_closed,
    is_n_closed_oracle,
    least_closed_scan,
    least_power_exponent,
    power_coset_closedness,
)
from .errors import NClosedError
from .groups import Element, dump_cayley_table, make_named
from .normality import normal_iff_existential, normal_iff_index_plus_one
from .parsing import parse_group_spec
from .subsets import GSubset, Subgroup, is_normal_classic, left_cosets

__version__ = "0.1.0"
