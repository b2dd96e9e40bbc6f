"""Numerical configuration constants.

Tolerances and truncations used across the package. These are
deliberate engineering choices, collected here so no module hard-codes
magic numbers.
"""

# Slack used when asserting the lower-bound construction inequalities.
CONDITION_SLACK = 1e-10

# exp() argument beyond which the chi-square mixture bound overflows.
CHI2_EXP_OVERFLOW = 700.0

# Default truncation for summing explicit smoothness sequences.
SEQUENCE_SUM_TRUNCATION = 10 ** 6
