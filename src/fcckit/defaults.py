"""Default budgets for the exhaustive parts of the toolkit.

Every enumerator checks its budget before starting and raises
BudgetExceeded instead of silently sampling; the CLI lets the
FCC_BUDGET environment variable and --budget override these.
"""

# Codeword / pair enumeration (min distance, verification, decoding).
ENUMERATION_BUDGET = 2**22

# Backtracking nodes for the exact redundancy search.
SEARCH_NODE_BUDGET = 2**22

# Largest extension degree the BCH construction will touch.
BCH_DEGREE_CAP = 16
