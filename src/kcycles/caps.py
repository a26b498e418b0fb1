"""The limits of the brute-force oracles, and the names the command line
takes for them.

The command line builds its parser from these and maps EnumerationCapError
to exit 3 before any computation runs, so they live apart from `oracles`,
which loads the tree recursion and `fractions`; `oracles` imports them
from here.
"""

DEFAULT_TREE_CAP = 5        # full enumeration of (2k)! increasing trees
DEFAULT_LETTER_CAP = 11     # total letters in a cyclic-shuffle alphabet
DEFAULT_SHUFFLE_CAP = 12    # n + m for plain two-letter shuffles
DEFAULT_CYCLE_CAP = 10      # permutation degree for cycle statistics
DEFAULT_COUNTING_CAP = 10 ** 7  # n**s grid size for the counting identity

SIGN_SUM_VARIANTS = ("X0", "X1", "X2")


class EnumerationCapError(RuntimeError):
    """An enumeration would exceed its configured cap."""

    def __init__(self, what: str, requested, cap, override: str):
        super().__init__(
            f"{what} {requested} exceeds the cap {cap}; raise it with {override} "
            f"if you really want the full enumeration"
        )
        self.cap = cap
