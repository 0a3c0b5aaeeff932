"""wordlab: complexity profiles, palindromic richness, and exhaustive
verification for finite words.

The package root re-exports the names the README and the demos use;
everything else is imported from the module that defines it.
"""

from .classify import classify, condition_B_prime, is_sturmian_palindrome, is_trapezoidal
from .complexity import difference_profile, palindromic_complexity, subword_complexity
from .generate import central_word, lower_christoffel, sturmian_corpus
from .palindromes import PalindromeIndex
from .theorems import CLAIMS, census, find_class_members, verify_claim

__version__ = "0.1.0"

__all__ = [
    "CLAIMS",
    "PalindromeIndex",
    "census",
    "central_word",
    "classify",
    "condition_B_prime",
    "difference_profile",
    "find_class_members",
    "is_sturmian_palindrome",
    "is_trapezoidal",
    "lower_christoffel",
    "palindromic_complexity",
    "sturmian_corpus",
    "subword_complexity",
    "verify_claim",
]
