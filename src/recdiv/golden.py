"""Frozen reference values for tables and record lists.

Every constant here is regenerated from first principles by the test
suite and the verify command: the 96-term tables against both the batch
sieve and the per-n evaluators of recdiv.core, and the record lists
against a full strict-record scan to one million with exact
cross-multiplied ratio comparisons.  The record lists end at RECORDS_BOUND,
so `verify records` refuses a larger bound rather than reading them as
complete past it.

181440 is the only ratio record up to one million that sets no count
record (RSA_NOT_RHC).  It is not the only one beyond: the next is
2177280 < 10^7.
"""

# a(n), the count of recursive divisors, for n = 1..96.
A_FIRST_96 = (
    1, 2, 2, 4, 2, 6, 2, 8, 4, 6, 2, 16, 2, 6, 6, 16,
    2, 16, 2, 16, 6, 6, 2, 40, 4, 6, 8, 16, 2, 26, 2, 32,
    6, 6, 6, 52, 2, 6, 6, 40, 2, 26, 2, 16, 16, 6, 2, 96,
    4, 16, 6, 16, 2, 40, 6, 40, 6, 6, 2, 88, 2, 6, 16, 64,
    6, 26, 2, 16, 6, 26, 2, 152, 2, 6, 16, 16, 6, 26, 2, 96,
    16, 6, 2, 88, 6, 6, 6, 40, 2, 88, 6, 16, 6, 6, 6, 224,
)

# b(n), the sum of recursive divisors, for n = 1..96.
B_FIRST_96 = (
    1, 3, 4, 8, 6, 14, 8, 20, 14, 20, 12, 42, 14, 26, 26, 48,
    18, 54, 20, 58, 34, 38, 24, 116, 32, 44, 46, 74, 30, 104, 32, 112,
    50, 56, 50, 176, 38, 62, 58, 156, 42, 132, 44, 106, 96, 74, 48, 304,
    58, 112, 74, 122, 54, 190, 74, 196, 82, 92, 60, 346, 62, 98, 124, 256,
    86, 188, 68, 154, 98, 184, 72, 524, 74, 116, 144, 170, 98, 216, 80, 400,
    146, 128, 84, 430, 110, 134, 122, 276, 90, 432, 114, 202, 130, 146, 122, 768,
)

# The record lists below hold every record-setter up to this bound.
RECORDS_BOUND = 10**6

# Strict record-setters of a(n) up to one million, as (n, cofactor, tau)
# with a(n) = cofactor * 2**tau and tau the maximum exponent in the
# factorization of n.
RHC_RECORDS = (
    (1, 1, 0),
    (2, 1, 1),
    (4, 1, 2),
    (6, 3, 1),
    (8, 1, 3),
    (12, 4, 2),
    (24, 5, 3),
    (36, 13, 2),
    (48, 6, 4),
    (72, 19, 3),
    (96, 7, 5),
    (120, 33, 3),
    (144, 26, 4),
    (192, 8, 6),
    (240, 46, 4),
    (288, 34, 5),
    (360, 151, 3),
    (432, 96, 4),
    (480, 61, 5),
    (576, 43, 6),
    (720, 236, 4),
    (864, 138, 5),
    (960, 78, 6),
    (1152, 53, 7),
    (1440, 346, 5),
    (1728, 190, 6),
    (1920, 97, 7),
    (2160, 996, 4),
    (2304, 64, 8),
    (2880, 484, 6),
    (3456, 253, 7),
    (4320, 1590, 5),
    (5760, 653, 7),
    (6912, 328, 8),
    (8640, 2402, 6),
    (11520, 856, 8),
    (17280, 3477, 7),
    (23040, 1096, 9),
    (25920, 10368, 6),
    (30240, 20874, 5),
    (34560, 4864, 8),
    (46080, 1376, 10),
    (51840, 15979, 7),
    (60480, 34266, 6),
    (69120, 6616, 9),
    (86400, 28481, 7),
    (103680, 23692, 8),
    (120960, 53485, 7),
    (138240, 8790, 10),
    (161280, 17656, 9),
    (172800, 42520, 8),
    (207360, 34026, 9),
    (241920, 80176, 8),
    (276480, 11447, 11),
    (311040, 103540, 8),
    (345600, 61436, 9),
    (362880, 267219, 7),
    (414720, 47576, 10),
    (483840, 116256, 9),
    (552960, 14652, 12),
    (604800, 480953, 7),
    (622080, 156278, 9),
    (691200, 86362, 10),
    (725760, 422932, 8),
    (829440, 65018, 11),
    (967680, 163934, 10),
)

# Strict record-setters of b(n)/n up to one million (exact comparisons).
RSA_RECORDS = (
    1, 2, 4, 6, 8, 12, 24, 36,
    48, 72, 96, 120, 144, 240, 288, 360,
    480, 576, 720, 1152, 1440, 2160, 2880, 4320,
    5760, 8640, 11520, 17280, 25920, 30240, 34560, 51840,
    60480, 69120, 103680, 120960, 172800, 181440, 207360, 241920,
    345600, 362880, 414720, 483840, 725760, 967680,
)

# Strict record-setters of d(n) up to one million, as (n, d(n)).
HC_RECORDS = (
    (1, 1),
    (2, 2),
    (4, 3),
    (6, 4),
    (12, 6),
    (24, 8),
    (36, 9),
    (48, 10),
    (60, 12),
    (120, 16),
    (180, 18),
    (240, 20),
    (360, 24),
    (720, 30),
    (840, 32),
    (1260, 36),
    (1680, 40),
    (2520, 48),
    (5040, 60),
    (7560, 64),
    (10080, 72),
    (15120, 80),
    (20160, 84),
    (25200, 90),
    (27720, 96),
    (45360, 100),
    (50400, 108),
    (55440, 120),
    (83160, 128),
    (110880, 144),
    (166320, 160),
    (221760, 168),
    (277200, 180),
    (332640, 192),
    (498960, 200),
    (554400, 216),
    (665280, 224),
    (720720, 240),
)

# Strict record-setters of sigma(n)/n up to one million.
SA_RECORDS = (
    1, 2, 4, 6, 12, 24, 36, 48,
    60, 120, 180, 240, 360, 720, 840, 1260,
    1680, 2520, 5040, 10080, 15120, 25200, 27720, 55440,
    110880, 166320, 277200, 332640, 554400, 665280, 720720,
)

# The one ratio record up to one million that is not also a count record;
# the next one is 2177280.
RSA_NOT_RHC = 181440

# a over products of k = 0..6 distinct primes (OEIS A000629).
DISTINCT_PRIME_COUNTS = (1, 2, 6, 26, 150, 1082, 9366)
