"""Expected verdicts of every benchmark job, written by hand from the theory.

Every statement of a suite is expected to pass unless it is listed in
``EXCEPTIONS`` under the suite and the builder, with the status the theory
predicts and the reason for it.  The table is independent of g for the
sizes the benchmark uses (g = 2, 3, 4) and of the saturation seed.
"""

VERIFY_IDS = (
    "model-validate",
    "identity-expansion",
    "vandermonde-independence",
    "prop-F_qmF_pn",
    "thm-fm-iso",
    "exchange-law",
    "adams-semigroup",
    "prop-omega-n",
    "pushforward-star-hom",
    "pushforward-automorphism",
    "star-pushforward-commute",
    "gamma-addition-law",
    "cor-star-vanishing",
    "lem-pi-vanishing",
    "gamma-vanishing",
    "fil-monotone",
    "thm-fm-iso-filtration",
    "line-bundle-suite",
    "gamma-coeff-stirling",
)

CONJECTURE_IDS = (
    "conj-pi-subset-gamma",
    "rem-conj-proved-cases",
    "lem-conjecture-equivalences",
    "conj-2-products",
    "lem-epsilon-gamma-morphism",
    "lem-fil1",
    "lem-fil2",
    "prop-kernel-c",
    "conj-3-vanishing",
    "bloch-products",
)

# the filtration command reports tables; each row is a pass that carries
# the dimension vector, so its content is checked by the report goldens
FILTRATION_IDS = tuple(
    f"filtration-{kind}-{row}"
    for kind in ("gamma", "star", "pi", "Gamma")
    for row in ("saturation", "eigen_sum", "method-comparison")
)

SUITE_IDS = {
    "verify": VERIFY_IDS,
    "conjecture": CONJECTURE_IDS,
    "filtration": FILTRATION_IDS,
}

_NEGATIVE_INDEX_SKIPS = {
    "cor-star-vanishing": (
        "skipped",
        "the model has classes of negative derived index, and the convolution "
        "filtration only vanishes above g on models without them",
    ),
    "gamma-vanishing": (
        "skipped",
        "the gamma filtration only vanishes above g on models without "
        "negative-index classes",
    ),
}

EXCEPTIONS = {
    ("verify", "pathological"): _NEGATIVE_INDEX_SKIPS,
    ("verify", "violator"): _NEGATIVE_INDEX_SKIPS,
    ("conjecture", "violator"): {
        "conj-pi-subset-gamma": (
            "fail",
            "v in K^1_{g-2} has pi weight 2 but ordinary weight 1 and kills "
            "every non-unit class, so it lies in pi stage 2 and not in gamma "
            "stage 2",
        ),
        "rem-conj-proved-cases": (
            "fail",
            "for g = 3 the failing stage q = 2 = g - 1 is one of the provable "
            "stages, so the model violates the geometry behind them",
        ),
        "conj-2-products": (
            "fail",
            "the seeded defect a . v is a nonzero product of an index 1 class "
            "and an index -1 class",
        ),
        "lem-epsilon-gamma-morphism": (
            "skipped",
            "its hypothesis is the index-product vanishing that conj-2-products "
            "refutes here",
        ),
        "prop-kernel-c": (
            "fail",
            "a . v lies in composed stage g + 1 because v lies in every stage, "
            "but its index-0 projection is nonzero, so stage g + 1 is larger "
            "than the complete-Chern kernel",
        ),
        "conj-3-vanishing": (
            "fail",
            "the index -1 block v, w lies in every composed stage, so stage "
            "g + 1 is nonzero",
        ),
    },
    ("conjecture", "pathological"): {
        "conj-pi-subset-gamma": (
            "fail",
            "v in K^1_{g-2} has pi weight 2 but ordinary weight 1 and kills "
            "every non-unit class, so it lies in pi stage 2 and not in gamma "
            "stage 2",
        ),
        "rem-conj-proved-cases": (
            "fail",
            "for g = 3 the failing stage q = 2 = g - 1 is one of the provable "
            "stages, so the model violates the geometry behind them",
        ),
        "conj-3-vanishing": (
            "fail",
            "the index -1 block v, w lies in every composed stage, so stage "
            "g + 1 is nonzero",
        ),
    },
}


def expected_statuses(suite: str, builder: str) -> list[tuple[str, str]]:
    """The (statement id, status) list a job's report must carry, in order."""
    exceptions = EXCEPTIONS.get((suite, builder), {})
    return [
        (sid, exceptions[sid][0] if sid in exceptions else "pass")
        for sid in SUITE_IDS[suite]
    ]
