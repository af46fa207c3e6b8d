"""The benchmark's workloads: fixed (configuration, suite) pairs.

A configuration is (p, l, k, j) for ``padicops.cli.RunConfig``; the
benchmark's ``--seed`` becomes ``RunConfig.seed``.  One pass of a
workload runs ``run_suite`` once for every pair, in the order listed.
"""

from __future__ import annotations

WORKLOADS: dict[str, list[tuple[tuple[int, int, int, int], str]]] = {
    # 32 points, non-free action: algebra_span / commutant / center on
    # PadicScalar entries that mix exact and capped values.
    "crossed-32": [((17, 2, 3, 2), "crossed")],
    # 16 points each, one free and one non-free action: the block
    # transforms (matrix_blocks, fourier_analyze, KMatrix.apply).
    "reduce-16": [((5, 2, 2, 2), "reduce"), ((17, 2, 3, 1), "reduce")],
    # Small exact matrices and the F_p Baer search; no crossed transforms
    # and no large-matrix elimination.
    "exact-small": [
        (config, suite)
        for config in ((3, 2, 1, 1), (5, 2, 2, 1), (7, 3, 1, 1), (17, 2, 3, 3))
        for suite in ("mihara", "spectral", "fourier", "baer")
    ],
}


def pair_key(config: tuple[int, int, int, int], suite: str) -> str:
    """Name of one (configuration, suite) pair, as used in golden files."""
    p, l, k, j = config
    return f"{suite}@p={p},l={l},k={k},j={j}"


# every check the default suites run, by the id its report carries
CHECK_IDS = [
    "mihara.norm_identity_counterexample", "mihara.generated_algebra_dimension",
    "spectral.multiplication_operators", "spectral.random_orthoprojections",
    "spectral.unbounded_idempotent_rejected", "spectral.normality_scan_clean_on_diagonal",
    "fourier.character_orthogonality", "fourier.roundtrip_and_supnorm",
    "fourier.trig_poly_approximation",
    "crossed.operator_identities", "crossed.commutation_theorem",
    "crossed.structured_idempotents",
    "reduce.crossed_product_reduction",
    "baer.full_matrix_algebra_type_I", "baer.dual_numbers_negative_control",
]
