"""Workload definitions: the (model, engine) pairs each workload runs, in order.

Why each workload exists is recorded in BENCHMARK.json.  a_thaliana is left
out of every workload because its timeout overshoot does not repeat (the
same 10 s budget overshot by 3.5 s in one run and 4.8 s in the next).
"""

SYMBOLIC_SWELL = ("gene_p53", "toggle_b", "sirs_forced")
FFPROB_LARGE = ("jak_stat2", "nfkb1", "jak_stat1", "gene_p53", "nfkb2")
CORPUS_SMALL = (
    "beta_ig", "c2m_a", "c2m_b", "c2m_c", "cholera", "competition", "hiv1_a",
    "hiv1_b", "hiv2", "hiv3", "mapk", "phosphorylation", "pk1", "pk2",
    "ruminal", "toggle_a", "tumor",
)

WORKLOADS = {
    "symbolic-swell": [(m, "symbolic") for m in SYMBOLIC_SWELL],
    "ffprob-large": [(m, "ffprob") for m in FFPROB_LARGE],
    "corpus-small": [(m, e) for m in CORPUS_SMALL for e in ("symbolic", "ffprob")],
}


def models(workload: str) -> list[str]:
    """Distinct models of a workload, in first-use order."""
    return list(dict.fromkeys(m for m, _ in WORKLOADS[workload]))
