#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from a fresh benchmark run.

Runs ``pytest benchmarks/ --benchmark-only -s``, captures every printed
result table, and rewrites EXPERIMENTS.md with the per-experiment
expected-vs-measured record.  Run from the repository root::

    python tools/make_experiments_md.py
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HEADER = '''# EXPERIMENTS — paper-vs-measured record for every experiment

The source paper is a tutorial with **no tables or figures of its own**;
each experiment below reproduces the canonical result shape of the system
family the tutorial surveys (see DESIGN.md for the mapping). "Expected"
states the qualitative claim from the surveyed literature; "Measured" is
the table printed by the corresponding benchmark (`pytest benchmarks/
--benchmark-only -s`), reproduced verbatim from a run with the committed
seeds. Absolute numbers are properties of the synthetic substrate; the
*shape* — who wins, by roughly what factor, where the crossovers fall — is
the reproduction target, and each benchmark asserts it.

'''

#: (surveyed systems, expected shape, measured commentary) per experiment.
NARRATIVE: dict[str, tuple[str, str, str]] = {
    "E1": (
        "Ponzetto & Strube 2007 (WikiTaxonomy); Suchanek et al. 2007 (YAGO)",
        "The plural-head heuristic separates conceptual from topical/administrative categories with high precision; the stoplist removes administrative plurals ('1955 births'); anchoring heads to their most frequent WordNet sense types the vast majority of entities correctly.",
        "Shape holds: heuristic+stoplist is perfect on the synthetic category system while the all-conceptual baseline drops ~0.37 precision; typing accuracy after anchoring is ~0.95.",
    ),
    "E2": (
        "Etzioni et al. 2005 (KnowItAll); Pasca 2014",
        "A handful of seed instances expands to same-class members at high precision via shared contexts; precision decays (at worst holds) with k and does not degrade with more seeds.",
        "Shape holds: city-class expansion from 2-5 seeds stays perfect through P@20 on the fact corpus — the class-discriminative contexts make the synthetic setting easier than the open Web, but the ordering claims are exercised and asserted.",
    ),
    "E3": (
        "Brin 1998 (DIPRE); Agichtein & Gravano 2000 (Snowball); Mintz et al. 2009 (distant supervision)",
        "Hand-written patterns: highest precision, lowest recall. Bootstrapping grows recall within its relations. Dependency paths recover passives/inversions. Distant supervision achieves the best recall/F1.",
        "Shape holds exactly; see the table (patterns P=1.0 with ~0.54 recall, the learned methods above 0.92 recall at ~0.96 precision).",
    ),
    "E4": (
        "Suchanek et al. 2009 (SOFIE)",
        "Weighted MaxSat over soft facts + hard schema constraints removes most injected false statements at a small recall cost; functionality and type constraints each contribute.",
        "Shape holds: a ~0.09 precision lift at <0.01 recall cost; disabling either constraint family reduces rejections.",
    ),
    "E5": (
        "Niu et al. 2012 (DeepDive)",
        "Gibbs marginals converge to the exact marginals; marginal inference improves on the raw candidate set; inference cost is linear in grounded factors.",
        "Shape holds: max marginal error falls ~10x from 50 to 3200 sweeps; inference lifts precision with Brier ~0.13; measured cost is linear.",
    ),
    "E6": (
        "Fader et al. 2011 (ReVerb)",
        "Open IE yields many times more distinct relations than a fixed inventory, at lower argument precision; the lexical constraint prunes overly specific phrases; synonymous phrases cluster by shared argument pairs; frequent-sequence mining recovers canonical relation n-grams.",
        "Shape holds: ~3x the distinct relations and extractions of closed IE at ~0.67 argument precision; a stricter support threshold cuts relations without losing precision; clusters recover the gold paraphrase sets.",
    ),
    "E7": (
        "Hoffart et al. 2013 (YAGO2)",
        "Explicit temporal expressions scope facts with near-perfect accuracy; harvested year attributes are faithful to the text; lifespan knowledge bounds the timespans of facts that text never dates explicitly.",
        "Shape holds: 1.0 scoping accuracy on points and spans; zero wrong-year extractions; inferred lifespan bounds cover >95% of gold scopes.",
    ),
    "E8": (
        "Lehmann et al. 2014 (DBpedia multilingual)",
        "Interlanguage links are precise but incomplete; transliteration similarity covers everything but cannot recover exonyms; links + strings dominates both.",
        "Shape holds across the dropout sweep: links degrade with dropout, strings stay flat below the exonym ceiling, combined stays on top.",
    ),
    "E9": (
        "Hoffart et al. 2011 (AIDA)",
        "Popularity prior < prior+context similarity <= joint graph coherence; the prior degrades fastest as ambiguity grows.",
        "Shape holds: prior falls ~0.21 from low to extreme ambiguity while local/graph hold; graph ties or exceeds local; the local-vs-graph gap is smaller than on real AIDA data because synthetic entity profiles are short and clean.",
    ),
    "E10": (
        "Lacoste-Julien et al. 2013 (SiGMa); Fellegi-Sunter tradition",
        "Graph propagation > learned pairwise matcher > string threshold; blocking prunes the quadratic pair space at small recall cost.",
        "Shape holds: best-F1 ordering graph >= logistic > string; key blocking prunes ~97% of pairs at ~0.9 gold recall.",
    ),
    "E11": (
        "Dean & Ghemawat 2004 (MapReduce), as used by web-scale harvesting",
        "Shuffle volume grows linearly with the corpus; a combiner shrinks it dramatically; hash partitioning balances shards; running extraction through map-reduce changes the execution, not the result.",
        "Shape holds: linear raw shuffle, ~10-30x combiner reduction, skew <= 1.25, and per-page extraction run as a map-reduce job builds the serial KB byte for byte at every shard count.",
    ),
    "E12": (
        "The tutorial's own motivating example (section 4)",
        "Tracking two product families needs entity knowledge: resolving an ambiguous family mention to the right generation requires the KB's release-year facts.",
        "Shape holds: KB-backed assignment beats string matching by ~0.09 accuracy; family-level volume correlation is 1.0 for both (family names are unambiguous).",
    ),
    "E13": (
        "Carlson et al. 2010 (NELL) — tutorial reference [5]",
        "Ontology coupling (types, functionality, exclusion) keeps the promoted KB's precision high across bootstrap iterations; the uncoupled loop drifts downward.",
        "Shape holds: coupled precision *rises* across iterations while uncoupled *falls* — the canonical drift plot.",
    ),
    "E14": (
        "Dong et al. 2014 (Knowledge Vault) — tutorial reference [9]",
        "Fusing multiple extractors with a graph prior yields calibrated probabilities that beat every single extractor; the reliability diagram is near-diagonal.",
        "Shape holds: fusion F1 above the best single extractor on a held-out corpus, Brier ~0.12, monotone reliability bins.",
    ),
    "E15": (
        "Galarraga et al. 2013 (AMIE) — the tutorial authors' research programme",
        "Rule mining rediscovers the KB's generative regularities with correct confidence estimates; confident rules complete held-out facts at high precision; PCA confidence alone overrates inverse rules of quasi-functional relations.",
        "Shape holds: the citizenship chain and capital rules mined at confidence 1.0; gated completion recovers 100% of held-out citizenship facts at precision 1.0, vs ~0.58 precision for the PCA-only ranking.",
    ),
    "E16": (
        "Wu et al. 2012 (Probase) — tutorial reference [32]",
        "Frequency-backed isA evidence yields a probabilistic taxonomy whose P(concept|instance) picks the right sense of ambiguous names and whose set conceptualization names the class behind a group of instances.",
        "Shape holds: >0.9 top-1 accuracy for both per-instance sense ranking and 3-instance set conceptualization over the Hearst-harvested evidence.",
    ),
}


def capture_tables(repo_root: Path) -> str:
    """Run the benchmarks and return their printed result tables."""
    process = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/", "--benchmark-only", "-q", "-s"],
        cwd=repo_root,
        capture_output=True,
        text=True,
    )
    if process.returncode != 0:
        sys.stderr.write(process.stdout[-4000:])
        raise SystemExit("benchmarks failed; EXPERIMENTS.md not regenerated")
    import re

    table_start = re.compile(r"^E\d+[a-z]?:")
    lines = process.stdout.splitlines()
    captured: list[str] = []
    in_table = False
    for line in lines:
        if table_start.match(line):
            if captured:
                captured.append("")  # blank separator between tables
            in_table = True
        elif in_table and line.strip() == "":
            in_table = False
            continue
        if in_table:
            captured.append(line.rstrip())
    return "\n".join(captured)


def build_document(tables_text: str) -> str:
    sections: dict[str, list[str]] = {}
    for block in tables_text.split("\n\n"):
        block = block.strip("\n")
        if not block:
            continue
        first = block.split("\n", 1)[0]
        experiment_id = first.split(":")[0].rstrip("abc")
        sections.setdefault(experiment_id, []).append(block)

    parts = [HEADER]
    for experiment_id in sorted(NARRATIVE, key=lambda e: int(e[1:])):
        surveyed, expected, measured = NARRATIVE[experiment_id]
        parts.append(f"## {experiment_id}\n")
        parts.append(f"**Surveyed systems:** {surveyed}\n")
        parts.append(f"**Expected shape:** {expected}\n")
        parts.append(f"**Measured:** {measured}\n")
        for block in sections.get(experiment_id, []):
            parts.append("```")
            parts.append(block)
            parts.append("```")
        parts.append("")
    return "\n".join(parts)


def main() -> int:
    repo_root = Path(__file__).resolve().parent.parent
    tables = capture_tables(repo_root)
    document = build_document(tables)
    (repo_root / "EXPERIMENTS.md").write_text(document)
    print(f"wrote EXPERIMENTS.md ({len(document)} chars)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
