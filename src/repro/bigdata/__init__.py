"""Big-data substrates: map-reduce, frequent sequence mining, MinHash/LSH."""

from .mapreduce import JobStats, MapReduce, word_count
from .seqmining import closed_sequences, frequent_sequences
from .minhash import MinHasher, jaccard, lsh_candidate_pairs, shingles

__all__ = [
    "JobStats",
    "MapReduce",
    "word_count",
    "closed_sequences",
    "frequent_sequences",
    "MinHasher",
    "jaccard",
    "lsh_candidate_pairs",
    "shingles",
]
