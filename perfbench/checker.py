"""Output checks for every perfbench workload, computed apart from the program.

Given the reads the program received, the reference genome they were sampled
from, and the program's contigs plus its reported summary, `check_assembly`
returns a list of failures (empty = correct):

* the k-mers of all contigs, taken together, are exactly the distinct k-mers
  of the reads, each appearing once (a unitig decomposition covers every
  distinct k-mer exactly once);
* every contig occurs verbatim in the reference or its reverse complement;
* the reported distinct k-mer count equals the count made here;
* the reported contig count, total length and N50 equal the ones
  recomputed from the contig lengths.

`self_test` corrupts a correct contig set three ways (one base flipped, one
contig dropped, one contig duplicated) and demands that each is caught, so
the checks cannot pass vacuously.
"""

from collections import Counter

_COMPLEMENT = str.maketrans("ACGT", "TGCA")


def reverse_complement(seq):
    return seq.translate(_COMPLEMENT)[::-1]


def parse_fasta(text):
    """Sequences of FASTA text, in order (upper-cased)."""
    seqs, parts = [], None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith(">"):
            if parts is not None:
                seqs.append("".join(parts))
            parts = []
        elif line:
            parts.append(line.upper())
    if parts is not None:
        seqs.append("".join(parts))
    return seqs


def read_fasta(path):
    with open(path, encoding="ascii") as f:
        return parse_fasta(f.read())


def distinct_kmers(reads, k):
    """Set of the forward-strand k-mers of the reads (the program counts
    k-mers as read, not canonicalised)."""
    kmers = set()
    for read in set(reads):
        for i in range(len(read) - k + 1):
            kmers.add(read[i:i + k])
    return kmers


def n50(lengths):
    """Length L such that contigs of length >= L hold at least half the
    total length (the largest such L)."""
    total = sum(lengths)
    running = 0
    for length in sorted(lengths, reverse=True):
        running += length
        if 2 * running >= total:
            return length
    return 0


class Reference:
    """What a workload's outputs are checked against: its reads and genome."""

    def __init__(self, reads, genome, k):
        self.k = k
        self.genome = genome
        self.genome_rc = reverse_complement(genome)
        self.kmers = distinct_kmers(reads, k)


def check_assembly(contigs, summary, ref, limit=5):
    """Failures of `contigs` (list of str) and the program's `summary`
    (dict with distinct_kmers, contigs, total_length, n50) against `ref`."""
    k = ref.k
    errors = []
    seen = Counter()
    for idx, contig in enumerate(contigs):
        if len(contig) < k:
            errors.append(f"contig {idx} shorter than k ({len(contig)} bp)")
            continue
        for i in range(len(contig) - k + 1):
            seen[contig[i:i + k]] += 1
        if contig not in ref.genome and contig not in ref.genome_rc:
            errors.append(f"contig {idx} ({len(contig)} bp) is not in the "
                          "reference or its reverse complement")
    repeated = sum(1 for c in seen.values() if c > 1)
    if repeated:
        errors.append(f"{repeated} k-mers appear in more than one contig "
                      "position")
    missing = len(ref.kmers - seen.keys())
    extra = len(seen.keys() - ref.kmers)
    if missing or extra:
        errors.append(f"contig k-mers differ from the reads' k-mers: "
                      f"{missing} missing, {extra} not in the reads")
    lengths = [len(c) for c in contigs]
    expected = {
        "distinct_kmers": len(ref.kmers),
        "contigs": len(contigs),
        "total_length": sum(lengths),
        "n50": n50(lengths),
    }
    for key, want in expected.items():
        got = summary.get(key)
        if got is None or int(got) != want:
            errors.append(f"reported {key} {got} != recomputed {want}")
    return errors[:limit]


def self_test(contigs, summary, ref):
    """Failures of the checker itself on a correct output: it must accept
    `contigs` and reject each corruption of them."""
    problems = []
    if check_assembly(contigs, summary, ref):
        return ["checker rejects the correct output"]
    flipped = list(contigs)
    mid = len(flipped[0]) // 2
    base = flipped[0][mid]
    flipped[0] = flipped[0][:mid] + ("C" if base != "C" else "G") + \
        flipped[0][mid + 1:]
    corruptions = {
        "one base flipped": flipped,
        "one contig dropped": contigs[1:],
        "one contig duplicated": contigs + contigs[:1],
    }
    for name, bad in corruptions.items():
        # The summary is recomputed for the corrupted set, so only the
        # sequence-level checks can catch the corruption.
        lengths = [len(c) for c in bad]
        bad_summary = dict(summary, contigs=len(bad),
                           total_length=sum(lengths), n50=n50(lengths))
        if not check_assembly(bad, bad_summary, ref):
            problems.append(f"checker accepts a contig set with {name}")
    return problems
