"""Workloads of the serving benchmark and their seeded request streams.

A workload is a traffic mix against egp_server. Its open-loop rate and p99
latency limit are frozen here (and restated in BENCHMARK.json); the
workload seed only drives which requests are sent and when.
"""

import random
from dataclasses import dataclass

# Datasets made by `egp generate <domain> --scale <scale>` and compiled to
# .egps snapshots: (domain, scale).
DATASETS = {
    "basketball": 1.0,
    "architecture": 1.0,
    "music": 0.001,
}

# The configuration every workload treats as hot: the default measures.
HOT_WARMUP = {"k": 2, "n": 4}


def browse_block(rng):
    """Sampled previews on basketball and architecture with the default
    measures: every (dataset, k 2-4, n 4-8) ten times, one of the ten
    asking for 50 rows and the rest for 5; random sample seeds."""
    return [{"dataset": dataset, "k": k, "n": n,
             "sample": {"rows": 50 if rep == 0 else 5,
                        "seed": rng.randrange(1_000_000)}}
            for dataset in ("basketball", "architecture")
            for k in range(2, 5) for n in range(4, 9) for rep in range(10)]


def discover_block(rng):
    """Schema-only previews on music: every k with every n from k to k+6,
    as DP concise (4 times), Apriori diverse d=4 (3 times), Apriori tight
    d=2 with k<=5 (3 times) and beam search (twice); k runs 2-6. That is
    35% DP, 26% diverse, 21% tight and 18% beam."""
    families = ((4, range(2, 7), {"algorithm": "dp"}),
                (3, range(2, 7), {"algorithm": "apriori", "diverse": 4}),
                (3, range(2, 6), {"algorithm": "apriori", "tight": 2}),
                (2, range(2, 7), {"algorithm": "beam"}))
    return [dict({"dataset": "music", "k": k, "n": k + extra_n}, **extra)
            for reps, ks, extra in families for k in ks
            for extra_n in range(7) for _ in range(reps)]


def cold_request(dataset, unique):
    """A preview under a measure configuration no earlier request used:
    random-walk keys and entropy non-keys with a walk smoothing unique to
    `unique`, so serving it means a PreparedSchema build."""
    return {
        "dataset": dataset,
        "k": 2,
        "n": 4,
        "measures": {"key": "randomwalk", "nonkey": "entropy",
                     "walk": {"smoothing": 1e-5 * (1.0 + unique * 1e-9)}},
        "sample": {"rows": 5, "seed": 7},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    datasets: tuple
    block: object        # rng -> one block of hot request bodies
    rate: float          # open-loop arrivals per second, frozen
    p99_limit_ms: float  # latency limit on the open-loop p99
    cold_per_block: int  # cold requests shuffled into each block
    probes: int          # cold requests sent one at a time after the loops


WORKLOADS = {
    w.name: w for w in (
        Workload("browse_sampled", ("basketball", "architecture"),
                 browse_block, rate=800, p99_limit_ms=25, cold_per_block=0,
                 probes=48),
        Workload("discover_music", ("music",), discover_block, rate=500,
                 p99_limit_ms=50, cold_per_block=0, probes=48),
        Workload("cold_mix", ("basketball", "architecture"), browse_block,
                 rate=700, p99_limit_ms=50, cold_per_block=3, probes=0),
    )
}


class Stream:
    """Builds the stream file entries of one run from the workload seed.

    Each entry is (phase, class, at_us, verify, body). The mix is served
    in blocks: every block holds the workload's exact request mix (plus
    its cold requests) in a seeded shuffle, so seeds change the order,
    the sample seeds and the arrival times but not the proportions. Cold
    requests get consecutive unique numbers, so no two requests of a run
    share a cold configuration.
    """

    def __init__(self, workload, seed):
        self.workload = workload
        self.rng = random.Random(seed)
        self.verify_rng = random.Random(seed * 7919 + 1)
        self.next_cold = 0
        self.queue = []

    def _cold(self):
        datasets = self.workload.datasets
        body = cold_request(datasets[self.next_cold % len(datasets)],
                            self.next_cold)
        self.next_cold += 1
        return body

    def _hot(self):
        return [("hot", body) for body in self.workload.block(self.rng)]

    def _mixed(self):
        if not self.queue:
            self.queue = self._hot() + [
                ("cold", None) for _ in range(self.workload.cold_per_block)]
            self.rng.shuffle(self.queue)
        cls, body = self.queue.pop()
        return (cls, self._cold()) if cls == "cold" else (cls, body)

    def _verify(self, share):
        return self.verify_rng.random() < share

    def warmup(self):
        """One default-measure request per dataset, which builds its hot
        configuration, then 16 requests of the hot mix."""
        entries = [("warmup", "hot", 0, False, dict(HOT_WARMUP, dataset=d))
                   for d in self.workload.datasets]
        entries += [("warmup", "hot", 0, False, body)
                    for _, body in self.rng.sample(self._hot(), 16)]
        return entries

    def closed(self, count, verify_share):
        return [("closed", cls, 0, self._verify(verify_share), body)
                for cls, body in (self._mixed() for _ in range(count))]

    def open(self, seconds, verify_share):
        """Poisson arrivals at the workload's frozen rate for `seconds`."""
        entries = []
        at = self.rng.expovariate(self.workload.rate)
        while at < seconds:
            cls, body = self._mixed()
            entries.append(("open", cls, int(at * 1e6),
                            self._verify(verify_share), body))
            at += self.rng.expovariate(self.workload.rate)
        return entries

    def probes(self):
        return [("probe", "cold", 0, True, self._cold())
                for _ in range(self.workload.probes)]

    def replay(self, count):
        """The traced run's requests: the mix, with each of the workload's
        cold probes standing in for every tenth request, so the traced run
        reaches them early."""
        entries = []
        probes_left = self.workload.probes
        for index in range(count):
            if probes_left and index % 10 == 9:
                probes_left -= 1
                cls, body = "cold", self._cold()
            else:
                cls, body = self._mixed()
            entries.append(("replay", cls, 0, False, body))
        return entries
