"""Per-layer tracing of roundgroup, from outside the package.

The tracer wraps the public functions of each module (`cli`, `verify`,
`goursat`, `perms`, `groups`, `boxtypes`, `cipher`) in place, so calls
the package makes to itself are seen as long as they go through a
module attribute or a module global.  Each call becomes a span
(name, start, end, parent, item) kept in memory; a few wrappers also
read counters off the return value.  `uninstall()` puts every original
function back, so untraced and traced phases run the same code.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

from roundgroup import boxtypes, cipher, cli, goursat, groups, perms, verify

ITEM = "item"


def _witness_counts(counters, result, args, kwargs):
    budget = kwargs.get("budget", 10_000)
    counters["groups.giant_witness.trials"] += (
        result.trials_used if result is not None else budget)
    counters["groups.giant_witness.hits"] += result is not None


def _scan_counts(counters, result, args, kwargs):
    counters["verify.block_scan.subgroups_tested"] += result.subgroups_tested
    counters["verify.block_scan.candidates"] += len(result.candidates)
    counters["verify.block_scan.certified"] += len(result.certified)


def _generator_counts(counters, result, args, kwargs):
    counters["perms.generators.bytes_computed"] += sum(g.nbytes
                                                       for g in result)


def _chain_counts(counters, result, args, kwargs):
    levels = result.levels
    counters["groups.schreier_sims.base_length"] += len(result.base)
    counters["groups.schreier_sims.strong_generators"] += len(
        {id(g) for lvl in levels for g in lvl.gens})
    counters["groups.schreier_sims.transversal_bytes_computed"] += sum(
        (len(lvl.u) + len(lvl.uinv)) * lvl.u[0].nbytes for lvl in levels)


def _feed_counts(counters, result, args, kwargs):
    counters["groups.StabilizerChain.feed.new"] += bool(result)


# (owner, attribute, span name, counter hook).  A function imported by
# name into another module is listed once per module that calls it
# through its own global.
HOOKS = [
    (cli, "main", "cli.main", None),
    (cipher, "load_spec", "cipher.load_spec", None),
    (cipher, "s_table", "cipher.s_table", None),
    (perms, "s_table", "cipher.s_table", None),
    (boxtypes, "s_table", "cipher.s_table", None),
    (perms, "standard_generators", "perms.standard_generators",
     _generator_counts),
    (perms, "compose_all", "perms.compose_all", None),
    (perms, "cycle_lengths", "perms.cycle_lengths", None),
    (perms, "cycle_reps", "perms.cycle_reps", None),
    (perms, "power", "perms.power", None),
    (perms, "inverse", "perms.inverse", None),
    (perms, "sign", "perms.sign", None),
    (groups, "orbit_mask", "groups.orbit_mask", None),
    (groups, "schreier_sims", "groups.schreier_sims", _chain_counts),
    (groups.StabilizerChain, "feed", "groups.StabilizerChain.feed",
     _feed_counts),
    (groups.StabilizerChain, "complete", "groups.StabilizerChain.complete",
     None),
    (groups, "giant_witness", "groups.giant_witness", _witness_counts),
    (verify, "giant_witness", "groups.giant_witness", _witness_counts),
    (verify, "full_verdict", "verify.full_verdict", None),
    (verify, "parity_check", "verify.parity_check", None),
    (verify, "transitivity_check", "verify.transitivity_check", None),
    (verify, "block_scan", "verify.block_scan", _scan_counts),
    (verify, "partition_invariant", "verify.partition_invariant", None),
    (verify, "diagonal_check", "verify.eliminations", None),
    (verify, "affine_check", "verify.eliminations", None),
    (verify, "wreath_check", "verify.eliminations", None),
    (verify, "psl_check", "verify.eliminations", None),
    (goursat, "enumerate_subgroups", "goursat.enumerate_subgroups", None),
    (goursat, "member_pairs", "goursat.member_pairs", None),
    (goursat, "coset_labels", "goursat.coset_labels", None),
    (boxtypes, "s_image", "boxtypes.s_image", None),
    (boxtypes, "type_of", "boxtypes.type_of", None),
    (boxtypes, "s_image_type_violations",
     "boxtypes.s_image_type_violations", None),
    (boxtypes, "s_image_coset_violations",
     "boxtypes.s_image_coset_violations", None),
]

# Per-layer metrics: (name, unit, better).  Every value is per traced
# item; `.s` is inclusive time, `.self_s` excludes child spans.
PER_LAYER = [
    ("groups.giant_witness.s", "s", "lower"),
    ("groups.giant_witness.trials", "count", "lower"),
    ("groups.giant_witness.s_per_trial", "s", "lower"),
    ("groups.giant_witness.hit_ratio", "1", "higher"),
    ("perms.compose_all.s", "s", "lower"),
    ("perms.cycle_lengths.s", "s", "lower"),
    ("perms.cycle_lengths.calls", "count", "lower"),
    ("perms.power.s", "s", "lower"),
    ("perms.power.calls", "count", "lower"),
    ("perms.inverse.s", "s", "lower"),
    ("verify.block_scan.s", "s", "lower"),
    ("verify.block_scan.self_s", "s", "lower"),
    ("verify.block_scan.subgroups_tested", "count", "lower"),
    ("verify.block_scan.candidates", "count", "lower"),
    ("verify.block_scan.certified", "count", "higher"),
    ("verify.block_scan.candidate_ratio", "1", "lower"),
    ("goursat.member_pairs.s", "s", "lower"),
    ("goursat.member_pairs.calls", "count", "lower"),
    ("goursat.coset_labels.s", "s", "lower"),
    ("goursat.coset_labels.calls", "count", "lower"),
    ("goursat.enumerate_subgroups.s", "s", "lower"),
    ("verify.partition_invariant.s", "s", "lower"),
    ("verify.partition_invariant.calls", "count", "lower"),
    ("verify.parity_check.s", "s", "lower"),
    ("perms.sign.s", "s", "lower"),
    ("perms.sign.calls", "count", "lower"),
    ("perms.cycle_reps.s", "s", "lower"),
    ("verify.transitivity_check.s", "s", "lower"),
    ("groups.orbit_mask.s", "s", "lower"),
    ("perms.standard_generators.s", "s", "lower"),
    ("perms.generators.bytes_computed", "B", "lower"),
    ("groups.schreier_sims.s", "s", "lower"),
    ("groups.schreier_sims.base_length", "count", "lower"),
    ("groups.schreier_sims.strong_generators", "count", "lower"),
    ("groups.schreier_sims.transversal_bytes_computed", "B", "lower"),
    ("groups.schreier_sims.feed_new_ratio", "1", "higher"),
    ("groups.StabilizerChain.feed.s", "s", "lower"),
    ("groups.StabilizerChain.feed.calls", "count", "lower"),
    ("groups.StabilizerChain.complete.s", "s", "lower"),
    ("boxtypes.s_image.s", "s", "lower"),
    ("boxtypes.s_image.calls", "count", "lower"),
    ("boxtypes.type_of.s", "s", "lower"),
    ("boxtypes.type_of.calls", "count", "lower"),
    ("boxtypes.s_image_type_violations.s", "s", "lower"),
    ("boxtypes.s_image_coset_violations.s", "s", "lower"),
    ("cipher.s_table.s", "s", "lower"),
    ("cipher.s_table.calls", "count", "lower"),
    ("verify.full_verdict.s", "s", "lower"),
    ("verify.eliminations.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cipher.load_spec.s", "s", "lower"),
    ("trace.items", "count", "higher"),
    ("trace.untraced_items_per_s", "1/s", "higher"),
    ("trace.traced_items_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "1", "lower"),
    ("trace.self_sum_rel_gap", "1", "lower"),
]


class Tracer:
    """Spans and counters for one run; install() wraps, uninstall()
    restores."""

    def __init__(self):
        # each span is [name, start, end, parent index, item id]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.item: int | None = None
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, original, name, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   self.item]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = original(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(self.counters, result, args, kwargs)
            return result
        return traced

    def install(self) -> None:
        for owner, attr, name, count in HOOKS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def call_item(self, item: int, fn, *args):
        """Run fn(*args) as the root span of one item."""
        self.item = item
        return self._wrap(fn, ITEM, None)(*args)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children
        cover; calls on one thread nest, so children never overlap."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def self_sum_gap(self) -> float:
        """Largest |sum of self times - item wall time| / wall time over
        items; zero up to rounding when every span nests properly."""
        selfs = self.self_times()
        total: dict = defaultdict(float)
        wall: dict = {}
        for (name, start, end, _, item), own in zip(self.spans, selfs):
            total[item] += own
            if name == ITEM:
                wall[item] = end - start
        return max((abs(total[i] - wall[i]) / wall[i] for i in wall),
                   default=0.0)

    def layer_metrics(self, items: int) -> dict[str, float]:
        """Per-item averages of every inclusive time, self time, call
        count and counter the spans and hooks gathered."""
        inclusive: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for (name, start, end, _, _), self_s in zip(self.spans,
                                                     self.self_times()):
            inclusive[name] += end - start
            own[name] += self_s
            calls[name] += 1
        out = {}
        for name in calls:
            out[f"{name}.s"] = inclusive[name] / items
            out[f"{name}.self_s"] = own[name] / items
            out[f"{name}.calls"] = calls[name] / items
        for name, value in self.counters.items():
            out[name] = value / items
        c = self.counters
        trials = c["groups.giant_witness.trials"]
        out["groups.giant_witness.s_per_trial"] = (
            inclusive["groups.giant_witness"] / trials if trials else 0.0)
        out["groups.giant_witness.hit_ratio"] = (
            c["groups.giant_witness.hits"] / trials if trials else 0.0)
        tested = c["verify.block_scan.subgroups_tested"]
        out["verify.block_scan.candidate_ratio"] = (
            c["verify.block_scan.candidates"] / tested if tested else 0.0)
        fed = calls["groups.StabilizerChain.feed"]
        out["groups.schreier_sims.feed_new_ratio"] = (
            c["groups.StabilizerChain.feed.new"] / fed if fed else 0.0)
        return out

    def write(self, path) -> None:
        """One JSON line per span, written once when the run ends."""
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps([name, start, end, parent, item]))
                fh.write("\n")
