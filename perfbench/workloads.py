"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the
same streams, byte for byte.  The program under test only ever sees the
generated sources.

Batch streams are lists of *polls*: ``(assignment, [(kind, source), ...])``
with up to :data:`POLL` submissions of one assignment, the unit a batch
grader takes off its queue and passes to one ``grade_batch`` call.  The
served stream is a flat list of ``(assignment, kind, source)`` requests.

Warm-up sources come from their own random stream and are excluded from
every measured stream by content key, so warm-up never pre-fills a cache
the measurement then hits.
"""

from __future__ import annotations

import math
import random

from repro.cluster import rename_submission
from repro.cluster.audit import audit_assignment
from repro.cluster.fingerprint import fingerprint_source
from repro.core.pipeline import source_key
from repro.kb import all_assignment_names, get_assignment
from repro.synth.perf_models import PERF_SPACES, perf_space

#: Submissions per ``grade_batch`` call in the batch workloads: one, so
#: every call's wall time is one submission's latency.
POLL = 1

#: Warm-up sources per assignment in the batch workloads.
WARM_PER_ASSIGNMENT = 2

#: ``mooc_day`` traffic mix.  These shares are assumptions, not
#: measurements: no public figure at hand gives the fresh, repeat and
#: rename shares of one assignment's MOOC submissions.  An item is a new
#: base with probability ``MOOC_FRESH``; otherwise it resubmits a base
#: picked with Zipf weight 1/rank as an exact copy (``MOOC_EXACT``), a
#: whitespace/CRLF edit (``MOOC_WS``) or, for the rest, an alpha-renamed
#: copy under one of ``MOOC_RENAMES`` spellings.
MOOC_FRESH = 0.05
MOOC_EXACT = 0.3
MOOC_WS = 0.3
MOOC_RENAMES = 1000

#: The golden-ratio fraction; see :func:`_fresh_samples`.
_GOLDEN = (5 ** 0.5 - 1) / 2

#: Whitespace-only resubmission edits; each keeps the content key.
_WS_EDITS = (
    lambda s: s.replace("\n", "\r\n"),
    lambda s: "\n".join(line + "  " for line in s.split("\n")),
    lambda s: s + "\n\n",
)


def assignments() -> list[str]:
    return list(all_assignment_names())


def _rng(tag: str, seed: int) -> random.Random:
    return random.Random(f"{tag}-{seed}")


def warmup_sources(seed: int, per_assignment: int = WARM_PER_ASSIGNMENT
                   ) -> dict[str, list[str]]:
    """Distinct sources per assignment from the warm-up random stream.

    The first source of each set is a seeded defect, so a repair-enabled
    grader builds its corpus during warm-up.
    """
    rng = _rng("warmup", seed)
    warm: dict[str, list[str]] = {}
    for name in assignments():
        space = get_assignment(name).space()
        picked: dict[str, str] = {}
        while len(picked) < per_assignment:
            sample = space.submission(rng.randrange(space.size))
            if not picked and sample.all_options_correct:
                continue
            picked.setdefault(source_key(sample.source), sample.source)
        warm[name] = list(picked.values())
    return warm


def _excluded(seed: int) -> set[str]:
    """Content keys of every warm-up source any workload may use."""
    return {
        source_key(source)
        for per_assignment in (WARM_PER_ASSIGNMENT, 2 * WARM_PER_ASSIGNMENT)
        for sources in warmup_sources(seed, per_assignment).values()
        for source in sources
    }


def _fresh_samples(space, rng: random.Random, excluded: set[str],
                   limit: int, defects_only: bool = False):
    """Yield up to ``limit`` samples with distinct content keys.

    The indexes are a systematic sample: from a seeded offset, in steps
    of a stride coprime to the space's size, near ``size`` times the
    golden ratio so the picks spread over the whole index range.  Any
    ``m`` consecutive picks then take each combination of the lowest-
    order choice points whose radices multiply to ``m`` exactly once, so
    the share of a defect kind they define, and the time and memory it
    costs, is the same for every seed; the seed decides only which
    samples carry it.  A random sample made memory and throughput swing
    with how many costly kinds one seed happened to draw.
    """
    size = space.size
    stride = max(1, round(size * _GOLDEN))
    while math.gcd(stride, size) != 1:
        stride += 1
    offset = rng.randrange(size)
    seen = set(excluded)
    produced = 0
    for step in range(size):
        if produced >= limit:
            return
        sample = space.submission((offset + step * stride) % size)
        if defects_only and sample.all_options_correct:
            continue
        key = source_key(sample.source)
        if key in seen:
            continue
        seen.add(key)
        produced += 1
        yield sample


def _letters(value: int, width: int) -> str:
    """``value`` as ``width`` binary digits over ``ab``: same-width
    strings sort like their values, and carry no digit (identifiers with
    digits are never renamed by the cluster fingerprint)."""
    return "".join("ab"[(value >> bit) & 1] for bit in reversed(range(width)))


def _renamer(name: str):
    """``rename(source, variant)``: an alpha-renamed copy, or ``None``.

    Spellings become ``q<variant>_<slot>`` with fixed-width halves and
    slots in sorted-spelling order (the scheme of
    ``benchmarks/bench_cluster.py``), so the renaming preserves the
    identifiers' sort order and layout: every variant of one source
    lands in one cluster bucket.  ``variant`` is below 4096.
    """
    audit = audit_assignment(get_assignment(name))

    def rename(source: str, variant: int) -> str | None:
        sprint = fingerprint_source(source, audit)
        if sprint is None or not sprint.spellings:
            return None
        names = sorted(sprint.spellings)
        width = max(1, (len(names) - 1).bit_length())
        prefix = "q" + _letters(variant, 12)
        return rename_submission(source, {
            spelling: f"{prefix}_{_letters(j, width)}"
            for j, spelling in enumerate(names)
        })

    return rename


def _interleave(rng: random.Random, per_assignment: dict[str, list],
                ) -> list[tuple[str, list]]:
    """Cut each assignment's items into polls, in rounds of one poll per
    assignment in a seeded order, so every prefix of the stream mixes
    the assignments evenly."""
    queues = {name: list(items) for name, items in per_assignment.items()
              if items}
    polls = []
    while queues:
        order = sorted(queues)
        rng.shuffle(order)
        for name in order:
            items = queues[name]
            polls.append((name, items[:POLL]))
            del items[:POLL]
            if not items:
                del queues[name]
    return polls


def cold_unique(seed: int, items: int) -> list[tuple[str, list]]:
    """Distinct synth samples across all assignments; nothing repeats."""
    rng = _rng("cold", seed)
    excluded = _excluded(seed)
    names = assignments()
    share = -(-items // len(names))
    per_assignment = {
        name: [
            ("fresh", sample.source)
            for sample in _fresh_samples(
                get_assignment(name).space(), rng, excluded, share
            )
        ]
        for name in names
    }
    return _interleave(rng, per_assignment)


def mooc_day(seed: int, items: int) -> list[tuple[str, list]]:
    """Repeat-heavy traffic over a slowly growing pool of bases.

    An item is a ``fresh`` new base with probability :data:`MOOC_FRESH`;
    otherwise it resubmits a base picked by a Zipf weight (early,
    popular solutions most often) as an ``exact`` copy, a ``ws``
    whitespace/CRLF edit, or a ``rename`` — an alpha-renamed copy under
    one of :data:`MOOC_RENAMES` spellings.  The mix is assumed (see
    :data:`MOOC_FRESH`).
    """
    rng = _rng("mooc", seed)
    excluded = _excluded(seed)
    names = assignments()
    share = -(-items // len(names))
    weights = [1.0 / (rank + 1) for rank in range(share)]
    per_assignment = {}
    for name in names:
        rename = _renamer(name)
        fresh = _fresh_samples(get_assignment(name).space(), rng, excluded,
                               share)
        pool: list[str] = []
        stream = []
        while len(stream) < share:
            if not pool or rng.random() < MOOC_FRESH:
                sample = next(fresh, None)
                if sample is not None:
                    pool.append(sample.source)
                    stream.append(("fresh", sample.source))
                    continue
            source = rng.choices(pool, weights[:len(pool)])[0]
            roll = rng.random()
            if roll < MOOC_EXACT:
                stream.append(("exact", source))
            elif roll < MOOC_EXACT + MOOC_WS:
                stream.append(("ws", rng.choice(_WS_EDITS)(source)))
            else:
                renamed = rename(source, rng.randrange(MOOC_RENAMES))
                stream.append(
                    ("rename", renamed) if renamed else ("exact", source)
                )
        per_assignment[name] = stream
    return _interleave(rng, per_assignment)


def channels(seed: int, items: int) -> list[tuple[str, list]]:
    """Repair- and perf-channel cohorts; every source is distinct.

    The seeded-defect cohort draws samples with at least one incorrect
    option from every space, each followed by an alpha-renamed copy
    (the shape of ``benchmarks/bench_repair.py``).  On the assignments
    with a slow-variant space, about a third of the items are its slow
    and fast correct variants, alpha-renamed to a unique spelling so
    none repeats.
    """
    rng = _rng("channels", seed)
    excluded = _excluded(seed)
    names = assignments()
    share = -(-items // len(names))
    per_assignment = {}
    for name in names:
        rename = _renamer(name)
        variants = []
        if name in PERF_SPACES:
            space = perf_space(name)
            variants = [space.submission(i).source for i in range(space.size)]
        defects = _fresh_samples(
            get_assignment(name).space(), rng, excluded, share,
            defects_only=True,
        )
        stream: list[tuple[str, str]] = []
        serial = 0
        while len(stream) < share:
            if variants and rng.random() < 0.33:
                serial += 1
                variant = variants[serial % len(variants)]
                # a variant with no renameable spelling gets a unique
                # trailing comment instead
                stream.append(("perf", rename(variant, serial)
                               or f"{variant}\n// variant {serial}\n"))
                continue
            sample = next(defects, None)
            if sample is None:
                break
            stream.append(("defect", sample.source))
            renamed = rename(sample.source, 0)
            if renamed is not None:
                stream.append(("defect-renamed", renamed))
        per_assignment[name] = stream[:share]
    return _interleave(rng, per_assignment)


def served(seed: int, requests: int) -> list[tuple[str, str, str]]:
    """About half fresh unique sources, half whitespace resubmissions."""
    rng = _rng("served", seed)
    excluded = _excluded(seed)
    names = assignments()
    fresh = {
        name: _fresh_samples(
            get_assignment(name).space(), rng, excluded, requests
        )
        for name in names
    }
    issued: list[tuple[str, str]] = []
    stream: list[tuple[str, str, str]] = []
    while len(stream) < requests and fresh:
        if issued and rng.random() < 0.5:
            name, source = issued[-1 - rng.randrange(min(200, len(issued)))]
            stream.append((name, "resubmit", rng.choice(_WS_EDITS)(source)))
            continue
        name = rng.choice(sorted(fresh))
        sample = next(fresh[name], None)
        if sample is None:
            del fresh[name]
            continue
        issued.append((name, sample.source))
        stream.append((name, "fresh", sample.source))
    return stream


BATCH_GENERATORS = {
    "cold_unique": cold_unique,
    "mooc_day": mooc_day,
    "channels": channels,
}
