"""Specialized per-policy kernels: the fast engine's blocking replay.

Each kernel advances one lane's :class:`~repro.fastsim.engine.FastL1DCache`
through one SM's set-major partition (:mod:`repro.batchsim.decode`).
Kernels are generated per (policy kind, associativity, knob flags) with
the way loop unrolled into scalar locals, so the per-record cost is a
handful of integer compares instead of list walks.  They are proven
bit-identical to the reference replay engine
(:class:`repro.trace.replay.ReplayEngine`) by the differential suite in
``tests/batchsim``, and they leave the packed cache in a state the
per-record protocol path continues from exactly; the transformations
they rely on are:

* **Set decomposition.**  Between sampling-window closes, accesses to
  different sets commute: PDPT/VTA credits are saturating increments,
  window counters are sums, and every LRU/PL comparison is intra-set.
  Kernels therefore run set by set inside each window and call
  ``cache._end_sample()`` at the window barrier, exactly once per
  ``sample_limit`` records of the original interleaving.
* **Lazy PL decay.**  Protected-line counters decay by one on every
  access (and stall retry) to the line's set, so a line assigned PL
  ``d`` at set-clock ``s`` holds effective PL ``max(0, d - (t - s))``
  at set-clock ``t``.  Kernels keep ``(d, s)`` per way and one clock
  per set, fold stall retries as a transient ``t + retries`` horizon
  (made persistent with ``s -= retries`` once a victim converges), and
  materialize exact ``pli`` values at the end.
* **Per-set LRU stamps.**  All replacement decisions compare stamps of
  ways within one set, so any per-set stamp sequence that preserves the
  reference's assignment order picks identical victims.  Kernels keep a
  per-set stamp counter (+1 on hit, +2 on fill, like the reference's
  global ``_stamp``) and restore the cache-global stamp as
  ``hits + 2 * misses``, its exact reference value.
* **Dict VTA.**  A per-set insertion-ordered dict {block: owner_iid}
  is observationally equivalent to the packed victim-tag array: probes
  consume (``pop``), re-inserting an existing block moves it to the
  tail, and evicting the first key is the LRU fallback, which the
  array only reaches once every slot is valid.  At the end each dict
  is written back in order — LRU entry first, increasing stamps, the
  remaining slots invalid — which is all the array's insert and probe
  paths ever read.
* **Derived counters.**  In blocking replay ``loads = hits + misses +
  bypasses``, ``fills = misses``, ``sent_fetches = misses + bypasses``,
  ``write_evicts = write_hits``, ``vta_probes = misses + bypasses +
  stalls`` and each window's ``g_tda``/``g_vta`` are the window's hit /
  VTA-hit deltas — each identity holds access by access, so only the
  independent counters are maintained in the hot loop.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Dict, List, Tuple, cast

from repro.core.policy import StallReason
from repro.fastsim.engine import INVALID, KIND_DLP, VALID, FastL1DCache
from repro.trace.replay import MAX_STALL_RETRIES, ReplayStallError

from repro.batchsim.decode import SetRun

_NO_LINE = StallReason.NO_RESERVABLE_LINE.value

#: ``kernel(cache, windows, full, n, sm_id)`` — advance ``cache``
#: through the partitioned stream ``windows`` (``full`` closing sampling
#: windows, ``n`` records total for SM ``sm_id``).
Kernel = Callable[[FastL1DCache, List[List[SetRun]], int, int, int], None]

#: Kind groups.  ``baseline`` and ``stall_bypass`` share the
#: ``unprotected`` kernel: in blocking replay the only stall is
#: NO_RESERVABLE_LINE, which unprotected policies never raise, so the
#: bypass path is unreachable and both reduce to plain LRU.
UNPROTECTED, GLOBAL, DLP = "unprotected", "global", "dlp"


def kernel_key(cache: FastL1DCache, max_insn: int) -> Tuple[Any, ...]:
    """The kernel specialization key for one lane's cache."""
    if not cache._protected:
        return (UNPROTECTED, cache._assoc)
    kind = DLP if cache._kind == KIND_DLP else GLOBAL
    # hash_pc folds PCs to 7 bits, so with the stock 128-entry PDPT the
    # ``% pdpt_n`` folds are identities and the kernel drops them.
    nomod = kind != DLP or max_insn < cache._pdpt_n
    return (kind, cache._assoc, cache._bypass_enabled, nomod)


def get_kernel(key: Tuple[Any, ...]) -> Kernel:
    return _build(*key)


@lru_cache(maxsize=None)
def _build(kind: str, assoc: int, bypass_enabled: bool = False,
           nomod: bool = True) -> Kernel:
    a = assoc
    prot = kind != UNPROTECTED
    dlp = kind == DLP
    ways = range(a)

    bs = [f"b{k}" for k in ways]
    is_ = [f"i{k}" for k in ways]
    ls = [f"l{k}" for k in ways]
    if prot:
        fields = (bs + is_ + [f"d{k}" for k in ways]
                  + [f"s{k}" for k in ways] + ls + ["stamp", "t"])
    else:
        fields = bs + is_ + ls + ["stamp"]
    unpack = ", ".join(fields)

    lines: List[str] = []

    def emit(level: int, *chunk: str) -> None:
        pad = "    " * level
        for ln in chunk:
            lines.append(pad + ln)

    # -- prologue ------------------------------------------------------
    emit(0, "def _kernel(cache, windows, full, n, sm_id):")
    emit(1,
         "if cache._stamp or cache.stats.loads or cache.stats.stores:",
         "    raise ValueError('replay kernels require a fresh cache')",
         "blk = cache._blk",
         "iid = cache._iid",
         "pli = cache._pli",
         "lru = cache._lru",
         "st = cache._st",
         "num_sets = cache._num_sets")
    if prot:
        emit(1,
             "pl_max = cache._pl_max",
             "vta_assoc = cache._vta_assoc",
             "acc_limit = cache._acc_limit",
             "vds = [{} for _ in range(num_sets)]",
             "vta_hits = 0",
             "vta_inserts = 0",
             "stalls = 0",
             "hw0 = 0",
             "vw0 = 0")
    if dlp:
        emit(1,
             "pdt = cache._pdt",
             "pdv = cache._pdv",
             "pdl = cache._pdl",
             "pdu = cache._pdu",
             "pdpt_n = cache._pdpt_n",
             "tda_max = cache._tda_hit_max",
             "vta_max = cache._vta_hit_max")
    elif prot:
        emit(1, "gpd = cache._gpd")
    emit(1,
         "hits = 0",
         "misses = 0",
         "bypasses = 0",
         "evictions = 0",
         "stores = 0",
         "write_hits = 0")

    # -- per-set state tuples ------------------------------------------
    emit(1,
         "state = [None] * num_sets",
         "for si in range(num_sets):",
         f"    base = si * {a}")
    pack = f"tuple(blk[base:base + {a}]) + tuple(iid[base:base + {a}])"
    if prot:
        pack += (f" + tuple(pli[base:base + {a}]) + (0,) * {a}"
                 f" + tuple(lru[base:base + {a}]) + (0, 0)")
    else:
        pack += f" + tuple(lru[base:base + {a}]) + (0,)"
    emit(2, f"state[si] = {pack}")

    # -- main loop -----------------------------------------------------
    emit(1, "for w in range(len(windows)):")
    emit(2, "for si, seg in windows[w]:")
    emit(3, f"{unpack} = state[si]")
    if prot:
        emit(3, "vd = vds[si]")
    emit(3, "for block, insn, isw in seg:")
    if prot:
        emit(4, "t += 1")

    # write path: write-through + write-evict, never stalls
    emit(4, "if isw:")
    emit(5, "stores += 1")
    for k in ways:
        emit(5, f"{'if' if k == 0 else 'elif'} b{k} == block:")
        body = [f"b{k} = -1", f"i{k} = 0"]
        if prot:
            body.append(f"d{k} = 0")
        body.append("write_hits += 1")
        emit(6, *body)
    emit(5, "continue")

    # hit chain
    for k in ways:
        emit(4, f"if b{k} == block:")
        emit(5, "hits += 1")
        if dlp:
            emit(5,
                 f"i = i{k}" if nomod else f"i = i{k} % pdpt_n",
                 "if pdt[i] < tda_max:",
                 "    pdt[i] += 1",
                 "pdu[i] = True",
                 f"i{k} = insn",
                 "pd = pdl[insn]" if nomod else "pd = pdl[insn % pdpt_n]",
                 f"d{k} = pd if pd < pl_max else pl_max",
                 f"s{k} = t")
        elif prot:
            emit(5, f"d{k} = gpd", f"s{k} = t")
        emit(5, "stamp += 1", f"l{k} = stamp", "continue")

    # victim selection (invalid way first, then eligible-LRU)
    for k in ways:
        emit(4, f"{'if' if k == 0 else 'elif'} b{k} < 0:")
        emit(5, f"victim = {k}")
    emit(4, "else:")
    if prot:
        emit(5, "victim = -1", "cs = 0")
        for k in ways:
            cond = f"d{k} <= t - s{k}"
            if k:
                cond += f" and (victim < 0 or l{k} < cs)"
            emit(5, f"if {cond}:")
            emit(6, f"victim = {k}", f"cs = l{k}")
    else:
        emit(5, "victim = 0", "cs = l0")
        for k in range(1, a):
            emit(5, f"if l{k} < cs:")
            emit(6, f"victim = {k}", f"cs = l{k}")

    if prot:
        emit(4, "retries = 0")
        emit(4, "while True:")
        emit(5, "ent = vd.pop(block, None)")
        emit(5, "if ent is not None:")
        emit(6, "vta_hits += 1")
        if dlp:
            emit(6,
                 "i = ent" if nomod else "i = ent % pdpt_n",
                 "if pdv[i] < vta_max:",
                 "    pdv[i] += 1",
                 "pdu[i] = True")
        emit(5, "if victim < 0:")
        if bypass_enabled:
            emit(6, "bypasses += 1", "break")
        else:
            emit(6,
                 "stalls += 1",
                 "retries += 1",
                 "if retries > MAX_STALL_RETRIES:",
                 "    raise ReplayStallError(",
                 "        f'SM{sm_id} access to block {block:#x} '",
                 "        f'stalled {retries} times '",
                 "        f'({StallReason.NO_RESERVABLE_LINE}) '",
                 "        f'without converging'",
                 "    )",
                 "r = t + retries",
                 "victim = -1",
                 "cs = 0")
            for k in ways:
                cond = f"d{k} <= r - s{k}"
                if k:
                    cond += f" and (victim < 0 or l{k} < cs)"
                emit(6, f"if {cond}:")
                emit(7, f"victim = {k}", f"cs = l{k}")
            emit(6, "continue")
        emit(5, "if retries:")
        emit(6, *(f"s{k} -= retries" for k in ways))
        if dlp:
            emit(5,
                 "pd = pdl[insn]" if nomod else "pd = pdl[insn % pdpt_n]",
                 "pl = pd if pd < pl_max else pl_max")
        else:
            emit(5, "pl = gpd")
        emit(5, "stamp += 2")
        for k in ways:
            emit(5, f"{'if' if k == 0 else 'elif'} victim == {k}:")
            emit(6, f"if b{k} >= 0:")
            emit(7,
                 "evictions += 1",
                 f"if b{k} in vd:",
                 f"    del vd[b{k}]",
                 "elif len(vd) >= vta_assoc:",
                 "    del vd[next(iter(vd))]",
                 f"vd[b{k}] = i{k}",
                 "vta_inserts += 1")
            emit(6,
                 f"b{k} = block",
                 f"i{k} = insn",
                 f"d{k} = pl",
                 f"s{k} = t",
                 f"l{k} = stamp")
        emit(5, "misses += 1", "break")
    else:
        emit(4, "stamp += 2")
        for k in ways:
            emit(4, f"{'if' if k == 0 else 'elif'} victim == {k}:")
            emit(5, f"if b{k} >= 0:")
            emit(6, "evictions += 1")
            emit(5, f"b{k} = block", f"i{k} = insn", f"l{k} = stamp")
        emit(4, "misses += 1")

    emit(3, f"state[si] = ({unpack})")

    # sampling-window barrier
    if prot:
        emit(2, "if w < full:")
        if dlp:
            emit(3,
                 "cache._g_tda = hits - hw0",
                 "cache._g_vta = vta_hits - vw0")
        else:
            emit(3,
                 "cache._gp_tda = hits - hw0",
                 "cache._gp_vta = vta_hits - vw0")
        emit(3, "cache._end_sample()", "hw0 = hits", "vw0 = vta_hits")
        if not dlp:
            emit(3, "gpd = cache._gpd")

    # -- writeback -----------------------------------------------------
    emit(1, "for si in range(num_sets):")
    emit(2, f"base = si * {a}", f"{unpack} = state[si]")
    emit(2, f"blk[base:base + {a}] = ({', '.join(bs)},)")
    emit(2, f"iid[base:base + {a}] = ({', '.join(is_)},)")
    emit(2, f"lru[base:base + {a}] = ({', '.join(ls)},)")
    emit(2, f"st[base:base + {a}] = "
            f"({', '.join(f'VALID if b{k} >= 0 else INVALID' for k in ways)},)")
    if prot:
        emit(2, *(f"r{k} = d{k} - (t - s{k})" for k in ways))
        emit(2, f"pli[base:base + {a}] = "
                f"({', '.join(f'r{k} if r{k} > 0 else 0' for k in ways)},)")
        emit(2,
             "vd = vds[si]",
             "k = len(vd)",
             "pad = vta_assoc - k",
             "base = si * vta_assoc",
             "end = base + vta_assoc",
             "cache._vta_valid[base:end] = [True] * k + [False] * pad",
             "cache._vta_blk[base:end] = list(vd) + [-1] * pad",
             "cache._vta_iid[base:end] = list(vd.values()) + [0] * pad",
             "cache._vta_lru[base:end] = list(range(1, k + 1)) + [0] * pad")
    emit(1,
         "s = cache.stats",
         "s.loads += hits + misses + bypasses",
         "s.hits += hits",
         "s.misses += misses",
         "s.bypasses += bypasses",
         "s.stores += stores",
         "s.write_hits += write_hits",
         "s.write_misses += stores - write_hits",
         "s.write_evicts += write_hits",
         "s.evictions += evictions",
         "s.fills += misses",
         "s.sent_fetches += misses + bypasses",
         "s.sent_writes += stores",
         "cache._stamp += hits + 2 * misses")
    if prot:
        emit(1,
             "if stalls:",
             "    s.stalls[_NO_LINE] = s.stalls.get(_NO_LINE, 0) + stalls",
             "cache.protected_bypasses += bypasses",
             "cache._vta_hit_count += vta_hits",
             "cache._vta_insert_count += vta_inserts",
             "cache._vta_stamp += vta_inserts",
             "cache._vta_probe_count += misses + bypasses + stalls",
             "cache.samples_completed += full",
             "cache.closed_by['accesses'] += full",
             "cache._acc = n - full * acc_limit")
        if dlp:
            emit(1,
                 "cache._g_tda = hits - hw0",
                 "cache._g_vta = vta_hits - vw0")
        else:
            emit(1,
                 "cache._gp_tda = hits - hw0",
                 "cache._gp_vta = vta_hits - vw0")

    source = "\n".join(lines) + "\n"
    namespace: Dict[str, Any] = {
        "VALID": VALID,
        "INVALID": INVALID,
        "MAX_STALL_RETRIES": MAX_STALL_RETRIES,
        "ReplayStallError": ReplayStallError,
        "StallReason": StallReason,
        "_NO_LINE": _NO_LINE,
    }
    code = compile(source, f"<batchsim kernel {kind}/a{a}>", "exec")
    exec(code, namespace)  # noqa: S102 — trusted, locally generated source
    return cast(Kernel, namespace["_kernel"])


__all__ = ["Kernel", "kernel_key", "get_kernel", "UNPROTECTED", "GLOBAL",
           "DLP"]
