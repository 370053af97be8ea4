"""Correctness oracles over recorded histories and finished machines.

The paper's architectural claim is that two-phase commit, software
handlers, and closed/open nesting suffice for *correct* concurrency.
These oracles state what "correct" means, checkable on any schedule:

* **Conflict serializability** (:func:`check_serializability`): the
  precedence graph over committed transactions — ordered by write→read,
  read→write (anti) and write→write dependencies on the hardware's own
  tracking units — must be acyclic.  Because the recorder registers
  non-transactional accesses as singleton committed transactions, this
  single check also covers **strong atomicity**: a torn or interleaved
  non-transactional access shows up as a cycle like any other.
  Transactions that deliberately opted out of isolation (RESUME-d
  violations, ``release``) are waived — see
  :mod:`repro.check.history`.
* **No lost wakeups** (:func:`check_lost_wakeups`): a run must not end —
  by deadlock or by cycle overrun — with a parked thread that software
  promised to wake (DESIGN.md §6b: the violation-record re-queue and
  register-restore rules exist precisely to keep this).
* **Compensation counting** (:func:`check_exact_count`): open-nested
  effects with compensation must land exactly once per committed
  transaction and at most once overall (DESIGN.md §6b.6); the adversarial
  programs feed their counters through this helper.
* **Fault quiescence** (:func:`check_fault_quiescence`): a run that
  absorbed injected faults (:mod:`repro.faults`) must still end with the
  hardware quiescent — no transaction open, no stale validated level, no
  serial owner.  Leftover speculative state means a recovery path lost
  track of a transaction even though the program's invariants happened to
  survive.
* **Cycle conservation** (:func:`check_cycle_conservation`): the
  :class:`~repro.obs.profiler.CycleProfiler`'s per-CPU buckets
  (committed / wasted / handler / overhead / idle) must be non-negative
  and sum to exactly ``cycles × cpus``.  Idle is measured from real
  scheduling gaps, not computed as a residual, so any cycle the books
  lose — a rollback that failed to reclassify speculative work, an op
  charged twice — surfaces as an imbalance.
* **Determinism** (:func:`check_rerun`): a failing case is run a second
  time to capture its trace tail, and since every case is a pure
  function of its replayable name, the second run must reach the same
  violations and commit the same history.  A difference means the
  failure would not replay from its name.
"""

from __future__ import annotations

import dataclasses

from repro.common.errors import DeadlockError, ReproError, SimulationError


@dataclasses.dataclass
class OracleViolation:
    """One oracle failure, with enough detail to reason about it."""

    oracle: str          # serializability | lost-wakeup | compensation |
    #                      invariant | run-failure | nondeterminism
    detail: str
    cycle: list = None   # txids, for serializability violations

    def __str__(self):
        extra = f" cycle={self.cycle}" if self.cycle else ""
        return f"[{self.oracle}] {self.detail}{extra}"


# ----------------------------------------------------------------------
# Conflict serializability
# ----------------------------------------------------------------------

def precedence_graph(records):
    """Adjacency (txid -> set of txids) of the conflict-precedence graph.

    Edge ``A -> B`` means A must precede B in any equivalent serial
    order:

    * writer committed before a reader first read the unit: ``W -> R``;
    * reader's last read preceded the writer's commit (the read saw the
      pre-state): ``R -> W`` (anti-dependency);
    * the writer's commit landed *inside* the reader's read window (the
      reader observed both pre- and post-state): both edges — an
      inconsistent read, guaranteed to surface as a 2-cycle;
    * two writers: earlier commit -> later commit.

    Read seqs and commit seqs are drawn from one global monotone counter,
    so the comparisons are total and unambiguous.
    """
    readers = {}   # unit -> [(first, last, txid)]
    writers = {}   # unit -> [(commit_seq, txid)]
    for record in records:
        for unit, (first, last) in record.reads.items():
            readers.setdefault(unit, []).append((first, last, record.txid))
        for unit in record.writes:
            writers.setdefault(unit, []).append(
                (record.commit_seq, record.txid))
    edges = {record.txid: set() for record in records}
    for unit, unit_writers in writers.items():
        unit_writers.sort()
        for i, (_, earlier) in enumerate(unit_writers):
            for _, later in unit_writers[i + 1:]:
                if earlier != later:
                    edges[earlier].add(later)
        for first, last, reader in readers.get(unit, ()):
            for commit_seq, writer in unit_writers:
                if writer == reader:
                    continue   # a transaction may read its own write
                if commit_seq < first:
                    edges[writer].add(reader)
                elif commit_seq > last:
                    edges[reader].add(writer)
                else:
                    edges[writer].add(reader)
                    edges[reader].add(writer)
    return edges


def find_cycle(edges):
    """A cycle in ``edges`` as a node list (closed: first == last), or
    None.  Iterative DFS with an explicit stack; node order is made
    deterministic by sorting."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in edges}
    parent = {}
    for root in sorted(edges):
        if color[root] != WHITE:
            continue
        stack = [(root, iter(sorted(edges[root])))]
        color[root] = GREY
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if child not in color:
                    continue
                if color[child] == WHITE:
                    color[child] = GREY
                    parent[child] = node
                    stack.append((child, iter(sorted(edges[child]))))
                    advanced = True
                    break
                if color[child] == GREY:
                    cycle = [child, node]
                    walk = node
                    while walk != child:
                        walk = parent[walk]
                        cycle.append(walk)
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def check_serializability(history, waive=True):
    """Zero or one :class:`OracleViolation` for ``history``."""
    records = [r for r in history.committed
               if not (waive and r.waived)]
    edges = precedence_graph(records)
    cycle = find_cycle(edges)
    if cycle is None:
        return []
    by_txid = {r.txid: r for r in records}
    chain = " -> ".join(str(by_txid[txid]) for txid in cycle)
    return [OracleViolation(
        oracle="serializability",
        detail=f"precedence cycle over {len(records)} committed "
               f"transactions: {chain}",
        cycle=cycle)]


# ----------------------------------------------------------------------
# Lost wakeups
# ----------------------------------------------------------------------

def check_lost_wakeups(machine, error, waiter_cpus=None):
    """Flag a run that ended with a parked thread nobody will wake.

    ``error`` is the exception (if any) that ended the run.  A
    :class:`DeadlockError`, or a cycle-overrun :class:`SimulationError`
    (daemon threads keep a machine "runnable" forever while a waiter
    sleeps), with a non-daemon CPU still WAITING is a lost wakeup.  A
    workload ``verify`` failure that names lost/duplicated wakeups (the
    condsync invariant) counts too.  ``waiter_cpus`` optionally restricts
    which CPUs the program considers legitimate parkers.
    """
    from repro.isa.context import WAITING

    if error is None:
        return []
    if isinstance(error, ReproError) and "wakeup" in str(error):
        return [OracleViolation("lost-wakeup", str(error))]
    if not isinstance(error, (DeadlockError, SimulationError)):
        return []
    stuck = [
        cpu.cpu_id for cpu in machine.cpus
        if cpu.frames and cpu.state == WAITING and not cpu.daemon
        and (waiter_cpus is None or cpu.cpu_id in waiter_cpus)
    ]
    if not stuck:
        return []
    return [OracleViolation(
        oracle="lost-wakeup",
        detail=f"cpu(s) {stuck} parked with no wakeup in flight; run "
               f"ended with: {error}")]


# ----------------------------------------------------------------------
# Compensation / invariant helpers
# ----------------------------------------------------------------------

def check_exact_count(name, actual, expected, at_most=False):
    """Exactly-once (or, with ``at_most=True``, at-most-once)
    compensation accounting: ``actual`` open-nested net effects against
    ``expected`` committed transactions."""
    ok = actual <= expected if at_most else actual == expected
    if ok:
        return []
    relation = "<=" if at_most else "=="
    return [OracleViolation(
        oracle="compensation",
        detail=f"{name}: net open-nested effects {actual}, expected "
               f"{relation} {expected} (compensation ran the wrong "
               f"number of times)")]


def check_invariant(name, ok, detail=""):
    """Generic program invariant as an oracle result."""
    if ok:
        return []
    return [OracleViolation("invariant", f"{name}: {detail}")]


# ----------------------------------------------------------------------
# Cycle conservation
# ----------------------------------------------------------------------

def check_cycle_conservation(account):
    """Every simulated cycle must land in exactly one profiler bucket.

    ``account`` is a :class:`~repro.obs.profiler.CycleAccount` (or None,
    when no profiler ran).  Zero or more :class:`OracleViolation`\\ s.
    """
    if account is None:
        return []
    return [OracleViolation("cycle-conservation", problem)
            for problem in account.problems()]


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------

def check_rerun(first, second):
    """A re-run of a case must reproduce it.

    ``first`` and ``second`` are ``(violations, commit signature)`` pairs
    of two runs of the same case (the signature is
    :meth:`~repro.check.history.History.signature`).  Zero or one
    :class:`OracleViolation`.
    """
    (violations, signature), (again, signature_again) = first, second
    problems = []
    if again != violations:
        problems.append(f"violations {[str(v) for v in violations]} "
                        f"became {[str(v) for v in again]}")
    if signature_again != signature:
        problems.append(f"the committed history changed "
                        f"({len(signature)} -> {len(signature_again)} "
                        f"commits)")
    if not problems:
        return []
    return [OracleViolation(
        "nondeterminism",
        "re-running the case did not reproduce it: "
        + "; ".join(problems))]


# ----------------------------------------------------------------------
# Fault quiescence
# ----------------------------------------------------------------------

def check_fault_quiescence(machine, error=None):
    """After a fault-injected run, the hardware must be quiescent.

    Applies only to runs that *finished* (``error is None`` — a failed
    run is already reported by the run-failure path).  Daemon CPUs are
    exempt: the condsync scheduler holds its watch transaction open for
    the machine's whole life by design.
    """
    if error is not None:
        return []
    htm = machine.htm
    violations = []
    daemons = {cpu.cpu_id for cpu in machine.cpus if cpu.daemon}
    for state in htm.states:
        if state.cpu_id in daemons:
            continue
        if state.in_tx():
            violations.append(OracleViolation(
                "quiescence",
                f"cpu {state.cpu_id} ended the run with an open "
                f"transaction at depth {state.depth()}"))
    stale = sorted(
        (cpu_id, level) for cpu_id, level in htm.validated
        if cpu_id not in daemons)
    if stale:
        violations.append(OracleViolation(
            "quiescence",
            f"stale validated level(s) {stale} after the run "
            f"(a commit never completed its second phase)"))
    if htm.serial_owner is not None and htm.serial_owner not in daemons:
        violations.append(OracleViolation(
            "quiescence",
            f"cpu {htm.serial_owner} still owns serial mode"))
    return violations
