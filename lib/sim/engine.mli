(** Event-driven flow-level execution engine — the OCaml counterpart of
    the paper's custom simulator (§5.1).

    The engine plays a task list against a scheduling algorithm on a
    topology. Between events every flow transfers at its assigned rate;
    events are task arrivals, flow completions, deadline expiries and
    foreground-traffic changes, and after each batch of simultaneous
    events the algorithm recomputes the full allocation (exactly the
    paper's "whenever an event occurs ... perform computations based on
    the scheduling algorithm"). Tasks still incomplete at their
    deadline are abandoned; their untransferred volume is recorded as
    the paper's {e remaining volume} metric.

    The engine trusts but verifies: allocations exceeding available
    capacity on an entity are scaled back proportionally and the
    incident is counted in [clamp_events] (always 0 for the shipped
    algorithms — the tests assert this).

    A {!S3_fault.Fault.t} plan adds a fifth event kind. When a server
    dies the engine kills every flow it was sourcing or sinking, then
    for each surviving task asks the algorithm's
    {!S3_core.Algorithm.t.reselect} hook to re-home the lost subtasks
    onto surviving candidate sources; a task whose destination died,
    whose surviving candidates cannot cover [k], or whose algorithm has
    no hook, is lost on the spot. Degradations scale entity capacity in
    both the algorithm's view and the clamp check, so well-behaved
    algorithms still never clamp. All of it is deterministic: the same
    seed, plan and workload replay to the same {!Report.fingerprint}.

    A {!Watchdog.config} adds a supervision layer on top: after every
    recomputation the engine projects each in-flight subtask's finish
    time from its assigned rate, swaps stragglers onto unused spare
    sources through the same [reselect] hook (budgeted and exponentially
    backed off per task), and sheds tasks that are provably infeasible
    on every remaining source set. Without [?watchdog] none of this
    code runs and the engine is byte-identical to its pre-watchdog
    behavior — the tests pin this with fingerprints.

    A {!S3_fault.Detector.config} removes the engine's omniscience
    about failures: physical crashes only zero out capacity, and every
    control-plane reaction (flow kills, re-homes, losses, repair
    injection, candidate eligibility) waits for the detector's
    confirmation events — so killed flows keep "transferring" into a
    dead NIC at rate zero until detection, exactly the window the
    suspicion latency models. A {!Retry.config} adds per-flow stall
    timers for transient link degradations (same-source retries with
    exponential backoff, then a re-home) and its [resume] switch makes
    {e every} replacement fetch resume from partial progress instead of
    restarting. Without [?detector] and [?retry] none of these paths
    run and the engine is byte-identical to its pre-detection
    behavior. *)

type config = {
  foreground : Foreground.config;
  seed : int;  (** seeds the foreground process *)
}

val default_config : config
(** No foreground traffic, seed 7. *)

type data_plane = {
  control_latency : unit -> float;
      (** seconds every transfer stays paused after a scheduling event —
          the cloud prototype pauses rsync, recomputes, and re-issues
          ssh commands on each event; 0 in the ideal simulator *)
  shape_rate : flow_id:int -> float -> float;
      (** per-flow distortion of an assigned rate (quantization,
          throughput jitter); the engine never lets it exceed the
          assigned rate, so shaping cannot violate capacity *)
}

val ideal_data_plane : data_plane
(** No latency, rates applied exactly (the simulator of §5.1). *)

exception Invalid_selection of { task : int; server : int; detail : string }
(** The algorithm returned an unusable source selection (wrong count,
    a non-candidate, a duplicate) at spawn or re-selection time.
    [server] is the offending server, or [-1] when the problem is not
    tied to one (a count mismatch). *)

module type S = sig
  val run :
    ?config:config ->
    ?data_plane:data_plane ->
    ?on_event:(float -> S3_core.Problem.view -> S3_core.Allocation.rates -> unit) ->
    ?faults:S3_fault.Fault.t ->
    ?detector:S3_fault.Detector.config ->
    ?retry:Retry.config ->
    ?on_failure:(now:float -> server:int -> Metrics.Task.t list) ->
    ?watchdog:Watchdog.config ->
    S3_net.Topology.t ->
    S3_core.Algorithm.t ->
    Metrics.Task.t list ->
    Metrics.run
end

module Make (I : Flow_index.S) : S
(** The engine written against an index implementation. Every
    per-entity question the engine asks — which flows cross an entity,
    which entities a clamp pass must check, which tasks a crash may
    touch, what Phase I's congestion load is — goes through [I]; the
    engine's decisions are otherwise fixed. Two indexes that meet the
    {!Flow_index.S} contract therefore replay the same run bit for bit:
    the test suite pins {!run} against a full-rescan twin that scans
    every live task for each answer. *)

include S
(** [run] is [Make (Flow_index).run], the O(affected) engine: a
    scheduling event touches only the entities and tasks it affects
    (dirty-set capacity clamping, indexed crash candidates, a memoized
    per-entity congestion load handed to Phase I through
    {!S3_core.Problem.view}[.load], and an O(1) per-task straggler
    prefilter in the watchdog).

    Execute to quiescence and report. [on_event] observes every
    post-recomputation state (used by the Table 2 walkthrough). Tasks
    may be given in any order, with distinct ids ([Invalid_argument]
    otherwise: outcomes and the views' task groups are keyed by id);
    destinations and sources must be valid servers of the topology.
    Raises {!Invalid_selection} if the
    algorithm returns an invalid source selection. The [load] accessor
    in views handed to [on_event] reads live engine state: consult it
    during the callback, not after.

    [faults] (default {!S3_fault.Fault.empty}) is played into the run
    as described above. [on_failure] is consulted once per server
    crash, {e after} kill / re-home processing, and may return
    closed-loop repair tasks, which are injected as ordinary arrivals
    (their ids must not collide with existing tasks — that raises
    [Invalid_argument]); {!S3_fault.Fault.closed_loop_repair} is the
    intended implementation. With a hook installed the run keeps going
    until the fault script is exhausted, so late crashes still spawn
    their repair traffic.

    [watchdog] (default off) enables the deadline-watchdog supervision
    layer. A subtask projected past its deadline by more than the
    config's slack is hedged onto a spare source when the algorithm has
    a [reselect] hook, the per-task swap budget allows it, and a spare
    with a currently feasible path exists ({!S3_core.Rtf.path_feasible});
    a task no remaining source set can finish in time is shed early,
    its delivered volume recorded in [Metrics.run.shed_volume]. The
    supervision pass is a pure function of run state, so watchdog runs
    replay byte-identically too.

    [detector] (default off: omniscient) compiles the fault plan into a
    deterministic detection schedule ({!S3_fault.Detector.schedule})
    and replays the engine's failure reactions at confirmation time.
    Suspected-but-unconfirmed servers are avoided by fresh selections
    and re-homes but their flows are not killed; a crash–recover blip
    shorter than the suspicion window goes entirely unnoticed (the
    transfer session survives, and "recovered servers come back empty"
    applies only to confirmed deaths). [on_failure] fires per
    {e confirmation}, trailing the physical crash by the detection
    latency. A zero-latency detector replays the omniscient engine's
    decisions exactly (only the detection counters differ).

    [retry] (default off) arms a stall timer on every flow that holds
    volume, no rate, and a route through a degraded entity: [retries]
    same-source retries with exponentially backed-off timeouts, then a
    re-home through [reselect] onto an eligible spare ([give up] when
    none exists). Its [resume] field (default [true]) switches {e all}
    replacement fetches — crash re-homes, watchdog swaps, retry
    re-homes — from restart-at-full-volume to resume-from-partial-
    progress, moving those bytes from [Metrics.run.wasted] to
    [Metrics.run.bytes_resumed] and keeping the conservation law
    [transferred = completed + wasted + shed_volume] exact. *)
