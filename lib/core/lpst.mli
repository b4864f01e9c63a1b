(** LPST — Linear Programming for Selected Tasks, the paper's
    contribution (Algorithm 1).

    Phase I (at arrival): congestion-aware source selection
    ({!Congestion.select_least_congested}). Phase II (every event):
    rank tasks by Remaining Time Flexibility and admit them greedily
    while their least-required bandwidths fit the remaining capacity;
    tasks that do not fit wait — they are reconsidered at the next
    event rather than starved. Phase III: one LP over the admitted
    flows maximizes total bandwidth subject to capacity, with each
    flow's LRB as a lower bound, so admitted tasks finish early and by
    their deadline.

    Admission is {e sticky}: an admitted task keeps its reservation
    across events until it completes, expires, or a foreground-traffic
    drop forces an eviction (most-flexible-first). Without stickiness a
    half-finished task can lose its slot to a waiting one and both miss
    — stickiness is what makes the paper's "admitted tasks are
    guaranteed to meet their individual deadlines" hold. A consequence
    is that an instance carries per-run state: create a fresh one per
    execution.

    Phase II runs on arrays the instance owns and reuses from event to
    event: the view's task groups ({!Problem.view}[.tasks]) are ranked
    by unboxed keys through an [int] index sort on [(key, task id)],
    admission sums each task's LRB demand on a per-entity scratch
    buffer, and sticky membership is a per-task generation stamp. The
    decisions are exactly those of the list-based formulation
    (regroup, partition held from waiting, [List.sort], filter), which
    the test suite keeps as an oracle.

    The [sources], [admission] and [bandwidth] knobs exist for the
    paper's Fig. 3a ablations (LPST-Pi keeps only phase i, replacing
    the others with simple heuristics) and default to the real
    algorithm. *)

type admission =
  | Rtf_order  (** Phase II as published: ascending RTF *)
  | Arrival_order  (** ablation heuristic: "earlier start time first" *)

type bandwidth =
  | Lp_max  (** Phase III as published: LP utilization maximization *)
  | Lrb_only  (** ablation heuristic: every admitted task gets exactly LRB *)

val admit :
  ?admission:admission -> Problem.view ->
  (Problem.Task.t * Problem.flow list) list
(** Phase II alone: the admitted tasks, in admission order — exposed
    for tests and the Table 2 walkthrough. The same code as
    [allocate]'s Phase II, on a fresh state (so no task is held). *)

val lpst :
  ?sources:Algorithm.source_policy ->
  ?backend:S3_lp.Lp.backend ->
  ?admission:admission ->
  ?bandwidth:bandwidth ->
  ?sticky:bool ->
  ?name:string ->
  unit -> Algorithm.t
(** [sticky] (default [true]) keeps admitted tasks admitted across
    events; [false] re-triages from scratch on every event — provided
    only for the ablation benchmark that demonstrates why stickiness is
    load-bearing. The Phase III LP runs through one solver state per
    instance, so it is solved as independent blocks of flows that
    share no entity (see {!S3_lp.Lp.solve}); across events the state
    reuses the previous solution when the LP repeats verbatim and
    warm-starts from the previous basis when the LP only grew. *)
