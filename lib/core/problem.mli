(** The S3 problem as seen by a scheduling algorithm.

    At every scheduling event (task arrival, flow completion, deadline
    expiry, foreground-traffic change) the execution engine presents
    the algorithm with a {!view}: the active {e flows} — one per
    selected chunk of each running task — and the bandwidth currently
    available to background traffic on each capacity entity. The
    algorithm answers with a rate per flow. Sources are selected once,
    at arrival, and stay fixed while the task runs (paper, eq. (1)). *)

module Task = S3_workload.Task
module Topology = S3_net.Topology

type flow = {
  flow_id : int;  (** unique within a run *)
  task : Task.t;
  source : int;  (** the selected source server of this subtask *)
  route : int array;
      (** capacity entities consumed: the topology's shared memoized
          [Topology.route_array ~src:source ~dst:task.destination];
          never mutate it. Carried so planning loops read it off the
          flow instead of looking it up in the topology's route cache. *)
  remaining : float;  (** megabits still to transfer *)
}

type view = {
  now : float;
  topo : Topology.t;
  flows : flow list Lazy.t;
      (** incomplete flows of all active tasks. Lazy because the
          dominant consumer — Phase-I source selection with an
          engine-maintained [load] index — never looks at the flow
          list, and building it is O(all flows) per view. The thunk
          reads the engine's live flow state, so a view is only valid
          until the engine's next mutation — algorithms must force
          [flows] or [tasks] (or neither) before returning, never stash
          the view. *)
  tasks : (Task.t * flow list) list Lazy.t;
      (** the same flows grouped per task: tasks in arrival order
          (first appearance in [flows]), flows in [flows] order within
          a task, no empty group, task ids distinct. The engine builds
          this grouping straight from its task records and derives
          [flows] from it, so task-level consumers (Phase II, the
          sequencing baselines) never regroup a flat list; a view made
          by {!of_flows} groups its list instead. *)
  available : int -> float;  (** entity id -> megabits/s currently
                                 available to background traffic (raw
                                 capacity minus foreground load) *)
  load : (int -> float) option;
  (** entity id -> sum of the finite least-required bandwidths of the
      view's flows crossing that entity, when the engine maintains the
      per-entity flow index that makes this O(flows on entity) instead
      of O(all flows), and O(1) on repeat probes within one instant. Must equal — bit-for-bit, same accumulation
      order as the view's flow order — what {!Congestion.of_view}
      computes from scratch; [None] when no index is available. *)
}

val make_flow :
  Topology.t -> flow_id:int -> task:Task.t -> source:int -> remaining:float -> flow
(** A flow with its [route] resolved on the topology. *)

val route : view -> flow -> int list
(** Capacity entities this flow consumes. *)

val route_arr : view -> flow -> int array
(** Same as {!route}, as the flow's [route] — the topology's shared
    memoized array, allocation-free; callers must not mutate it. *)

val path_available : view -> src:int -> dst:int -> float
(** Bottleneck available bandwidth between two servers: min of
    [available] along the route; [infinity] for an empty route. This is
    the [C_{o,p}] in the RTF formula. *)

val flow_path_available : view -> flow -> float

val of_flows :
  ?load:(int -> float) ->
  now:float -> topo:Topology.t -> available:(int -> float) -> flow list -> view
(** A view over a bare flow list, whose flows may interleave tasks:
    [tasks] groups them by task id (tasks in order of first appearance,
    flows in list order). [load] defaults to [None]. *)

val by_task : view -> (Task.t * flow list) list
(** [Lazy.force v.tasks]: flows grouped per task, preserving task
    arrival order and flow order within a task. *)

val deadline_slack : view -> flow -> float
(** Seconds until the flow's deadline; negative once expired. *)
