(** The engine's per-entity indexes: what makes a scheduling event cost
    O(what it touches) instead of a rescan of every live flow.

    {!Engine.Make} is written against {!S}; {!Engine.run} instantiates
    it with this module. The index owns three pieces of state:
    - per-entity flow buckets (every live flow whose route crosses the
      entity) and the per-entity rate sum ([usage]);
    - the Phase-I congestion-load memo, handed to algorithms through
      {!S3_core.Problem.view}[.load];
    - the dirty set of entities whose usage or availability moved since
      the last clamp pass.

    The engine owns the flows and tasks themselves and mutates their
    fields; it tells the index about every structural change (spawn,
    replacement, retirement, resolution) and routes every rate change
    through {!S.set_rate}. *)

(** The live state the engine owns and the index reads. *)
module Live : sig
  type flow = {
    flow_id : int;
    source : int;
    route : int array;  (** capacity entities consumed; fixed at spawn *)
    start : float;  (** [remaining] at spawn: below the volume when resumed *)
    mutable remaining : float;
    mutable rate : float;
  }

  type task = {
    seq : int;  (** spawn sequence number; later spawns have larger ones *)
    task : S3_workload.Task.t;
    lflows : flow array;  (** one slot per selected source *)
    mutable resolved : bool;  (** flows gone: completed or abandoned *)
    mutable failed : bool;  (** deadline passed with volume outstanding *)
    mutable planned : S3_workload.Task.t * S3_core.Problem.flow list;
        (** the task's group in the last view the engine built; reused
            while its live flows keep their ids and volumes *)
  }
end

(** The index contract. Every answer must be a pure function of the
    flows and tasks the engine has registered, so that two
    implementations of [S] drive the engine to byte-identical runs. *)
module type S = sig
  type t

  val create : S3_net.Topology.t -> t

  val tick : t -> now:float -> unit
  (** The clock moved to [now]; every LRB moved with it. *)

  val add_task : t -> Live.task -> unit
  (** A task spawned: register it and every flow in its slots. *)

  val add : t -> Live.task -> int -> Live.flow -> unit
  (** [add t lt slot f]: [f] replaced the flow in [lt]'s [slot]. *)

  val remove : t -> Live.flow -> unit
  (** The flow stopped: killed, drained or abandoned. Its rate is
      already 0. *)

  val retire : t -> Live.task -> unit
  (** The task resolved; the index may forget it. ({!Flow_index}
      keeps nothing per task: its bucket readers skip resolved
      tasks.) *)

  val usage : t -> int -> float
  (** Sum of the rates of live flows crossing the entity. *)

  val set_rate : t -> Live.flow -> float -> unit
  (** The one way the engine changes a flow's rate. *)

  val mark_dirty : t -> int -> unit
  (** The entity's availability moved (fault, foreground redraw). *)

  val clamp_scan : t -> int list
  (** Starts a clamp pass: the entities it must check, ascending.
      Every entity whose usage may exceed its availability is listed,
      and {!usage} is exact for each of them until the pass ends. *)

  val victims : t -> int -> Live.flow list
  (** Flows of unresolved tasks crossing the entity, in ascending
      (task seq, slot) order. *)

  val load : t -> (int -> float) option
  (** Phase-I congestion load per entity, equal bit for bit to the
      eager scan {!S3_core.Congestion.of_view}; [None] makes Phase I
      run that scan itself. *)

  val crash_candidates : t -> int list -> Live.task list
  (** Unresolved tasks that may have lost their destination or a live
      source to the given dead servers (a superset is allowed), in
      descending seq order. *)
end

include S
