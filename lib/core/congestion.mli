(** Congestion factors and source selection (LPST Phase I).

    The congestion factor of a capacity entity is the sum of the least
    required bandwidths of the active flows crossing it — the load the
    entity is already committed to. Phase I sends a new task's
    subtasks to the candidate sources whose paths have the smallest
    worst-entity congestion, updating factors greedily as each source
    is chosen (paper, Algorithm 1 lines 2–8). *)

type t
(** Mutable map from entity id to congestion factor (megabits/s). *)

val of_view : Problem.view -> t
(** Factors implied by the current active flows (each contributes its
    LRB along its route). Flows past their deadline contribute
    nothing — the engine is about to expire them. *)

val factor : t -> int -> float
(** Congestion factor of one entity; 0 when untouched. *)

val add_path : t -> int array -> float -> unit
(** Commit [lrb] on every entity of a path. *)

val path_max : t -> int array -> float
(** Worst congestion factor along a path; 0 for the empty path. *)

val select_least_congested : Problem.view -> Problem.Task.t -> int array
(** Phase I: pick the task's [k] sources greedily by least congested
    path, breaking ties toward lower server ids for determinism. *)

val select_random : S3_util.Prng.t -> Problem.Task.t -> int array
(** Uniform k-subset of the candidates — the FIFO/EDF-family policy. *)
