(** Allocation validation — the contract checker for {!Algorithm}
    implementations.

    The execution engine trusts algorithms to respect capacity; this
    module makes the contract checkable, returning typed violations
    instead of a boolean so algorithm authors can see exactly which
    entity overflowed or which flow was starved below a required
    floor. Nothing in the library calls it (the engine's own safety
    net is its capacity clamp); the test-suite uses it to check
    algorithms from outside. *)

type violation =
  | Over_capacity of {
      entity : int;
      allocated : float;
      available : float;
    }  (** the flows crossing [entity] sum above what it offers *)
  | Below_floor of {
      flow_id : int;
      rate : float;
      floor : float;
    }  (** a flow got less than the required minimum *)
  | Negative_rate of {
      flow_id : int;
      rate : float;
    }
  | Unknown_flow of { flow_id : int }
      (** a rate was returned for a flow not present in the view *)

val pp_violation : Format.formatter -> violation -> unit

val check :
  ?tol:float ->
  ?floor:(Problem.flow -> float) ->
  Problem.view -> Allocation.rates -> violation list
(** All violations of the given assignment against the view, with
    numerical tolerance [tol] (default [1e-6]). [floor] (default: zero
    everywhere) sets the per-flow minimum — pass the LRB to check the
    deadline-guarantee invariant of admitted tasks. *)

val ok : ?tol:float -> ?floor:(Problem.flow -> float) -> Problem.view -> Allocation.rates -> bool
(** [check] is empty. *)
