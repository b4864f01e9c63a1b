(** Linear-programming front end.

    The problems produced by the scheduler are small packing LPs:
    maximize total allocated bandwidth subject to per-server and
    per-switch capacity constraints and per-task lower bounds (least
    required bandwidth). This module is the stable interface; the exact
    solver lives in {!Simplex} and the approximate one in {!Packing}. *)

type constr = {
  coeffs : (int * float) list;  (** sparse row: (variable index, coefficient) *)
  bound : float;  (** right-hand side of [row . x <= bound] *)
}

type problem = {
  nvars : int;
  objective : float array;  (** maximize [objective . x]; length [nvars] *)
  constraints : constr list;
  lower : float array;  (** per-variable lower bounds (>= 0); length [nvars] *)
}

type solution = {
  values : float array;
  objective_value : float;
}

type error =
  | Infeasible
  | Unbounded

val pp_error : Format.formatter -> error -> unit

type backend =
  | Exact  (** two-phase primal simplex *)
  | Approx of float  (** multiplicative-weights packing solver with accuracy
                         parameter epsilon; falls back to [Exact] when the
                         problem is not a pure packing instance *)

type state
(** Reusable solver state: a simplex tableau workspace, a packing
    CSR/heap arena, the block decomposition's index arrays (no
    per-solve allocation of the working matrices or indexes), and a
    flat copy of the last solved problem with its solution and optimal
    basis. For the exact backend that copy gives two kinds of reuse:
    - a solve that repeats the last problem verbatim returns the
      stored solution without solving;
    - when the constraint structure is unchanged or only grew (old
      rows a coefficient-wise prefix of the new ones, variables
      appended), the previous basis warm-starts phase 2.

    Nothing finer is kept: there is no per-block solution cache. The
    approximate backend reuses the packing arena across solves. Any
    mismatch falls back to a cold solve, so state affects speed, never
    results. Reuse one state per logical problem stream; do not share
    it across concurrent solves — give each domain its own. *)

val create_state : unit -> state

val make :
  nvars:int -> objective:float array -> ?lower:float array ->
  constr list -> problem
(** [make ~nvars ~objective constrs] builds a problem; [lower] defaults
    to all zeros. Raises [Invalid_argument] on dimension mismatches,
    out-of-range variable indices, or negative lower bounds. *)

val solve : ?backend:backend -> ?state:state -> problem -> (solution, error) result
(** Solve the problem. The returned [values] satisfy every constraint
    up to a small numerical tolerance and respect the lower bounds.

    Without [state] the exact backend runs one cold simplex over the
    whole problem. With [state] exact solves are decomposed: the LP is
    split along the connected components of its row/column incidence
    graph and each block is solved separately, through the state's
    workspace, identical-problem hit and warm start (see {!state}).
    This is bit-exact with respect to solving the whole problem with
    the same warm start: cross-block tableau coefficients are exactly
    zero, pivot updates skip zero multipliers, and the entering rule
    only interleaves the per-block pivot sequences. The warm start is
    replayed block by block; if any block cannot install it, every
    block is re-solved cold, just as a whole-problem solve falls back
    as a whole. *)

val feasible : ?tol:float -> problem -> float array -> bool
(** [feasible p x] checks [x] against all constraints and lower bounds
    of [p] with tolerance [tol] (default [1e-6]). *)

val objective_of : problem -> float array -> float
(** Evaluate the objective at a point. *)
