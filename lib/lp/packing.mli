(** Approximate solver for pure packing LPs.

    Solves [maximize c . x  subject to  A x <= b, x >= 0] with all of
    [A], [b], [c] non-negative and finite, using the Garg–Könemann
    multiplicative-weights scheme (the fractional-packing approach the
    paper cites for its complexity analysis of the LPST
    bandwidth-assignment block). The returned point is always feasible,
    and its objective is within a [(1 - eps)]-ish factor of optimal for
    moderate [eps].

    The production path is sparse: column/row adjacency is compiled
    once into CSR-style flat arrays, and the per-round best
    objective-per-length column comes from a lazy binary heap whose
    stale entries (lengths only grow, so ratios only fall and every
    recorded key is an upper bound) are repaired on pop. Each round
    therefore costs O(nnz of the touched column + log n) instead of the
    dense O(n·m) scan, while producing the {e same float trajectory} as
    the original dense implementation — column sums are accumulated in
    ascending row order exactly as the dense fold does, so the two
    agree bit-for-bit (the test suite pins this against the dense
    oracle it keeps). *)

type workspace
(** Reusable solver scratch: the CSR arena (column pointers, row
    indices, coefficients), the constraint-length vector and the
    selection heap, all grow-only and sized by the largest problem
    solved through it so far. One workspace per logical solver stream;
    never share one across concurrent solves (give each domain its
    own). A workspace only affects allocation, never results. *)

val create_workspace : unit -> workspace

val maximize :
  eps:float ->
  obj:float array ->
  rows:float array array ->
  rhs:float array ->
  (float array, [ `Unbounded | `Not_packing ]) result
(** [maximize ~eps ~obj ~rows ~rhs] returns a feasible point, or
    [`Unbounded] when some variable with positive objective appears in
    no constraint, or [`Not_packing] when any coefficient, objective
    entry or bound is negative, NaN or infinite (callers should then
    fall back to {!Simplex.maximize}). A packing LP with non-negative
    data is always feasible at the origin, so there is no [`Infeasible]
    case. Rows with a zero right-hand side pin their variables to zero.
    Requires [0 < eps < 1]. *)

val maximize_sparse :
  ?ws:workspace ->
  eps:float ->
  obj:float array ->
  rows:(int * float) list array ->
  rhs:float array ->
  unit ->
  (float array, [ `Unbounded | `Not_packing ]) result
(** Sparse-row entry point: each constraint is a [(column, coefficient)]
    list, as in {!Simplex.maximize_sparse}. Same contract as
    {!maximize}. Rows should list distinct columns in ascending order —
    duplicates are summed term-by-term during dot products and an
    unsorted row changes float-accumulation order (still feasible, but
    no longer bit-identical to the dense implementation). Raises
    [Invalid_argument] on out-of-range column indices, a [rhs] length
    mismatch, or [eps] outside (0,1). *)
