type constr = {
  coeffs : (int * float) list;
  bound : float;
}

type problem = {
  nvars : int;
  objective : float array;
  constraints : constr list;
  lower : float array;
}

type solution = {
  values : float array;
  objective_value : float;
}

type error =
  | Infeasible
  | Unbounded

let pp_error ppf = function
  | Infeasible -> Format.pp_print_string ppf "infeasible"
  | Unbounded -> Format.pp_print_string ppf "unbounded"

type backend =
  | Exact
  | Approx of float

(* The last successfully solved problem, flattened into buffers that
   are grown to the largest problem seen and reused from solve to
   solve, so holding it costs copies rather than allocation (the
   caller's row lists are never retained). It enables two reuse levels
   on the exact path:
   - identical problem (same rows, bounds, objective, lower bounds):
     the stored solution is returned without touching the solver;
   - same or grown structure (the old rows are a coefficient-wise
     prefix of the new ones and variables were only appended): the old
     optimal basis warm-starts phase 2, skipping phase 1.
   Both checks are O(nonzeros), orders of magnitude below a solve, and
   any mismatch falls back to a cold solve, so state can never change a
   result — only how fast it is computed. *)
type snapshot = {
  mutable held : bool;
  mutable s_nvars : int;
  mutable s_nrows : int;
  mutable s_row_start : int array;  (* row i is entries [s_row_start.(i), s_row_start.(i + 1)) *)
  mutable s_col : int array;
  mutable s_coef : float array;
  mutable s_bound : float array;
  mutable s_obj : float array;
  mutable s_lower : float array;
  mutable s_values : float array;
  mutable s_objective_value : float;
  mutable s_basis : int array option;
}

(* Scratch of the block decomposition, indexed by variable [j] in
   [0, n) and by row [i] at [n + i]; grown like the snapshot. *)
type blocks = {
  mutable uf : int array;  (* union-find parent *)
  mutable blk : int array;  (* block id; -1 for a variable in no row *)
  mutable pos : int array;  (* rank among its block's variables, or among its rows *)
  mutable members : int array;  (* per block: its variables, then its rows, ascending *)
  mutable start : int array;  (* block b's members begin at start.(b) *)
  mutable nv : int array;  (* variables per block *)
  mutable nr : int array;  (* rows per block *)
}

type state = {
  ws : Simplex.workspace;
  pws : Packing.workspace;  (* CSR/heap arena for the Approx backend *)
  snap : snapshot;
  dec : blocks;
}

let create_state () =
  { ws = Simplex.create_workspace ();
    pws = Packing.create_workspace ();
    snap =
      { held = false; s_nvars = 0; s_nrows = 0; s_row_start = [||];
        s_col = [||]; s_coef = [||]; s_bound = [||]; s_obj = [||]; s_lower = [||];
        s_values = [||]; s_objective_value = 0.; s_basis = None
      };
    dec =
      { uf = [||]; blk = [||]; pos = [||]; members = [||]; start = [||]; nv = [||]; nr = [||] }
  }

(* A buffer of at least [need] slots: [a] itself when it is long enough. *)
let ensure a need fill = if Array.length a >= need then a else Array.make (2 * need) fill

let make ~nvars ~objective ?lower constraints =
  if nvars < 0 then invalid_arg "Lp.make: negative nvars";
  if Array.length objective <> nvars then invalid_arg "Lp.make: objective length";
  let lower =
    match lower with
    | None -> Array.make nvars 0.
    | Some l ->
      if Array.length l <> nvars then invalid_arg "Lp.make: lower length";
      Array.iter (fun v -> if v < 0. then invalid_arg "Lp.make: negative lower bound") l;
      l
  in
  List.iter
    (fun { coeffs; _ } ->
      List.iter
        (fun (j, _) ->
          if j < 0 || j >= nvars then invalid_arg "Lp.make: variable index out of range")
        coeffs)
    constraints;
  { nvars; objective; constraints; lower }

let objective_of p x =
  let acc = ref 0. in
  for j = 0 to p.nvars - 1 do
    acc := !acc +. (p.objective.(j) *. x.(j))
  done;
  !acc

let feasible ?(tol = 1e-6) p x =
  Array.length x = p.nvars
  && (let ok = ref true in
      for j = 0 to p.nvars - 1 do
        if x.(j) < p.lower.(j) -. tol then ok := false
      done;
      List.iter
        (fun { coeffs; bound } ->
          let lhs = List.fold_left (fun acc (j, a) -> acc +. (a *. x.(j))) 0. coeffs in
          if lhs > bound +. tol then ok := false)
        p.constraints;
      !ok)

(* Canonical sparse row for the packing backend: coefficients sorted by
   column, duplicates summed in their original list order (a stable
   sort keeps equal keys in sequence), matching the sums a dense
   scatter of the same list would produce slot by slot. *)
let canonical_row coeffs =
  let sorted = List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) coeffs in
  let rec merge = function
    | [] -> []
    | [ entry ] -> [ entry ]
    | (j1, a1) :: (j2, a2) :: rest when j1 = j2 -> merge ((j1, a1 +. a2) :: rest)
    | entry :: rest -> entry :: merge rest
  in
  merge sorted

let finish p y =
  let values = Array.init p.nvars (fun j -> p.lower.(j) +. y.(j)) in
  { values; objective_value = objective_of p values }

(* A row's bound after the lower-bound substitution x = lower + y:
   b - row . lower, accumulated in coefficient order. The exact paths
   must all fold in this order to return the same float bits. *)
let shifted_bound p { coeffs; bound } =
  bound -. List.fold_left (fun acc (j, a) -> acc +. (a *. p.lower.(j))) 0. coeffs

let shifted_rhs p cons = Array.map (shifted_bound p) cons

(* Snapshot comparisons use [Float.equal], a total equality (NaN = NaN),
   so a pathological NaN input yields a stable hit instead of an
   unconditional miss; for the finite values the solver produces it
   coincides with (=). Every loop stops at the first difference. *)
let floats_equal a b len =
  let i = ref 0 in
  while !i < len && Float.equal a.(!i) b.(!i) do
    incr i
  done;
  !i = len

(* Rows [0, upto) of [cons] equal the snapshot's, coefficient for
   coefficient in list order, and bound for bound when [bounds]. *)
let rows_match s cons ~upto ~bounds =
  let rec same k stop = function
    | [] -> k = stop
    | (j, a) :: rest ->
      k < stop && s.s_col.(k) = j && Float.equal s.s_coef.(k) a && same (k + 1) stop rest
  in
  let i = ref 0 in
  while
    !i < upto
    && ((not bounds) || Float.equal s.s_bound.(!i) cons.(!i).bound)
    && same s.s_row_start.(!i) s.s_row_start.(!i + 1) cons.(!i).coeffs
  do
    incr i
  done;
  !i = upto

(* Identical-problem hit: the whole problem is unchanged. *)
let snapshot_matches s p cons =
  s.held
  && s.s_nvars = p.nvars
  && s.s_nrows = Array.length cons
  && floats_equal s.s_lower p.lower p.nvars
  && floats_equal s.s_obj p.objective p.nvars
  && rows_match s cons ~upto:s.s_nrows ~bounds:true

let record s p cons sol basis =
  let n = p.nvars and m = Array.length cons in
  let nnz = Array.fold_left (fun acc c -> acc + List.length c.coeffs) 0 cons in
  s.s_row_start <- ensure s.s_row_start (m + 1) 0;
  s.s_col <- ensure s.s_col nnz 0;
  s.s_coef <- ensure s.s_coef nnz 0.;
  s.s_bound <- ensure s.s_bound m 0.;
  s.s_obj <- ensure s.s_obj n 0.;
  s.s_lower <- ensure s.s_lower n 0.;
  s.s_values <- ensure s.s_values n 0.;
  let k = ref 0 in
  Array.iteri
    (fun i c ->
      s.s_row_start.(i) <- !k;
      s.s_bound.(i) <- c.bound;
      List.iter
        (fun (j, a) ->
          s.s_col.(!k) <- j;
          s.s_coef.(!k) <- a;
          incr k)
        c.coeffs)
    cons;
  s.s_row_start.(m) <- !k;
  Array.blit p.objective 0 s.s_obj 0 n;
  Array.blit p.lower 0 s.s_lower 0 n;
  Array.blit sol.values 0 s.s_values 0 n;
  s.s_objective_value <- sol.objective_value;
  s.s_basis <- basis;
  s.held <- true;
  s.s_nvars <- n;
  s.s_nrows <- m

let forget s =
  s.held <- false;
  s.s_basis <- None

(* Warm-basis hit: the old constraint rows are a coefficient-wise
   prefix of the new ones and variables were only appended, so the old
   basis columns keep their meaning once slack indices are remapped to
   the new variable count (structural columns keep their index, the
   slack of old row i stays the slack of row i, new rows start on their
   own slack). Bounds, lower bounds and objective are free to change —
   the installed basis is feasibility-checked by the solver. *)
let warm_hint s p cons =
  match s.s_basis with
  | Some basis
    when s.held
         && s.s_nvars <= p.nvars
         && s.s_nrows <= Array.length cons
         && rows_match s cons ~upto:s.s_nrows ~bounds:false ->
    let n = p.nvars and pn = s.s_nvars and pm = s.s_nrows in
    Some
      (Array.init (Array.length cons) (fun i ->
           if i >= pm then n + i
           else begin
             let c = basis.(i) in
             if c < pn then c else n + (c - pn)
           end))
  | _ -> None

let solve_plain p cons =
  let rows = Array.map (fun c -> c.coeffs) cons in
  match Simplex.maximize_sparse ~obj:p.objective ~rows ~rhs:(shifted_rhs p cons) () with
  | Ok (y, _) -> Ok (finish p y)
  | Error `Infeasible -> Error Infeasible
  | Error `Unbounded -> Error Unbounded

(* ---- block decomposition ----

   A packing LP decomposes along the connected components of its
   row/column incidence graph: a pivot in one component never touches
   another (all cross-component tableau coefficients are exactly 0.0
   and the pivot row-update skips zero multipliers), and Dantzig's rule
   merely interleaves the per-block pivot sequences, so solving the
   blocks separately is bit-identical to the global solve. A warm start
   of the global solve is replicated exactly: the previous global basis
   is replayed block by block, and if any block's replay bails every
   block is re-solved cold, mirroring the all-or-nothing fallback of a
   whole-problem warm solve (test/test_incremental.ml pins the stream
   against such a reference). *)

(* Union-find with path compression; smaller root wins, so a
   component's root is its smallest member. *)
let rec uf_root uf x = if uf.(x) = x then x else uf_root uf uf.(x)

let rec uf_compress uf x r =
  if uf.(x) <> r then begin
    let nx = uf.(x) in
    uf.(x) <- r;
    uf_compress uf nx r
  end

let uf_find uf x =
  let r = uf_root uf x in
  uf_compress uf x r;
  r

let uf_union uf a b =
  let ra = uf_find uf a and rb = uf_find uf b in
  if ra < rb then uf.(rb) <- ra else if rb < ra then uf.(ra) <- rb

exception Bail_to_cold

let solve_blocks st p cons =
  let n = p.nvars and m = Array.length cons in
  let size = n + m in
  let d = st.dec in
  d.uf <- ensure d.uf size 0;
  d.blk <- ensure d.blk size 0;
  d.pos <- ensure d.pos size 0;
  d.members <- ensure d.members size 0;
  d.start <- ensure d.start (size + 1) 0;
  d.nv <- ensure d.nv size 0;
  d.nr <- ensure d.nr size 0;
  let { uf; blk; pos; members; start; nv; nr } = d in
  (* Components over variables [0, n) and rows [n, n + m); until the
     numbering below, blk.(j) = 0 marks a variable that is in a row. *)
  for x = 0 to size - 1 do
    uf.(x) <- x;
    blk.(x) <- -1
  done;
  Array.iteri
    (fun i c ->
      List.iter
        (fun (j, _) ->
          blk.(j) <- 0;
          uf_union uf j (n + i))
        c.coeffs)
    cons;
  (* Number the blocks in order of first appearance; the scan meets
     each component's root, its smallest member, first. A variable in
     no row maximizes unboundedly exactly when the cold solver's
     entering rule (reduced cost > 1e-9) would select it — but the cold
     solver runs phase 1 first, so infeasibility of the constrained
     part takes precedence over that unboundedness. *)
  let nb = ref 0 and free_unbounded = ref false in
  for x = 0 to size - 1 do
    if x < n && blk.(x) < 0 then begin
      if p.objective.(x) > 1e-9 then free_unbounded := true
    end
    else begin
      let r = uf_find uf x in
      let b =
        if r = x then begin
          let b = !nb in
          incr nb;
          nv.(b) <- 0;
          nr.(b) <- 0;
          b
        end
        else blk.(r)
      in
      blk.(x) <- b;
      if x < n then begin
        pos.(x) <- nv.(b);
        nv.(b) <- nv.(b) + 1
      end
      else begin
        pos.(x) <- nr.(b);
        nr.(b) <- nr.(b) + 1
      end
    end
  done;
  let nb = !nb in
  start.(0) <- 0;
  for b = 0 to nb - 1 do
    start.(b + 1) <- start.(b) + nv.(b) + nr.(b)
  done;
  (* A member's block-local simplex column: its variables first, then
     the slacks of its rows. *)
  let local x = if x < n then pos.(x) else nv.(blk.(x)) + pos.(x) in
  for x = 0 to size - 1 do
    if blk.(x) >= 0 then members.(start.(blk.(x)) + local x) <- x
  done;
  let solve_block ~warm b =
    let s = start.(b) and nvb = nv.(b) in
    let nrb = nr.(b) in
    let row k = cons.(members.(s + nvb + k) - n) in
    let obj = Array.init nvb (fun k -> p.objective.(members.(s + k))) in
    let rows = Array.init nrb (fun k -> List.map (fun (j, a) -> (pos.(j), a)) (row k).coeffs) in
    let rhs = Array.init nrb (fun k -> shifted_bound p (row k)) in
    match warm with
    | None -> Simplex.maximize_sparse ~ws:st.ws ~obj ~rows ~rhs ()
    | Some g -> (
      let local_basis =
        Array.init nrb (fun k ->
            let c = g.(members.(s + nvb + k) - n) in
            (* a basic column escaped its block: the hint is stale in a
               way the whole-problem solve would also reject *)
            if blk.(c) <> b then raise Bail_to_cold;
            local c)
      in
      match Simplex.warm_solve st.ws ~obj ~rows ~rhs ~warm:local_basis with
      | Some r -> r
      | None -> raise Bail_to_cold)
  in
  let y = Array.make n 0. and basis = Array.make m 0 in
  let pass ~warm =
    let err = ref None and basis_ok = ref true in
    for b = 0 to nb - 1 do
      match solve_block ~warm b with
      | Error `Infeasible -> err := Some Infeasible
      | Error `Unbounded -> if Option.is_none !err then err := Some Unbounded
      | Ok (by, bbasis) -> (
        let s = start.(b) in
        Array.iteri (fun k v -> y.(members.(s + k)) <- v) by;
        match bbasis with
        | None -> basis_ok := false
        | Some bb ->
          Array.iteri (fun k c -> basis.(members.(s + nv.(b) + k) - n) <- members.(s + c)) bb)
    done;
    (!err, !basis_ok)
  in
  let warm = warm_hint st.snap p cons in
  let err, basis_ok =
    match warm with
    | None -> pass ~warm:None
    | Some _ -> ( try pass ~warm with Bail_to_cold -> pass ~warm:None)
  in
  match (err, !free_unbounded) with
  | Some e, _ ->
    forget st.snap;
    Error e
  | None, true ->
    forget st.snap;
    Error Unbounded
  | None, false ->
    let sol = finish p y in
    record st.snap p cons sol (if basis_ok then Some basis else None);
    Ok sol

let solve ?(backend = Exact) ?state p =
  let cons = Array.of_list p.constraints in
  let exact () =
    match state with
    | Some { snap; _ } when snapshot_matches snap p cons ->
      Ok { values = Array.sub snap.s_values 0 p.nvars; objective_value = snap.s_objective_value }
    | Some st -> solve_blocks st p cons
    | None -> solve_plain p cons
  in
  match backend with
  | Exact -> exact ()
  | Approx eps -> (
    (* Sparse view after the lower-bound substitution x = lower + y:
       canonical ascending rows plus the shifted bounds — no dense m x n
       matrix is ever materialized, and the per-state CSR/heap arena is
       reused across consecutive solves. *)
    let rows = Array.map (fun c -> canonical_row c.coeffs) cons in
    let rhs = shifted_rhs p cons in
    let pws = Option.map (fun st -> st.pws) state in
    match Packing.maximize_sparse ?ws:pws ~eps ~obj:p.objective ~rows ~rhs () with
    | Ok y -> Ok (finish p y)
    | Error `Unbounded -> Error Unbounded
    | Error `Not_packing -> exact ())
