(* Garg–Könemann multiplicative-weights solver for packing LPs.

   The invariant driving the method: each constraint i carries a length
   l_i, initialized to delta / b_i. Each round picks the column with
   the best objective-per-length ratio, pushes the largest step that
   saturates some constraint, and inflates the lengths of the touched
   constraints geometrically. When the total weighted length D = sum
   l_i b_i reaches 1, the accumulated (infeasible) x overshoots by at
   most log_{1+eps}((1+eps)/delta), so scaling by that factor restores
   feasibility while keeping a (1-eps)-fraction of the optimum. We
   finish with an exact feasibility rescale to absorb rounding.

   Column adjacency is compiled once into CSR flat arrays
   (colptr/colrow/colval), and the argmax column comes from a binary
   max-heap keyed on objective-per-length. Lengths only grow (each
   update multiplies by a factor >= 1 and float rounding is monotone),
   so ratios only fall and any recorded heap key is an upper bound on
   its column's current ratio. Popping therefore repairs staleness
   lazily: recompute the top's exact ratio from the live lengths; if it
   dropped below its key, write the fresh key and sift down; a top
   whose recomputed ratio equals its key dominates every other upper
   bound and is the exact argmax, with ties resolved to the lowest
   column index exactly like a dense ascending scan.

   The trajectory is bit-exact with the original dense implementation
   (every round scanning all n columns, each scan folding over all live
   rows; kept as the oracle in test/packing_oracle.ml) because every
   float sum is
   accumulated in the same order the dense fold used: column lengths
   over live rows ascending (zero coefficients contribute +0. to a
   non-negative accumulator, which is an exact no-op), the total weight
   over live rows ascending, and the final feasibility repair over each
   row's columns ascending. The equivalence suite in
   test/test_packing.ml pins this. *)

(* ------------------------------------------------------------------ *)
(* Shared validation: packing data must be non-negative and finite.
   NaN slips through a plain [v >= 0.] test only on the negative side
   (nan >= 0. is false) but infinity passes it, and either poisons the
   length updates — reject both explicitly. *)

let finite_nonneg v = Float.is_finite v && v >= 0.

(* Unboxed float accumulator for the hot loops: a mutable float field
   in a float-only record is stored flat, so updating it does not
   allocate — unlike [float ref], whose every [:=] boxes the new value
   on the non-flambda compiler. *)
type fcell = { mutable f : float }

(* ------------------------------------------------------------------ *)
(* Workspace: grow-only flat arenas for the CSR adjacency, the
   constraint lengths and the selection heap. Buffers may be physically
   longer than the current problem needs; every loop below is bounded
   by the logical sizes, so the slack is harmless. *)

type workspace = {
  mutable len : float array;  (* m: constraint lengths *)
  mutable frozen : bool array;  (* n: pinned to zero by a dead row *)
  mutable colptr : int array;  (* n+1: CSR column segment bounds *)
  mutable colrow : int array;  (* nnz: row index per entry *)
  mutable colval : float array;  (* nnz: coefficient per entry *)
  mutable colsig : float array;  (* n: per-column saturating step *)
  mutable colmul : float array;  (* nnz: per-entry length multiplier *)
  mutable hkey : float array;  (* heap: ratio upper bounds *)
  mutable hcol : int array;  (* heap: column per entry *)
}

let create_workspace () =
  { len = [||]; frozen = [||]; colptr = [||]; colrow = [||]; colval = [||];
    colsig = [||]; colmul = [||]; hkey = [||]; hcol = [||]
  }

let grow_capacity cur need =
  let rec go c = if c >= need then c else go (2 * c) in
  go (max 16 cur)

let ensure_float a need =
  if Array.length a >= need then a else Array.make (grow_capacity (Array.length a) need) 0.

let ensure_int a need =
  if Array.length a >= need then a else Array.make (grow_capacity (Array.length a) need) 0

let ensure_bool a need =
  if Array.length a >= need then a
  else Array.make (grow_capacity (Array.length a) need) false

(* Heap priority: strictly greater ratio wins; on equal ratios the
   lower column index wins, mirroring the dense scan that only replaces
   the incumbent on a strictly greater ratio. Written with < and >
   only, so NaN-free keys (validated on entry) order totally. *)
let higher k c k' c' = k > k' || ((not (k < k')) && c < c')

let maximize_sparse ?ws ~eps ~obj ~(rows : (int * float) list array) ~rhs () =
  if eps <= 0. || eps >= 1. then invalid_arg "Packing.maximize_sparse: eps out of (0,1)";
  let n = Array.length obj in
  let m = Array.length rows in
  if Array.length rhs <> m then invalid_arg "Packing.maximize_sparse: rhs length";
  Array.iter
    (List.iter (fun (j, _) ->
         if j < 0 || j >= n then invalid_arg "Packing.maximize_sparse: column index"))
    rows;
  let data_ok =
    Array.for_all finite_nonneg obj
    && Array.for_all finite_nonneg rhs
    && Array.for_all (List.for_all (fun (_, a) -> finite_nonneg a)) rows
  in
  if not data_ok then Error `Not_packing
  else begin
    let ws = match ws with Some w -> w | None -> create_workspace () in
    ws.frozen <- ensure_bool ws.frozen n;
    let frozen = ws.frozen in
    Array.fill frozen 0 n false;
    (* Dead rows (zero capacity) pin their variables to zero; live rows
       define the CSR adjacency. Entries with a zero coefficient are
       dropped: the dense folds they correspond to add an exact +0. *)
    let nnz = ref 0 in
    for i = 0 to m - 1 do
      if rhs.(i) <= 0. then
        List.iter (fun (j, a) -> if a > 0. then frozen.(j) <- true) rows.(i)
      else List.iter (fun (_, a) -> if a > 0. then incr nnz) rows.(i)
    done;
    let nnz = !nnz in
    ws.colptr <- ensure_int ws.colptr (n + 1);
    ws.colrow <- ensure_int ws.colrow nnz;
    ws.colval <- ensure_float ws.colval nnz;
    let colptr = ws.colptr and colrow = ws.colrow and colval = ws.colval in
    Array.fill colptr 0 (n + 1) 0;
    for i = 0 to m - 1 do
      if rhs.(i) > 0. then
        List.iter (fun (j, a) -> if a > 0. then colptr.(j) <- colptr.(j) + 1) rows.(i)
    done;
    (* Exclusive prefix sums: colptr.(j) becomes the fill cursor of
       column j, and after the fill pass the segment start of j+1. *)
    let acc = ref 0 in
    for j = 0 to n do
      let c = colptr.(j) in
      colptr.(j) <- !acc;
      acc := !acc + c
    done;
    (* Fill in ascending row order so every column segment lists its
       rows ascending — the dense fold order. *)
    for i = 0 to m - 1 do
      if rhs.(i) > 0. then
        List.iter
          (fun (j, a) ->
            if a > 0. then begin
              let at = colptr.(j) in
              colrow.(at) <- i;
              colval.(at) <- a;
              colptr.(j) <- at + 1
            end)
          rows.(i)
    done;
    (* Cursors now sit at segment ends; shift back to recover starts. *)
    for j = n downto 1 do
      colptr.(j) <- colptr.(j - 1)
    done;
    colptr.(0) <- 0;
    (* A live variable with positive objective but no live constraint
       entry makes the LP unbounded. *)
    let unbounded = ref false in
    for j = 0 to n - 1 do
      if (not frozen.(j)) && obj.(j) > 0. && colptr.(j + 1) = colptr.(j) then
        unbounded := true
    done;
    if !unbounded then Error `Unbounded
    else begin
      let x = Array.make n 0. in
      let live = ref 0 in
      for i = 0 to m - 1 do
        if rhs.(i) > 0. then incr live
      done;
      (if !live > 0 then begin
         let mf = float_of_int !live in
         let delta = (1. +. eps) *. (((1. +. eps) *. mf) ** (-1. /. eps)) in
         ws.len <- ensure_float ws.len m;
         let len = ws.len in
         Array.fill len 0 m 0.;
         for i = 0 to m - 1 do
           if rhs.(i) > 0. then len.(i) <- delta /. rhs.(i)
         done;
         (* The saturating step sigma and the length multipliers are
            round-invariant — sigma_j = min_i rhs_i / a_ij is the min
            element of fixed quotients (order-independent), and each
            touched row's factor 1 + eps·sigma·a/rhs is the very
            expression the oracle re-evaluates every round over the
            same constants — so hoist both out of the loop. The
            evaluation order inside each expression matches the oracle
            exactly, keeping the trajectory bit-identical. *)
         ws.colsig <- ensure_float ws.colsig n;
         ws.colmul <- ensure_float ws.colmul (max nnz 1);
         let colsig = ws.colsig and colmul = ws.colmul in
         for j = 0 to n - 1 do
           let s = ref infinity in
           for k = colptr.(j) to colptr.(j + 1) - 1 do
             let q = rhs.(colrow.(k)) /. colval.(k) in
             if q < !s then s := q
           done;
           colsig.(j) <- !s;
           let sg = !s in
           for k = colptr.(j) to colptr.(j + 1) - 1 do
             colmul.(k) <- 1. +. (eps *. sg *. colval.(k) /. rhs.(colrow.(k)))
           done
         done;
         (* Column length: sparse dot over the column's live rows in
            ascending order; identical float sum to the oracle's dense
            fold (dropped entries contributed an exact +0.). Used for
            heap seeding; the round loop inlines the same dot. *)
         let cell = { f = 0. } in
         let column_length j =
           cell.f <- 0.;
           for k = colptr.(j) to colptr.(j + 1) - 1 do
             cell.f <-
               cell.f
               +. (Array.unsafe_get colval k *. Array.unsafe_get len (Array.unsafe_get colrow k))
           done;
           cell.f
         [@@lint.allow "unsafe-indexing"
             "bounds: k ranges over column j's CSR segment (colptr is a prefix \
              sum over nnz entries) and colrow holds row indices < m written by \
              the fill pass; len holds at least m slots"]
         in
         (* Selection heap over eligible columns (unfrozen, positive
            objective, positive initial length). Lengths never shrink,
            so a column's ratio never rises and heap keys are upper
            bounds; [select] repairs stale tops in place. *)
         ws.hkey <- ensure_float ws.hkey n;
         ws.hcol <- ensure_int ws.hcol n;
         let hkey = ws.hkey and hcol = ws.hcol in
         let hsize = ref 0 in
         let sift_up from =
           let i = ref from in
           let continue = ref true in
           while !continue && !i > 0 do
             let p = (!i - 1) / 2 in
             if higher (Array.unsafe_get hkey !i) (Array.unsafe_get hcol !i)
                  (Array.unsafe_get hkey p) (Array.unsafe_get hcol p)
             then begin
               let tk = hkey.(!i) and tc = hcol.(!i) in
               hkey.(!i) <- hkey.(p);
               hcol.(!i) <- hcol.(p);
               hkey.(p) <- tk;
               hcol.(p) <- tc;
               i := p
             end
             else continue := false
           done
         [@@lint.allow "unsafe-indexing"
             "bounds: sift starts below hsize <= n, parents (i-1)/2 stay below \
              it, and hkey/hcol are ensured to hold n slots"]
         in
         for j = 0 to n - 1 do
           if (not frozen.(j)) && obj.(j) > 0. then begin
             let l = column_length j in
             if l > 0. then begin
               hkey.(!hsize) <- obj.(j) /. l;
               hcol.(!hsize) <- j;
               incr hsize;
               sift_up (!hsize - 1)
             end
           end
         done;
         (* The round loop, fully inlined (no closure calls or float
            boxing on the hot path). Each round:
            - recompute the total weight fresh in ascending live-row
              order, exactly the oracle's fold — an incremental
              accumulator would drift in float and change the round
              count; O(m) is far below the dense O(n·m) selection this
              file replaces;
            - select the exact argmax by lazy repair: a top whose
              recomputed ratio still equals its key beats every other
              entry's upper bound; equal keys pop lowest-column-first,
              so ties match the dense ascending scan. A stale top is
              sunk hole-style (children shift up, one final write).
              Each column is repaired at most once per selection
              (lengths are fixed during it), so selection terminates;
            - apply the precomputed step and length multipliers of the
              selected column. Touched columns' heap keys become
              stale-high and are repaired lazily on their next pop. *)
         let max_rounds = 10_000 * (n + m) in
         let rounds = ref 0 in
         let running = ref true in
         (while !running && !rounds < max_rounds do
            cell.f <- 0.;
            for i = 0 to m - 1 do
              if Array.unsafe_get rhs i > 0. then
                cell.f <- cell.f +. (Array.unsafe_get len i *. Array.unsafe_get rhs i)
            done;
            if cell.f >= 1. then running := false
            else begin
              incr rounds;
              let selected = ref (-2) in
              while !selected = -2 do
                if !hsize = 0 then selected := -1
                else begin
                  let c = Array.unsafe_get hcol 0 in
                  cell.f <- 0.;
                  for k = Array.unsafe_get colptr c to Array.unsafe_get colptr (c + 1) - 1 do
                    cell.f <-
                      cell.f
                      +. (Array.unsafe_get colval k
                          *. Array.unsafe_get len (Array.unsafe_get colrow k))
                  done;
                  let r = Array.unsafe_get obj c /. cell.f in
                  if r < Array.unsafe_get hkey 0 then begin
                    (* Stale: sink the repaired (r, c) entry. *)
                    let sz = !hsize in
                    let i = ref 0 in
                    let moving = ref true in
                    while !moving do
                      let l = (2 * !i) + 1 in
                      if l >= sz then moving := false
                      else begin
                        let rt = l + 1 in
                        (* [higher], manually inlined: an out-of-line
                           call here boxes its float arguments on every
                           heap level (non-flambda), dominating the
                           round cost. *)
                        let b =
                          if rt < sz then begin
                            let kl = Array.unsafe_get hkey l
                            and kr = Array.unsafe_get hkey rt in
                            if
                              kr > kl
                              || ((not (kr < kl))
                                 && Array.unsafe_get hcol rt < Array.unsafe_get hcol l)
                            then rt
                            else l
                          end
                          else l
                        in
                        let kb = Array.unsafe_get hkey b in
                        if kb > r || ((not (kb < r)) && Array.unsafe_get hcol b < c)
                        then begin
                          Array.unsafe_set hkey !i kb;
                          Array.unsafe_set hcol !i (Array.unsafe_get hcol b);
                          i := b
                        end
                        else moving := false
                      end
                    done;
                    Array.unsafe_set hkey !i r;
                    Array.unsafe_set hcol !i c
                  end
                  else selected := (if r > 0. then c else -1)
                end
              done;
              let c = !selected in
              if c < 0 then running := false
              else begin
                x.(c) <- x.(c) +. Array.unsafe_get colsig c;
                for k = Array.unsafe_get colptr c to Array.unsafe_get colptr (c + 1) - 1 do
                  let i = Array.unsafe_get colrow k in
                  Array.unsafe_set len i (Array.unsafe_get len i *. Array.unsafe_get colmul k)
                done
              end
            end
          done)
         [@lint.allow unsafe_indexing
             "bounds: row indices i < m (rhs length, checked on entry; len \
              ensured to m slots); k ranges over a column's CSR segment \
              (colptr is a prefix sum over nnz entries, colrow/colval/colmul \
              hold nnz slots); heap indices are compared against hsize <= n \
              before access and hkey/hcol hold n slots; c is a heap column \
              < n"];
         let scale = log ((1. +. eps) /. delta) /. log (1. +. eps) in
         if scale > 0. then Array.iteri (fun j v -> x.(j) <- v /. scale) x
       end);
      (* Exact feasibility repair: shrink uniformly to meet the tightest
         constraint. Row entries are consumed in the caller's (ascending)
         order; zero coefficients the oracle folded over contributed an
         exact +0., so the sums agree. *)
      let worst = ref 1. in
      for i = 0 to m - 1 do
        if rhs.(i) > 0. then begin
          let lhs =
            List.fold_left (fun acc (j, a) -> acc +. (a *. x.(j))) 0. rows.(i)
          in
          if lhs > rhs.(i) then worst := max !worst (lhs /. rhs.(i))
        end
      done;
      if !worst > 1. then Array.iteri (fun j v -> x.(j) <- v /. !worst) x;
      Ok x
    end
  end

(* Dense entry point: validate the rectangular shape, then strip exact
   zeros into ascending sparse rows and run the CSR path. *)
let maximize ~eps ~obj ~rows ~rhs =
  if eps <= 0. || eps >= 1. then invalid_arg "Packing.maximize: eps out of (0,1)";
  let n = Array.length obj in
  if Array.length rhs <> Array.length rows then
    invalid_arg "Packing.maximize: rhs length";
  Array.iter
    (fun r -> if Array.length r <> n then invalid_arg "Packing.maximize: row length")
    rows;
  let sparse =
    Array.map
      (fun r ->
        let acc = ref [] in
        for j = n - 1 downto 0 do
          (* lint: allow float-eq — structural sparsity test: only exact
             zeros may be dropped from the row; an epsilon here would
             silently delete small constraint coefficients *)
          if r.(j) <> 0. then acc := (j, r.(j)) :: !acc
        done;
        !acc)
      rows
  in
  maximize_sparse ~eps ~obj ~rows:sparse ~rhs ()
