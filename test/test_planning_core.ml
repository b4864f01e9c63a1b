(* Fast-planning-core equivalence suites: the solver state (memo, warm
   basis, workspace arena) and the flat route cache are pure
   accelerations — they must never change a result. These tests pit
   every accelerated path against its stateless / uncached oracle on
   randomized inputs. *)

module Lp = S3_lp.Lp
module Simplex = S3_lp.Simplex
module T = S3_net.Topology
module Prng = S3_util.Prng

let tc = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Random packing-ish LPs. Mostly positive coefficients and bounds (the
   scheduler's shape), salted with negative coefficients, negative
   bounds and missing columns so the infeasible, unbounded and
   degenerate solver paths all get exercised. *)

let random_lp g =
  let nvars = 1 + Prng.int g 12 in
  let m = 1 + Prng.int g 8 in
  let lower =
    Array.init nvars (fun _ -> if Prng.int g 3 = 0 then Prng.float g 2. else 0.)
  in
  let objective = Array.init nvars (fun _ -> Prng.float g 3.) in
  let cons =
    List.init m (fun _ ->
        let coeffs =
          List.filter_map
            (fun j ->
              match Prng.int g 3 with
              | 0 -> None
              | 1 -> Some (j, 0.5 +. Prng.float g 2.)
              | _ ->
                if Prng.int g 6 = 0 then Some (j, -0.5 -. Prng.float g 1.)
                else Some (j, 0.5 +. Prng.float g 2.))
            (List.init nvars Fun.id)
        in
        let coeffs = if coeffs = [] then [ (Prng.int g nvars, 1.) ] else coeffs in
        let bound = if Prng.int g 8 = 0 then -.Prng.float g 2. else Prng.float g 10. in
        { Lp.coeffs; bound })
  in
  (nvars, objective, lower, cons)

let solve_outcome = function
  | Ok (s : Lp.solution) -> `Ok s.Lp.objective_value
  | Error Lp.Infeasible -> `Infeasible
  | Error Lp.Unbounded -> `Unbounded

(* Same outcome constructor; on success, objectives within 1e-6. *)
let same_outcome a b =
  match (solve_outcome a, solve_outcome b) with
  | `Ok x, `Ok y -> Float.abs (x -. y) <= 1e-6
  | `Infeasible, `Infeasible | `Unbounded, `Unbounded -> true
  | _ -> false

let feasible_if_ok p = function
  | Ok (s : Lp.solution) -> Lp.feasible p s.Lp.values
  | Error _ -> true

(* The central property: a state-carrying solver run (exact-solution
   memo on a repeat, warm basis on a bound change, warm basis on a
   grown problem — all through one reused workspace) agrees with
   independent stateless solves at every step. *)
let state_matches_stateless seed =
  let g = Prng.create seed in
  let nvars, objective, lower, cons = random_lp g in
  let p = Lp.make ~nvars ~objective ~lower cons in
  let st = Lp.create_state () in
  let ok = ref true in
  let check p =
    let cold = Lp.solve p in
    let stateful = Lp.solve ~state:st p in
    if not (same_outcome cold stateful && feasible_if_ok p stateful) then ok := false
  in
  check p;
  (* Repeat: exact-memo path. *)
  check p;
  (* Perturb bounds only: identical structure, warm-basis path. *)
  let cons2 =
    List.map (fun c -> { c with Lp.bound = c.Lp.bound +. Prng.float g 2. -. 0.5 }) cons
  in
  check (Lp.make ~nvars ~objective ~lower cons2);
  (* Grow: append a variable and a constraint; old rows are a prefix,
     so the previous basis still warm-starts after slack remapping. *)
  let nvars3 = nvars + 1 in
  let objective3 = Array.append objective [| 1. +. Prng.float g 2. |] in
  let lower3 = Array.append lower [| 0. |] in
  let cons3 = cons2 @ [ { Lp.coeffs = [ (nvars, 1.) ]; bound = 1. +. Prng.float g 5. } ] in
  check (Lp.make ~nvars:nvars3 ~objective:objective3 ~lower:lower3 cons3);
  (* Shrink back: structure mismatch must silently fall back cold. *)
  check (Lp.make ~nvars ~objective ~lower cons);
  !ok

(* The dense entry point and the sparse one must agree (no lower bounds
   here: [Simplex.maximize] has no substitution step). *)
let dense_matches_sparse seed =
  let g = Prng.create seed in
  let nvars, objective, _, cons = random_lp g in
  let rows =
    Array.of_list
      (List.map
         (fun { Lp.coeffs; _ } ->
           let r = Array.make nvars 0. in
           List.iter (fun (j, a) -> r.(j) <- r.(j) +. a) coeffs;
           r)
         cons)
  in
  let rhs = Array.of_list (List.map (fun c -> c.Lp.bound) cons) in
  let dense = Simplex.maximize ~obj:objective ~rows ~rhs in
  let p = Lp.make ~nvars ~objective cons in
  let via_lp = Lp.solve p in
  match (dense, via_lp) with
  | Ok x, Ok s ->
    let obj_of v =
      let acc = ref 0. in
      Array.iteri (fun j a -> acc := !acc +. (a *. v.(j))) objective;
      !acc
    in
    Float.abs (obj_of x -. s.Lp.objective_value) <= 1e-6 && Lp.feasible p x
  | Error `Infeasible, Error Lp.Infeasible -> true
  | Error `Unbounded, Error Lp.Unbounded -> true
  | _ -> false

let qcheck =
  let open QCheck in
  let seed = int_range 0 10_000_000 in
  [ Test.make ~name:"stateful solves (memo, warm, grown, shrunk) match stateless"
      ~count:1200 seed state_matches_stateless;
    Test.make ~name:"dense simplex entry point matches the sparse path" ~count:600 seed
      dense_matches_sparse
  ]

(* ------------------------------------------------------------------ *)
(* Flat route cache vs the uncached routing oracle, on all four
   topology families, over every server pair. *)

let all_topologies () =
  [ T.two_tier ~racks:3 ~servers_per_rack:10 ~cst:500. ~cta:1500.;
    T.fat_tree ~k:4 ~cst:500. ~cta:1500.;
    T.leaf_spine ~leaves:3 ~spines:2 ~servers_per_leaf:4 ~cst:500. ~cta:1500.;
    T.bcube ~ports:3 ~levels:2 ~cst:500. ~cta:1500.
  ]

let test_route_array_matches_route () =
  List.iter
    (fun t ->
      let n = T.servers t in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let cached = Array.to_list (T.route_array t ~src ~dst) in
          let oracle = T.route t ~src ~dst in
          Alcotest.(check (list int))
            (Printf.sprintf "%s %d->%d" (T.name t) src dst)
            oracle cached;
          (* The engine finds crash victims through NIC buckets alone,
             which needs every route to cross both endpoint NICs. *)
          if src <> dst then
            Alcotest.(check bool)
              (Printf.sprintf "%s %d->%d crosses both NICs" (T.name t) src dst)
              true
              (List.mem (T.server_entity t src) cached && List.mem (T.server_entity t dst) cached)
        done
      done)
    (all_topologies ())

let test_route_array_shared () =
  let t = T.two_tier ~racks:2 ~servers_per_rack:3 ~cst:500. ~cta:1500. in
  let a = T.route_array t ~src:0 ~dst:5 in
  let b = T.route_array t ~src:0 ~dst:5 in
  Alcotest.(check bool) "memoized array is shared" true (a == b)

let test_servers_in_rack_matches_filter () =
  List.iter
    (fun t ->
      let all = List.init (T.servers t) Fun.id in
      for r = 0 to T.racks t - 1 do
        Alcotest.(check (list int))
          (Printf.sprintf "%s rack %d" (T.name t) r)
          (List.filter (fun s -> T.rack_of t s = r) all)
          (T.servers_in_rack t r)
      done)
    (all_topologies ())

let tests =
  ( "planning_core",
    [ tc "route_array equals route on all topologies" `Quick test_route_array_matches_route;
      tc "route_array memoizes one shared array" `Quick test_route_array_shared;
      tc "servers_in_rack equals rack_of filter" `Quick test_servers_in_rack_matches_filter
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
