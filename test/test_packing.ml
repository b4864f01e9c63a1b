(* Equivalence and robustness suite for the sparse packing solver.

   The production CSR/heap path in S3_lp.Packing claims to replay the
   retained dense oracle's Garg-Koenemann trajectory bit-for-bit; the
   QCheck suites below pin that claim across randomized instances
   (random and structured data, dead rows, shared workspaces), and the
   unit tests cover the non-finite-data guard and the degenerate
   shapes. *)

module Lp = S3_lp.Lp
module Packing = S3_lp.Packing
module Prng = S3_util.Prng

let tc = Alcotest.test_case

(* Random packing instance: mixes dense-random and structured
   (unit-coefficient, bench-shaped) data, with ~1/3 structural zeros
   and occasional zero-capacity rows. *)
let gen_instance g =
  let n = 1 + Prng.int g 18 in
  let m = Prng.int g 12 in
  let structured = Prng.bool g in
  let obj = Array.init n (fun _ -> if structured then 1. else Prng.float g 3.) in
  let rows =
    Array.init m (fun _ ->
        Array.init n (fun _ ->
            match Prng.int g 3 with
            | 0 -> 0.
            | _ -> if structured then 1. else 0.1 +. Prng.float g 2.))
  in
  let rhs =
    Array.init m (fun _ -> if Prng.int g 8 = 0 then 0. else Prng.float g 500.)
  in
  (obj, rows, rhs)

let sparse_of_dense rows =
  Array.map
    (fun r ->
      let acc = ref [] in
      for j = Array.length r - 1 downto 0 do
        (* lint: allow float-eq — structural-zero detection: only exact
           0. entries are dropped from the sparse form, by design *)
        if r.(j) <> 0. then acc := (j, r.(j)) :: !acc
      done;
      !acc)
    rows

let objective_of obj x =
  let s = ref 0. in
  Array.iteri (fun j v -> s := !s +. (obj.(j) *. v)) x;
  !s

let feasible rows rhs x =
  let ok = ref true in
  Array.iteri
    (fun i r ->
      let lhs = ref 0. in
      Array.iteri (fun j a -> lhs := !lhs +. (a *. x.(j))) r;
      if !lhs > rhs.(i) +. 1e-9 then ok := false)
    rows;
  !ok && Array.for_all (fun v -> v >= 0.) x

let eps_choices = [| 0.05; 0.1; 0.3; 0.7 |]

let qcheck =
  let open QCheck in
  let seed = int_range 0 1_000_000 in
  [ Test.make ~name:"sparse replays the dense oracle bit-for-bit" ~count:1200 seed
      (fun s ->
        let g = Prng.create s in
        let obj, rows, rhs = gen_instance g in
        let eps = eps_choices.(Prng.int g (Array.length eps_choices)) in
        let dense = Packing_oracle.reference_maximize ~eps ~obj ~rows ~rhs in
        let sparse =
          Packing.maximize_sparse ~eps ~obj ~rows:(sparse_of_dense rows) ~rhs ()
        in
        match (dense, sparse) with
        | Ok xd, Ok xs ->
          (* Bit-exact solution vectors: strictly stronger than the
             1e-9 objective agreement the spec asks for — assert
             both so a future weakening of one is still caught. *)
          Array.for_all2 (fun u v -> Float.equal u v) xd xs
          && Float.abs (objective_of obj xd -. objective_of obj xs) <= 1e-9
          && feasible rows rhs xs
        | Error `Unbounded, Error `Unbounded -> true
        | Error `Not_packing, Error `Not_packing -> true
        | _ -> false);
    Test.make ~name:"dense wrapper agrees with the oracle" ~count:400 seed (fun s ->
        let g = Prng.create s in
        let obj, rows, rhs = gen_instance g in
        let eps = eps_choices.(Prng.int g (Array.length eps_choices)) in
        match (Packing_oracle.reference_maximize ~eps ~obj ~rows ~rhs,
               Packing.maximize ~eps ~obj ~rows ~rhs)
        with
        | Ok xd, Ok xw -> Array.for_all2 Float.equal xd xw
        | Error a, Error b -> a = b
        | _ -> false);
    Test.make ~name:"shared workspace never changes a result" ~count:300 seed (fun s ->
        let g = Prng.create s in
        let ws = Packing.create_workspace () in
        let ok = ref true in
        (* A stream of differently-sized instances through one arena,
           as lpst/lpall reuse their per-state workspace. *)
        for _ = 1 to 5 do
          let obj, rows, rhs = gen_instance g in
          let sparse = sparse_of_dense rows in
          let fresh = Packing.maximize_sparse ~eps:0.1 ~obj ~rows:sparse ~rhs () in
          let reused = Packing.maximize_sparse ~ws ~eps:0.1 ~obj ~rows:sparse ~rhs () in
          (match (fresh, reused) with
           | Ok a, Ok b -> if not (Array.for_all2 Float.equal a b) then ok := false
           | Error a, Error b -> if a <> b then ok := false
           | _ -> ok := false)
        done;
        !ok)
  ]

(* --- non-finite data guard (regression: NaN/inf used to poison the
   length updates and return a garbage vector instead of an error) --- *)

let expect_not_packing label result =
  match result with
  | Error `Not_packing -> ()
  | Ok _ -> Alcotest.failf "%s: expected `Not_packing, got Ok" label
  | Error `Unbounded -> Alcotest.failf "%s: expected `Not_packing, got `Unbounded" label

let test_nan_inf_guard () =
  let obj = [| 1.; 1. |] in
  let rows = [| [| 1.; 1. |] |] in
  let rhs = [| 10. |] in
  expect_not_packing "nan obj"
    (Packing.maximize ~eps:0.1 ~obj:[| Float.nan; 1. |] ~rows ~rhs);
  expect_not_packing "inf obj"
    (Packing.maximize ~eps:0.1 ~obj:[| Float.infinity; 1. |] ~rows ~rhs);
  expect_not_packing "nan coeff"
    (Packing.maximize ~eps:0.1 ~obj ~rows:[| [| Float.nan; 1. |] |] ~rhs);
  expect_not_packing "inf coeff"
    (Packing.maximize ~eps:0.1 ~obj ~rows:[| [| Float.infinity; 1. |] |] ~rhs);
  expect_not_packing "nan rhs" (Packing.maximize ~eps:0.1 ~obj ~rows ~rhs:[| Float.nan |]);
  expect_not_packing "inf rhs"
    (Packing.maximize ~eps:0.1 ~obj ~rows ~rhs:[| Float.infinity |]);
  expect_not_packing "negative coeff"
    (Packing.maximize ~eps:0.1 ~obj ~rows:[| [| -1.; 1. |] |] ~rhs);
  (* The sparse entry point guards identically. *)
  expect_not_packing "sparse nan coeff"
    (Packing.maximize_sparse ~eps:0.1 ~obj ~rows:[| [ (0, Float.nan) ] |] ~rhs ());
  expect_not_packing "sparse inf rhs"
    (Packing.maximize_sparse ~eps:0.1 ~obj ~rows:[| [ (0, 1.) ] |] ~rhs:[| Float.infinity |]
       ());
  expect_not_packing "sparse dense-oracle nan rhs"
    (Packing_oracle.reference_maximize ~eps:0.1 ~obj ~rows ~rhs:[| Float.nan |])

let test_guard_falls_back_to_exact () =
  (* Through the Lp front end, a non-packing instance under Approx
     silently falls back to the simplex: negative coefficients are
     fine there. *)
  let p =
    Lp.make ~nvars:2 ~objective:[| 1.; 1. |]
      [ { Lp.coeffs = [ (0, 1.); (1, -1.) ]; bound = 2. };
        { Lp.coeffs = [ (0, 1.); (1, 1.) ]; bound = 4. }
      ]
  in
  match Lp.solve ~backend:(Lp.Approx 0.1) p with
  | Ok s -> Alcotest.check (Alcotest.float 1e-6) "falls back to simplex" 4. s.Lp.objective_value
  | Error e -> Alcotest.failf "unexpected %a" Lp.pp_error e

let test_degenerate_shapes () =
  (* Unbounded: positive objective, no constraint touching it. *)
  (match Packing.maximize_sparse ~eps:0.1 ~obj:[| 1.; 1. |] ~rows:[| [ (0, 1.) ] |]
           ~rhs:[| 5. |] ()
   with
   | Error `Unbounded -> ()
   | _ -> Alcotest.fail "expected unbounded");
  (* Zero-capacity row pins its variables; the rest still solves. *)
  (match Packing.maximize_sparse ~eps:0.1 ~obj:[| 1.; 1. |]
           ~rows:[| [ (0, 1.) ]; [ (1, 1.) ] |] ~rhs:[| 0.; 7. |] ()
   with
   | Ok x ->
     Alcotest.check (Alcotest.float 0.) "pinned" 0. x.(0);
     Alcotest.(check bool) "other variable lives" true (x.(1) > 0.)
   | _ -> Alcotest.fail "expected Ok");
  (* No rows at all: the origin. *)
  (match Packing.maximize_sparse ~eps:0.1 ~obj:[| 0. |] ~rows:[||] ~rhs:[||] () with
   | Ok x -> Alcotest.check (Alcotest.float 0.) "origin" 0. x.(0)
   | _ -> Alcotest.fail "expected Ok");
  (* eps validation. *)
  Alcotest.check_raises "eps = 0" (Invalid_argument "Packing.maximize_sparse: eps out of (0,1)")
    (fun () ->
      ignore (Packing.maximize_sparse ~eps:0. ~obj:[| 1. |] ~rows:[||] ~rhs:[||] ()));
  Alcotest.check_raises "bad column"
    (Invalid_argument "Packing.maximize_sparse: column index") (fun () ->
      ignore
        (Packing.maximize_sparse ~eps:0.1 ~obj:[| 1. |] ~rows:[| [ (3, 1.) ] |] ~rhs:[| 1. |]
           ()))

let tests =
  ( "packing",
    [ tc "nan/inf guard" `Quick test_nan_inf_guard;
      tc "approx falls back to exact" `Quick test_guard_falls_back_to_exact;
      tc "degenerate shapes" `Quick test_degenerate_shapes
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
