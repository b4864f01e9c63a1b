(* Incremental-vs-oracle equivalence suite.

   The engine's O(affected) mode (per-entity flow buckets, dirty-set
   clamping, indexed crash candidates, the lazy Phase I congestion
   accessor) and the keyed block-decomposed LP solves all promise the
   same thing: bit-identical runs, only faster. This suite pins that
   promise the hard way — every QCheck case replays one random scenario
   through both modes and compares the full metrics fingerprint AND the
   per-event rate vectors, float for float. Scenarios draw random
   topologies (two-tier and leaf-spine), workloads, foreground traffic,
   fault plans and watchdog configs, so every index maintenance site
   (spawn, kill, re-home, hedged swap, shed, completion, expiry) is
   crossed many times. A multicore sweep replay checks the incremental
   structures stay per-run under domains.

   The LP half pins the solver contract directly: keyed solves equal
   plain solves bit-for-bit over drifting problem streams, and the
   opt-in basis_reuse mode stays feasible and optimal (it may pick a
   different vertex, so it only promises the objective). *)

module T = S3_net.Topology
module Task = S3_workload.Task
module Generator = S3_workload.Generator
module Registry = S3_core.Registry
module Problem = S3_core.Problem
module Congestion = S3_core.Congestion
module Rtf = S3_core.Rtf
module Engine = S3_sim.Engine
module Foreground = S3_sim.Foreground
module Metrics = S3_sim.Metrics
module Report = S3_sim.Report
module Watchdog = S3_sim.Watchdog
module Retry = S3_sim.Retry
module Fault = S3_fault.Fault
module Detector = S3_fault.Detector
module Prng = S3_util.Prng
module Sweep = S3_par.Sweep
module Lp = S3_lp.Lp
module Simplex = S3_lp.Simplex

let tc = Alcotest.test_case

(* ---- scenario generator ---- *)

let algorithms = [ "lpst"; "lpall"; "edf-cong"; "edf"; "fifo"; "lstf" ]

let scenario seed =
  let g = Prng.create seed in
  let topo =
    if Prng.bool g then
      T.two_tier
        ~racks:(2 + Prng.int g 2)
        ~servers_per_rack:(4 + Prng.int g 5)
        ~cst:(200. +. Prng.float g 800.)
        ~cta:(600. +. Prng.float g 2000.)
    else
      T.leaf_spine
        ~leaves:(2 + Prng.int g 3)
        ~spines:(1 + Prng.int g 2)
        ~servers_per_leaf:(3 + Prng.int g 4)
        ~cst:(200. +. Prng.float g 800.)
        ~cta:(600. +. Prng.float g 2000.)
  in
  let code = if T.servers topo > 9 then (9, 6) else (4, 2) in
  let tasks =
    Generator.generate g topo
      { Generator.num_tasks = 5 + Prng.int g 20;
        arrival_rate = 0.1 +. Prng.float g 1.0;
        chunk_size_mb = 4. +. Prng.float g 48.;
        code_mix = [ (code, 1.) ];
        deadline_factor = 3. +. Prng.float g 8.;
        deadline_jitter = Prng.float g 0.5;
        placement = S3_storage.Placement.Flat_uniform
      }
  in
  let horizon =
    List.fold_left (fun acc (t : Task.t) -> max acc t.Task.deadline) 10. tasks
  in
  let faults =
    if Prng.int g 3 = 0 then Fault.empty
    else
      Fault.random (Prng.create (seed + 1)) topo ~horizon ~crashes:(Prng.int g 3)
        ~rack_outages:(Prng.int g 2)
        ~degradations:(Prng.int g 3)
        ()
  in
  let fg = if Prng.bool g then 0. else 0.05 +. Prng.float g 0.4 in
  (topo, tasks, faults, fg)

let engine_config fg =
  { Engine.foreground = (if fg > 0. then Foreground.uniform ~max_frac:fg else Foreground.none);
    seed = 7
  }

(* The engine's [load] accessor against the eager scan of the same
   view, on every entity, float for float. *)
let check_load now (v : Problem.view) =
  match v.Problem.load with
  | None -> ()
  | Some load ->
    let eager = Congestion.of_view { v with Problem.load = None } in
    for e = 0 to Array.length (T.entities v.Problem.topo) - 1 do
      let memo = load e and scan = Congestion.factor eager e in
      if not (Float.equal memo scan) then
        Alcotest.failf "t=%g entity %d: load %.17g, eager scan %.17g" now e memo scan
    done

(* One run in one mode, capturing the fingerprint and every per-event
   rate vector (flow id and rate, in the algorithm's own order); the
   incremental mode's load accessor is checked at every event too. *)
let capture ?watchdog ?detector ?retry ~incremental name (topo, tasks, faults, fg) =
  let events = ref [] in
  let hook now v rates =
    check_load now v;
    events := (now, rates) :: !events
  in
  let run =
    Engine.run ~config:(engine_config fg) ~on_event:hook ~faults ?watchdog ?detector ?retry
      ~incremental topo
      (Registry.make ~incremental name)
      tasks
  in
  (Report.fingerprint run, List.rev !events)

let rates_equal a b =
  List.equal
    (fun (ta, ra) (tb, rb) ->
      Float.equal ta tb
      && List.equal
           (fun (fa, va) (fb, vb) -> fa = fb && Float.equal va vb)
           ra rb)
    a b

let equivalence_case ?watchdog ?detector ?retry ?(scene = scenario) name seed =
  let scene = scene seed in
  let fp_inc, ev_inc = capture ?watchdog ?detector ?retry ~incremental:true name scene in
  let fp_orc, ev_orc = capture ?watchdog ?detector ?retry ~incremental:false name scene in
  if not (String.equal fp_inc fp_orc) then
    QCheck.Test.fail_reportf "%s, seed %d: fingerprints differ (%s vs %s)" name seed fp_inc
      fp_orc;
  if not (rates_equal ev_inc ev_orc) then
    QCheck.Test.fail_reportf "%s, seed %d: per-event rates differ" name seed;
  true

let wd_config seed =
  let g = Prng.create (seed + 2) in
  Watchdog.v ~slack:(Prng.float g 2.) ~max_swaps:(Prng.int g 5)
    ~backoff:(0.25 +. Prng.float g 2.) ()

(* The same scenarios with arrivals snapped down onto a coarse grid, so
   tasks arrive in same-instant batches (the engine's per-entity load
   memo extends instead of refolding within an instant), and a fault
   plan that always crashes something, so detector-driven and retry
   re-homes insert replacement flows at older (seq, slot) keys. *)
let batched_scenario seed =
  let topo, tasks, _, fg = scenario seed in
  let g = Prng.create (seed + 5) in
  let quantum = 1. +. Prng.float g 8. in
  let tasks =
    List.map
      (fun (t : Task.t) ->
        { t with Task.arrival = quantum *. Float.floor (t.Task.arrival /. quantum) })
      tasks
  in
  let horizon =
    List.fold_left (fun acc (t : Task.t) -> max acc t.Task.deadline) 10. tasks
  in
  let faults =
    Fault.random (Prng.create (seed + 1)) topo ~horizon ~crashes:(1 + Prng.int g 3)
      ~rack_outages:(Prng.int g 2)
      ~degradations:(1 + Prng.int g 3)
      ()
  in
  (topo, tasks, faults, fg)

let detector_config seed =
  let g = Prng.create (seed + 3) in
  Detector.v ~suspect:(Prng.float g 2.) ~confirm:(Prng.float g 2.) ()

let resume_retry seed =
  let g = Prng.create (seed + 4) in
  Retry.v ~retries:(Prng.int g 3)
    ~timeout:(0.1 +. Prng.float g 2.)
    ~backoff:(1. +. Prng.float g 2.)
    ~resume:true ()

let qcheck_engine =
  let open QCheck in
  let seed = int_range 0 1_000_000 in
  let alg_and_seed = pair (oneofl algorithms) seed in
  [ Test.make ~name:"incremental == oracle: arrivals/completions/crashes" ~count:220
      alg_and_seed
      (fun (name, seed) -> equivalence_case name seed);
    Test.make ~name:"incremental == oracle: under the watchdog" ~count:120 alg_and_seed
      (fun (name, seed) -> equivalence_case ~watchdog:(wd_config seed) name seed);
    Test.make ~name:"incremental == oracle: same-instant batches, detector, resume re-homes"
      ~count:150 alg_and_seed (fun (name, seed) ->
        let watchdog = if seed mod 2 = 0 then Some (wd_config seed) else None in
        equivalence_case ?watchdog ~detector:(detector_config seed)
          ~retry:(resume_retry seed) ~scene:batched_scenario name seed)
  ]

(* ---- multicore sweep replay ---- *)

let test_sweep_replay () =
  let job incremental idx =
    let name = List.nth algorithms (idx mod List.length algorithms) in
    let scene = scenario (3000 + idx) in
    fst (capture ~watchdog:(wd_config idx) ~incremental name scene)
  in
  let seq = Sweep.map ~domains:1 12 (job true) in
  let par = Sweep.map ~domains:4 12 (job true) in
  let oracle = Sweep.map ~domains:4 12 (job false) in
  Alcotest.(check (array string)) "4-domain incremental sweep equals sequential" seq par;
  Alcotest.(check (array string)) "incremental sweep equals oracle sweep" oracle par

(* ---- the lazy congestion accessor, in isolation ---- *)

let test_congestion_accessor () =
  let topo = T.two_tier ~racks:3 ~servers_per_rack:4 ~cst:500. ~cta:1500. in
  let g = Prng.create 42 in
  let tasks =
    Generator.generate g topo
      { Generator.num_tasks = 8;
        arrival_rate = 2.;
        chunk_size_mb = 16.;
        code_mix = [ ((4, 2), 1.) ];
        deadline_factor = 6.;
        deadline_jitter = 0.2;
        placement = S3_storage.Placement.Flat_uniform
      }
  in
  let flows =
    List.concat_map
      (fun (t : Task.t) ->
        List.mapi
          (fun i s ->
            { Problem.flow_id = (t.Task.id * 16) + i;
              task = t;
              source = s;
              remaining = t.Task.volume
            })
          (Array.to_list t.Task.sources |> List.filteri (fun i _ -> i < t.Task.k)))
      tasks
  in
  let eager =
    { Problem.now = 1.;
      topo;
      flows = lazy flows;
      available = (fun e -> (T.entity topo e).T.capacity);
      load = None
    }
  in
  (* The reference accessor: exactly the eager per-entity sums. *)
  let eager_table = Congestion.of_view eager in
  let lazy_view = { eager with Problem.load = Some (Congestion.factor eager_table) } in
  List.iter
    (fun (t : Task.t) ->
      let a = Congestion.select_least_congested eager t in
      let b = Congestion.select_least_congested lazy_view t in
      Alcotest.(check (array int))
        (Printf.sprintf "task %d selects identically" t.Task.id)
        a b)
    tasks

(* ---- the engine's per-entity load memo ---- *)

(* A t = 0 burst on a small leaf-spine, with crashes while it runs: at
   every event, the engine's memoized [load] must equal the eager scan
   on every entity, float for float. The burst drives the memo's
   same-instant extension; the crashes drive invalidation by removal
   and by re-homes into older slots. *)
let test_load_memo () =
  let topo = T.leaf_spine ~leaves:3 ~spines:2 ~servers_per_leaf:5 ~cst:1000. ~cta:3000. in
  let n = T.servers topo in
  let g = Prng.create 11 in
  let tasks =
    List.init 60 (fun id ->
        let destination = Prng.int g n in
        let others = List.filter (fun s -> s <> destination) (List.init n Fun.id) in
        Task.v ~id ~arrival:0.
          ~deadline:(4. +. Prng.float g 12.)
          ~volume:(100. +. Prng.float g 400.)
          ~k:2
          ~sources:(Array.of_list (Prng.sample g 4 others))
          ~destination ())
  in
  let faults =
    Fault.plan
      [ { Fault.time = 0.5; kind = Fault.Server_crash 3 };
        { Fault.time = 1.25; kind = Fault.Server_crash 8 };
        { Fault.time = 2.; kind = Fault.Server_crash 12 }
      ]
  in
  let checked = ref 0 in
  let hook now (v : Problem.view) _ =
    Alcotest.(check bool) "load accessor present" true (Option.is_some v.Problem.load);
    check_load now v;
    incr checked
  in
  let run =
    Engine.run ~on_event:hook ~faults ~incremental:true topo (Registry.make "lpst") tasks
  in
  Alcotest.(check bool) "events checked" true (!checked > 1);
  Alcotest.(check bool) "crashes re-homed subtasks" true (run.Metrics.tasks_rehomed > 0)

(* ---- keyed LP solves ---- *)

(* A random block-structured packing problem with stable keys, plus a
   drift step that perturbs bounds/lowers (keys fixed) or appends a
   variable to one block (structure change: the keyed path must fall
   back exactly like the oracle does). *)
type keyed_problem = {
  p : Lp.problem;
  var_keys : int array;
  row_keys : int array;
}

let gen_keyed g =
  let blocks = 1 + Prng.int g 4 in
  let vars = ref [] and rows = ref [] in
  let nvars = ref 0 in
  for b = 0 to blocks - 1 do
    let nv = 1 + Prng.int g 4 in
    let base = !nvars in
    nvars := !nvars + nv;
    for j = 0 to nv - 1 do
      vars := (base + j, (b * 1000) + j) :: !vars
    done;
    let nr = 1 + Prng.int g 3 in
    for r = 0 to nr - 1 do
      let members =
        List.init nv (fun j -> base + j) |> List.filter (fun _ -> Prng.int g 4 > 0)
      in
      let members = if members = [] then [ base ] else members in
      rows :=
        ( (b * 1000) + 500 + r,
          List.map (fun j -> (j, 1.)) members,
          5. +. Prng.float g 50. )
        :: !rows
    done
  done;
  let vars = List.rev !vars and rows = List.rev !rows in
  let n = !nvars in
  let lower =
    Array.init n (fun _ -> if Prng.int g 3 = 0 then Prng.float g 2. else 0.)
  in
  { p =
      Lp.make ~nvars:n
        ~objective:(Array.make n 1.)
        ~lower
        (List.map (fun (_, coeffs, bound) -> { Lp.coeffs; bound }) rows);
    var_keys = Array.of_list (List.map snd vars);
    row_keys = Array.of_list (List.map (fun (k, _, _) -> k) rows)
  }

let drift g kp =
  let p = kp.p in
  if Prng.int g 4 = 0 then begin
    (* structure change: append one variable to the last block's rows *)
    let n = p.Lp.nvars in
    let constraints =
      List.mapi
        (fun i c ->
          if i = List.length p.Lp.constraints - 1 then
            { c with Lp.coeffs = (n, 1.) :: c.Lp.coeffs }
          else c)
        p.Lp.constraints
    in
    { p =
        Lp.make ~nvars:(n + 1)
          ~objective:(Array.make (n + 1) 1.)
          ~lower:(Array.append p.Lp.lower [| 0. |])
          constraints;
      var_keys = Array.append kp.var_keys [| 900_000 + Array.length kp.var_keys |];
      row_keys = kp.row_keys
    }
  end
  else
    { kp with
      p =
        Lp.make ~nvars:p.Lp.nvars ~objective:p.Lp.objective
          ~lower:(Array.map (fun l -> max 0. (l +. Prng.float g 0.5 -. 0.25)) p.Lp.lower)
          (List.map
             (fun c -> { c with Lp.bound = max 0.5 (c.Lp.bound +. Prng.float g 10. -. 5.) })
             p.Lp.constraints)
    }

let solve_plain st p = Lp.solve ~state:st p

let solve_keyed st kp =
  Lp.solve ~state:st
    ~identity:(Lp.identity ~var_keys:kp.var_keys ~row_keys:kp.row_keys ())
    kp.p

let qcheck_lp =
  let open QCheck in
  let seed = int_range 0 1_000_000 in
  [ Test.make ~name:"keyed LP stream == plain LP stream, bit for bit" ~count:150 seed
      (fun seed ->
        let g = Prng.create seed in
        let st_plain = Lp.create_state () and st_keyed = Lp.create_state () in
        let kp = ref (gen_keyed g) in
        let steps = 3 + Prng.int g 6 in
        for step = 0 to steps - 1 do
          (match (solve_plain st_plain !kp.p, solve_keyed st_keyed !kp) with
           | Ok a, Ok b ->
             if not (Float.equal a.Lp.objective_value b.Lp.objective_value) then
               Test.fail_reportf "seed %d step %d: objective %.17g vs %.17g" seed step
                 a.Lp.objective_value b.Lp.objective_value;
             Array.iteri
               (fun j v ->
                 if not (Float.equal v b.Lp.values.(j)) then
                   Test.fail_reportf "seed %d step %d: x%d = %.17g vs %.17g" seed step j v
                     b.Lp.values.(j))
               a.Lp.values
           | Error ea, Error eb ->
             if ea <> eb then
               Test.fail_reportf "seed %d step %d: different errors (plain %a, keyed %a)"
                 seed step Lp.pp_error ea Lp.pp_error eb
           | Ok _, Error _ | Error _, Ok _ ->
             Test.fail_reportf "seed %d step %d: one mode failed, the other solved" seed step);
          kp := drift g !kp
        done;
        true);
    Test.make ~name:"basis_reuse stays feasible and optimal over drift" ~count:120 seed
      (fun seed ->
        let g = Prng.create seed in
        let st = Lp.create_state () in
        let kp = ref (gen_keyed g) in
        let steps = 3 + Prng.int g 6 in
        for step = 0 to steps - 1 do
          let reuse =
            Lp.solve ~state:st
              ~identity:
                (Lp.identity ~basis_reuse:true ~var_keys:!kp.var_keys ~row_keys:!kp.row_keys
                   ())
              !kp.p
          in
          let cold = Lp.solve !kp.p in
          (match (reuse, cold) with
           | Ok r, Ok c ->
             if not (Lp.feasible !kp.p r.Lp.values) then
               Test.fail_reportf "seed %d step %d: basis_reuse infeasible" seed step;
             let tol = 1e-6 *. Float.max 1. (Float.abs c.Lp.objective_value) in
             if Float.abs (r.Lp.objective_value -. c.Lp.objective_value) > tol then
               Test.fail_reportf "seed %d step %d: objective %.12g vs cold %.12g" seed step
                 r.Lp.objective_value c.Lp.objective_value
           | Error _, Error _ -> ()
           | Ok _, Error _ | Error _, Ok _ ->
             Test.fail_reportf "seed %d step %d: reuse/cold disagree on solvability" seed
               step);
          kp := drift g !kp
        done;
        true);
    Test.make ~name:"dual repair recovers a bounds-shrunk basis" ~count:120 seed
      (fun seed ->
        let g = Prng.create seed in
        let kp = gen_keyed g in
        let p = kp.p in
        let rows = Array.of_list (List.map (fun c -> c.Lp.coeffs) p.Lp.constraints) in
        let rhs = Array.of_list (List.map (fun c -> c.Lp.bound) p.Lp.constraints) in
        (* No lower bounds here: the dual phase is about capacity drift. *)
        match Simplex.maximize_sparse ~obj:p.Lp.objective ~rows ~rhs () with
        | Error _ -> true
        | Ok (_, None) -> true
        | Ok (_, Some basis) ->
          let shrunk = Array.map (fun b -> b *. (0.3 +. Prng.float g 0.7)) rhs in
          let ws = Simplex.create_workspace () in
          (match
             Simplex.warm_solve ~dual:true ws ~obj:p.Lp.objective ~rows ~rhs:shrunk
               ~warm:basis
           with
           | None -> true (* stale basis: caller falls back cold; allowed *)
           | Some (Error _) -> true
           | Some (Ok (values, _)) ->
             (match Simplex.maximize_sparse ~obj:p.Lp.objective ~rows ~rhs:shrunk () with
              | Error _ ->
                QCheck.Test.fail_reportf "seed %d: dual solved an unsolvable problem" seed
              | Ok (cold, _) ->
                let obj v =
                  let acc = ref 0. in
                  Array.iteri (fun j x -> acc := !acc +. (p.Lp.objective.(j) *. x)) v;
                  !acc
                in
                let tol = 1e-6 *. Float.max 1. (Float.abs (obj cold)) in
                if Float.abs (obj values -. obj cold) > tol then
                  QCheck.Test.fail_reportf "seed %d: dual objective %.12g vs cold %.12g"
                    seed (obj values) (obj cold)
                else true)))
  ]

let tests =
  ( "incremental",
    [ tc "sweep replay (4 domains)" `Quick test_sweep_replay;
      tc "congestion accessor == eager scan" `Quick test_congestion_accessor;
      tc "load memo == eager scan at every event" `Quick test_load_memo
    ]
    @ List.map QCheck_alcotest.to_alcotest (qcheck_engine @ qcheck_lp) )
