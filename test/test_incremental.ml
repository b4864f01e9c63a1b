(* Indexed-vs-rescan equivalence suite.

   The engine's indexes (per-entity flow buckets, dirty-set clamping,
   indexed crash candidates, the memoized Phase I congestion load) and
   the block-decomposed LP solves all promise the same thing:
   bit-identical runs, only faster. This suite pins that promise the
   hard way — every QCheck case replays one random scenario through
   Engine.run and through Engine.Make (Scan_index), the full-rescan
   twin, and compares the full metrics fingerprint AND the per-event
   rate vectors, float for float. Scenarios draw random topologies
   (two-tier and leaf-spine), workloads, foreground traffic, fault
   plans, watchdog, detector and retry configs, closed-loop repair
   injection and a noisy data plane, so every index maintenance site
   (spawn, kill, re-home, hedged swap, shed, completion, expiry) is
   crossed many times. A multicore sweep replay checks the index
   structures stay per-run under domains.

   The LP half pins the solver contract directly: decomposed solves
   through a state equal a whole-problem warm-started simplex
   reference bit-for-bit over drifting problem streams. *)

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
module Cluster = S3_storage.Cluster
module Emulator = S3_cloud.Emulator
module Algorithm = S3_core.Algorithm
module Scan_engine = Engine.Make (Scan_index)

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

(* Per-run hooks, built fresh for every run: the repair hook mutates
   its cluster and the data plane draws from its own PRNG. *)
type hooks = {
  on_failure : (unit -> now:float -> server:int -> Task.t list) option;
  data_plane : (unit -> Engine.data_plane) option;
}

let no_hooks = { on_failure = None; data_plane = None }

(* One run through one engine, capturing the fingerprint and every
   per-event rate vector (flow id and rate, in the algorithm's own
   order); the load accessor, when present, is checked at every event
   too. *)
let capture ?watchdog ?detector ?retry ?(hooks = no_hooks) (module E : Engine.S) name
    (topo, tasks, faults, fg) =
  let events = ref [] in
  let hook now v rates =
    check_load now v;
    events := (now, rates) :: !events
  in
  let run =
    E.run ~config:(engine_config fg) ~on_event:hook ~faults ?watchdog ?detector ?retry
      ?on_failure:(Option.map (fun mk -> mk ()) hooks.on_failure)
      ?data_plane:(Option.map (fun mk -> mk ()) hooks.data_plane)
      topo (Registry.make name) tasks
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

let equivalence_case ?watchdog ?detector ?retry ?(scene = scenario) ?(hooks = fun _ _ -> no_hooks)
    name seed =
  let scene = scene seed in
  let (topo, _, _, _) = scene in
  let hooks = hooks topo seed in
  let fp_idx, ev_idx = capture ?watchdog ?detector ?retry ~hooks (module Engine) name scene in
  let fp_scan, ev_scan =
    capture ?watchdog ?detector ?retry ~hooks (module Scan_engine) name scene
  in
  if not (String.equal fp_idx fp_scan) then
    QCheck.Test.fail_reportf "%s, seed %d: fingerprints differ (%s vs %s)" name seed fp_idx
      fp_scan;
  if not (rates_equal ev_idx ev_scan) then
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

(* Closed-loop repair over a small cluster on the scenario's fabric
   (repair ids start far above the workload's), on half the seeds; a
   quantize-and-jitter data plane with control latency, built as the
   cloud emulator builds one, on a third. *)
let repair_and_data_plane topo seed =
  let on_failure () =
    let cluster = Cluster.create topo in
    let g = Prng.create (seed + 6) in
    let n, k = if T.servers topo > 9 then (9, 6) else (4, 2) in
    for _ = 1 to 6 do
      ignore
        (Cluster.add_file cluster g ~policy:S3_storage.Placement.Flat_uniform ~n ~k
           ~chunk_volume:(8. +. Prng.float g 40.) ())
    done;
    Fault.closed_loop_repair (Prng.create (seed + 7)) cluster ~deadline_factor:8.
      ~first_id:1_000_000
  in
  let data_plane () =
    Emulator.data_plane { Emulator.default_config with Emulator.seed = seed + 8 }
  in
  { on_failure = (if seed / 2 mod 2 = 0 then Some on_failure else None);
    data_plane = (if seed mod 3 = 0 then Some data_plane else None)
  }

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
          ~retry:(resume_retry seed) ~scene:batched_scenario ~hooks:repair_and_data_plane
          name seed)
  ]

(* ---- directed: a destination crash while a fetch waits ----

   Crash candidates come from the dead servers' NIC buckets. That finds
   every unresolved task whose destination died because such a task
   always has a live flow in some bucket, and every flow's route crosses
   its destination NIC: a drained task resolves at the step that
   drains it, and every kill for a replacement is followed by the
   replacement's insertion before anything else runs. These scenes put
   a task in the waits that come closest to "unresolved with nothing
   bucketed" and then crash its destination: a fetch stalled by a dead
   source link, waiting on its retry timer; the same under a detector;
   and a fetch whose source is dead but not yet detected. Both engines
   must lose the task at the destination crash, identically. *)

let test_destination_crash_while_waiting () =
  let topo = T.two_tier ~racks:3 ~servers_per_rack:3 ~cst:1000. ~cta:3000. in
  let task = Task.v ~id:0 ~arrival:0. ~deadline:20. ~volume:1000. ~k:1 ~sources:[| 1; 2 |]
      ~destination:0 () in
  let nic s = T.server_entity topo s in
  let scenes =
    [ ( "stalled, retry pending",
        [ { Fault.time = 0.2;
            kind = Fault.Link_degrade { entity = nic 1; factor = 0.; duration = 50. } };
          { Fault.time = 0.5; kind = Fault.Server_crash 0 } ],
        None );
      ( "stalled, retry pending, detector",
        [ { Fault.time = 0.2;
            kind = Fault.Link_degrade { entity = nic 1; factor = 0.; duration = 50. } };
          { Fault.time = 0.5; kind = Fault.Server_crash 0 } ],
        Some (Detector.v ~suspect:0.3 ~confirm:0.1 ()) );
      ( "source dead, undetected",
        [ { Fault.time = 0.2; kind = Fault.Server_crash 1 };
          { Fault.time = 0.3; kind = Fault.Server_crash 0 } ],
        Some (Detector.v ~suspect:1. ~confirm:0.5 ()) ) ]
  in
  List.iter
    (fun (label, events, detector) ->
      let faults = Fault.plan events in
      let retry = Retry.v ~retries:2 ~timeout:1. ~backoff:2. ~resume:true () in
      let run (module E : Engine.S) =
        E.run ~faults ?detector ~retry topo (Registry.make "lpst") [ task ]
      in
      let idx = run (module Engine) and scan = run (module Scan_engine) in
      Alcotest.(check string) (label ^ ": fingerprints") (Report.fingerprint scan)
        (Report.fingerprint idx);
      Alcotest.(check int) (label ^ ": lost to the crash") 1 idx.Metrics.tasks_lost;
      Alcotest.(check int) (label ^ ": not completed") 0 (Metrics.completed idx))
    scenes

(* ---- directed: the clamp path ----

   No shipped algorithm over-allocates, so only a deliberately greedy
   one reaches the engine's clamp. EDF's rates scaled by 1.3 overload
   the entities it saturates; the engine must scale them back so that
   no entity carries more than its availability (+1e-6) after any
   event, and the conservation law must still hold. The rates the
   engine settled on are read through an identity data plane, whose
   shaping pass sees every positive rate after clamping. The indexed
   and full-rescan engines are not fingerprint-identical here: their
   usage sums round differently, and the clamp scale [available /.
   usage] exposes the last bits (DESIGN.md, §"Flow_index"). *)

let greedy_edf () =
  let edf = Registry.make "edf" in
  { edf with
    Algorithm.name = "EDF x1.3";
    allocate = (fun v -> List.map (fun (f, r) -> (f, 1.3 *. r)) (edf.Algorithm.allocate v))
  }

let test_clamp_path () =
  let check_run label (module E : Engine.S) (topo, tasks, faults, fg) =
    let settled = ref [] in
    let data_plane =
      { Engine.control_latency = (fun () -> 0.);
        shape_rate =
          (fun ~flow_id r ->
            settled := (flow_id, r) :: !settled;
            r)
      }
    in
    let nent = Array.length (T.entities topo) in
    let hook now (v : Problem.view) _ =
      let routes = Hashtbl.create 64 in
      List.iter
        (fun (f : Problem.flow) -> Hashtbl.replace routes f.Problem.flow_id f.Problem.route)
        (Lazy.force v.Problem.flows);
      let usage = Array.make nent 0. in
      List.iter
        (fun (fid, r) ->
          match Hashtbl.find_opt routes fid with
          | Some route -> Array.iter (fun e -> usage.(e) <- usage.(e) +. r) route
          | None -> Alcotest.failf "%s t=%g: flow %d holds a rate but is not live" label now fid)
        !settled;
      settled := [];
      Array.iteri
        (fun e u ->
          let a = v.Problem.available e in
          if u > a +. 1e-6 then
            Alcotest.failf "%s t=%g: entity %d carries %.9f > available %.9f" label now e u a)
        usage
    in
    let run =
      E.run ~config:(engine_config fg) ~data_plane ~on_event:hook ~faults topo (greedy_edf ())
        tasks
    in
    if run.Metrics.clamp_events = 0 then Alcotest.failf "%s: never clamped" label;
    let useful =
      List.fold_left
        (fun acc (o : Metrics.outcome) ->
          if o.Metrics.completed then acc +. Task.total_volume o.Metrics.task else acc)
        0. run.Metrics.outcomes
    in
    let drift =
      Float.abs
        (run.Metrics.transferred -. (useful +. run.Metrics.wasted +. run.Metrics.shed_volume))
    in
    if drift > (1e-6 *. Float.max 1. run.Metrics.transferred) +. 1e-3 then
      Alcotest.failf "%s: conservation drift %.6f" label drift
  in
  for seed = 1 to 20 do
    let scene = scenario seed in
    check_run (Printf.sprintf "indexed, seed %d" seed) (module Engine) scene;
    check_run (Printf.sprintf "full rescan, seed %d" seed) (module Scan_engine) scene
  done

(* ---- multicore sweep replay ---- *)

let test_sweep_replay () =
  let job engine idx =
    let name = List.nth algorithms (idx mod List.length algorithms) in
    let scene = scenario (3000 + idx) in
    fst (capture ~watchdog:(wd_config idx) engine name scene)
  in
  let seq = Sweep.map ~domains:1 12 (job (module Engine)) in
  let par = Sweep.map ~domains:4 12 (job (module Engine)) in
  let scan = Sweep.map ~domains:4 12 (job (module Scan_engine)) in
  Alcotest.(check (array string)) "4-domain indexed sweep equals sequential" seq par;
  Alcotest.(check (array string)) "indexed sweep equals rescan sweep" scan par

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
            Problem.make_flow topo ~flow_id:((t.Task.id * 16) + i) ~task:t ~source:s
              ~remaining:t.Task.volume)
          (Array.to_list t.Task.sources |> List.filteri (fun i _ -> i < t.Task.k)))
      tasks
  in
  let eager =
    Problem.of_flows ~now:1. ~topo ~available:(fun e -> (T.entity topo e).T.capacity) flows
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
    Engine.run ~on_event:hook ~faults topo (Registry.make "lpst") tasks
  in
  Alcotest.(check bool) "events checked" true (!checked > 1);
  Alcotest.(check bool) "crashes re-homed subtasks" true (run.Metrics.tasks_rehomed > 0)

(* ---- decomposed LP solves against a whole-problem reference ---- *)

(* A random block-structured packing problem, with the generator block
   of every variable and row, plus a drift step. A step either repeats
   the problem verbatim (the identical-problem hit), perturbs the
   bounds and lower bounds of every block or of one block only,
   or appends a variable to one block (a structure change: the
   decomposed path must fall back exactly like the reference does). *)
type keyed_problem = {
  p : Lp.problem;
  var_block : int array;
  row_block : int array;
}

let gen_keyed g =
  let blocks = 1 + Prng.int g 4 in
  let vars = ref [] and rows = ref [] in
  let nvars = ref 0 in
  for b = 0 to blocks - 1 do
    let nv = 1 + Prng.int g 4 in
    let base = !nvars in
    nvars := !nvars + nv;
    for _ = 0 to nv - 1 do
      vars := b :: !vars
    done;
    let nr = 1 + Prng.int g 3 in
    for _ = 0 to nr - 1 do
      let members =
        List.init nv (fun j -> base + j) |> List.filter (fun _ -> Prng.int g 4 > 0)
      in
      let members = if members = [] then [ base ] else members in
      rows := (b, List.map (fun j -> (j, 1.)) members, 5. +. Prng.float g 50.) :: !rows
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
    var_block = Array.of_list vars;
    row_block = Array.of_list (List.map (fun (b, _, _) -> b) rows)
  }

(* Perturb the bounds of the rows and the lower bounds of the variables
   that [touch] selects by generator block. *)
let drift_bounds g kp ~touch =
  let p = kp.p in
  { kp with
    p =
      Lp.make ~nvars:p.Lp.nvars ~objective:p.Lp.objective
        ~lower:
          (Array.mapi
             (fun j l ->
               if touch kp.var_block.(j) then max 0. (l +. Prng.float g 0.5 -. 0.25) else l)
             p.Lp.lower)
        (List.mapi
           (fun i c ->
             if touch kp.row_block.(i) then
               { c with Lp.bound = max 0.5 (c.Lp.bound +. Prng.float g 10. -. 5.) }
             else c)
           p.Lp.constraints)
  }

let drift g kp =
  let p = kp.p in
  match Prng.int g 8 with
  | 0 | 1 ->
    (* structure change: append one variable to the last row's block *)
    let n = p.Lp.nvars in
    let last = List.length p.Lp.constraints - 1 in
    let constraints =
      List.mapi
        (fun i c -> if i = last then { c with Lp.coeffs = (n, 1.) :: c.Lp.coeffs } else c)
        p.Lp.constraints
    in
    { p =
        Lp.make ~nvars:(n + 1)
          ~objective:(Array.make (n + 1) 1.)
          ~lower:(Array.append p.Lp.lower [| 0. |])
          constraints;
      var_block = Array.append kp.var_block [| kp.row_block.(last) |];
      row_block = kp.row_block
    }
  | 2 ->
    (* verbatim repeat, rebuilt so that nothing is physically shared *)
    { kp with
      p =
        Lp.make ~nvars:p.Lp.nvars ~objective:(Array.copy p.Lp.objective)
          ~lower:(Array.copy p.Lp.lower)
          (List.map
             (fun c ->
               { Lp.coeffs = List.map (fun (j, a) -> (j, a)) c.Lp.coeffs; bound = c.Lp.bound })
             p.Lp.constraints)
    }
  | 3 | 4 ->
    let b = kp.row_block.(Prng.int g (Array.length kp.row_block)) in
    drift_bounds g kp ~touch:(Int.equal b)
  | _ -> drift_bounds g kp ~touch:(fun _ -> true)

(* The whole-problem reference: one simplex over the entire LP, with
   the reuse rules Lp.state promises — the previous solution when the
   problem repeats verbatim, the previous basis (slack columns remapped
   to the new variable count) when the old rows are a coefficient-wise
   prefix of the new ones and variables were only appended. *)
type reference = {
  ws : Simplex.workspace;
  mutable last : (Lp.problem * Lp.solution * int array option) option;
}

let same_row (a : Lp.constr) (b : Lp.constr) =
  List.equal (fun (j, x) (k, y) -> j = k && Float.equal x y) a.Lp.coeffs b.Lp.coeffs

let same_floats a b = Array.length a = Array.length b && Array.for_all2 Float.equal a b

let rec is_prefix old_rows rows =
  match (old_rows, rows) with
  | [], _ -> true
  | a :: old_rest, b :: rest -> same_row a b && is_prefix old_rest rest
  | _ :: _, [] -> false

let reference_solve ({ ws; _ } as r) (p : Lp.problem) =
  let m = List.length p.Lp.constraints in
  match r.last with
  | Some (q, sol, _)
    when q.Lp.nvars = p.Lp.nvars
         && same_floats q.Lp.lower p.Lp.lower
         && same_floats q.Lp.objective p.Lp.objective
         && List.equal
              (fun (a : Lp.constr) b -> same_row a b && Float.equal a.Lp.bound b.Lp.bound)
              q.Lp.constraints p.Lp.constraints ->
    Ok { sol with Lp.values = Array.copy sol.Lp.values }
  | last -> (
    let warm =
      match last with
      | Some (q, _, Some basis)
        when q.Lp.nvars <= p.Lp.nvars && is_prefix q.Lp.constraints p.Lp.constraints ->
        let n = p.Lp.nvars and pn = q.Lp.nvars and pm = List.length q.Lp.constraints in
        Some
          (Array.init m (fun i ->
               if i >= pm then n + i
               else if basis.(i) < pn then basis.(i)
               else n + (basis.(i) - pn)))
      | _ -> None
    in
    let rows = Array.of_list (List.map (fun (c : Lp.constr) -> c.Lp.coeffs) p.Lp.constraints) in
    let rhs =
      Array.of_list
        (List.map
           (fun (c : Lp.constr) ->
             c.Lp.bound
             -. List.fold_left (fun acc (j, a) -> acc +. (a *. p.Lp.lower.(j))) 0. c.Lp.coeffs)
           p.Lp.constraints)
    in
    let obj = p.Lp.objective in
    let warm_result = Option.bind warm (fun w -> Simplex.warm_solve ws ~obj ~rows ~rhs ~warm:w) in
    match
      match warm_result with Some r -> r | None -> Simplex.maximize_sparse ~ws ~obj ~rows ~rhs ()
    with
    | Ok (y, basis) ->
      let values = Array.mapi (fun j l -> l +. y.(j)) p.Lp.lower in
      let sol = { Lp.values; objective_value = Lp.objective_of p values } in
      r.last <- Some (p, sol, basis);
      Ok sol
    | Error e ->
      r.last <- None;
      Error (match e with `Infeasible -> Lp.Infeasible | `Unbounded -> Lp.Unbounded))

let qcheck_lp =
  let open QCheck in
  let seed = int_range 0 1_000_000 in
  [ Test.make ~name:"keyed LP stream == plain LP stream, bit for bit" ~count:150 seed
      (fun seed ->
        let g = Prng.create seed in
        let reference = { ws = Simplex.create_workspace (); last = None } in
        let st = Lp.create_state () in
        let kp = ref (gen_keyed g) in
        let steps = 3 + Prng.int g 6 in
        for step = 0 to steps - 1 do
          (match (reference_solve reference !kp.p, Lp.solve ~state:st !kp.p) with
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
               Test.fail_reportf "seed %d step %d: different errors (reference %a, decomposed %a)"
                 seed step Lp.pp_error ea Lp.pp_error eb
           | Ok _, Error _ | Error _, Ok _ ->
             Test.fail_reportf "seed %d step %d: one mode failed, the other solved" seed step);
          kp := drift g !kp
        done;
        true)
  ]

let tests =
  ( "incremental",
    [ tc "sweep replay (4 domains)" `Quick test_sweep_replay;
      tc "congestion accessor == eager scan" `Quick test_congestion_accessor;
      tc "load memo == eager scan at every event" `Quick test_load_memo;
      tc "destination crash while a fetch waits" `Quick test_destination_crash_while_waiting;
      tc "clamp path keeps capacity and conservation" `Quick test_clamp_path
    ]
    @ List.map QCheck_alcotest.to_alcotest (qcheck_engine @ qcheck_lp) )
