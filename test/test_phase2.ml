(* Phase II equivalence: Lpst's flat admission against the list-based
   oracle (phase2_oracle.ml).

   A stream is a run of views over one random task set: the clock
   advances, volumes drain, tasks leave the view and come back, the
   availability is redrawn with foreground cuts deep enough to evict
   held tasks, and deadlines pass while their tasks are still shown
   (an infinite LRB). Views are built from bare flow lists whose flows
   interleave tasks. One persistent [Lpst.lpst] instance and one oracle
   see every view of a stream in turn, for every admission order,
   stickiness and bandwidth mode; the admitted task ids, in order, and
   the flows handed to Phase III must match at every event, and so must
   the Phase III rates. A second property replays random engine
   scenarios (faults, foreground, engine-grouped views) with both
   Phase IIs checked at every allocate call. *)

module T = S3_net.Topology
module Task = S3_workload.Task
module Problem = S3_core.Problem
module Rtf = S3_core.Rtf
module Lpst = S3_core.Lpst
module Sequencing = S3_core.Sequencing
module Algorithm = S3_core.Algorithm
module Engine = S3_sim.Engine
module Prng = S3_util.Prng

let tc = Alcotest.test_case

(* ---- stream generator ---- *)

let random_topo g =
  let cst = 100. +. Prng.float g 400. and cta = 200. +. Prng.float g 800. in
  if Prng.bool g then
    T.two_tier ~racks:(2 + Prng.int g 2) ~servers_per_rack:(3 + Prng.int g 3) ~cst ~cta
  else
    T.leaf_spine ~leaves:(2 + Prng.int g 2) ~spines:(1 + Prng.int g 2)
      ~servers_per_leaf:(3 + Prng.int g 3) ~cst ~cta

let random_task g topo id =
  let ns = T.servers topo in
  let destination = Prng.int g ns in
  let others = List.filter (fun s -> s <> destination) (List.init ns Fun.id) in
  let sources = Array.of_list (Prng.sample g (1 + Prng.int g 4) others) in
  let k = 1 + Prng.int g (Array.length sources) in
  (* Coarse arrivals, deadlines and volumes make ranking ties common,
     so the task-id tie-break decides real admissions. *)
  let arrival = float_of_int (Prng.int g 4) in
  Task.v ~id ~arrival
    ~deadline:(arrival +. float_of_int (2 + Prng.int g 16))
    ~volume:(250. *. float_of_int (1 + Prng.int g 8))
    ~k ~sources ~destination ()

(* Availability for one event: most entities at capacity, some cut by
   foreground traffic, a few cut to nothing. *)
let random_available g topo =
  let cap = Array.map (fun (e : T.entity) -> e.T.capacity) (T.entities topo) in
  let avail =
    Array.map
      (fun c ->
        match Prng.int g 10 with
        | 0 -> 0.
        | 1 | 2 | 3 -> c *. Prng.float g 1.
        | _ -> c)
      cap
  in
  fun e -> avail.(e)

(* The views of one stream, in event order. *)
let stream seed =
  let g = Prng.create seed in
  let topo = random_topo g in
  (* Ids are spread out and not in arrival order, so the id tie-break
     and the first-appearance grouping both matter. *)
  let tasks = Array.init (2 + Prng.int g 24) (fun i -> random_task g topo ((i * 7919) mod 1009)) in
  let remaining =
    Array.map (fun (t : Task.t) -> Array.make t.Task.k t.Task.volume) tasks
  in
  let now = ref (Prng.float g 2.) in
  List.init
    (3 + Prng.int g 10)
    (fun _ ->
      now := !now +. Prng.float g 3.;
      (* Drain some volume; a drained flow leaves the view. *)
      Array.iter
        (fun rem ->
          Array.iteri
            (fun j r ->
              if Prng.int g 3 = 0 then rem.(j) <- (if Prng.int g 6 = 0 then 0. else r *. Prng.float g 1.))
            rem)
        remaining;
      let flows =
        Array.to_list tasks
        |> List.mapi (fun i (t : Task.t) ->
               if Prng.int g 8 = 0 then []
               else
                 List.filter_map
                   (fun j ->
                     let r = remaining.(i).(j) in
                     if r > 0. then
                       Some
                         (Problem.make_flow topo ~flow_id:((t.Task.id * 10) + j) ~task:t
                            ~source:t.Task.sources.(j) ~remaining:r)
                     else None)
                   (List.init t.Task.k Fun.id))
        |> List.concat |> Array.of_list
      in
      if Prng.bool g then Prng.shuffle g flows;
      Problem.of_flows ~now:!now ~topo ~available:(random_available g topo)
        (Array.to_list flows))

(* ---- comparison ---- *)

let task_of_flow (v : Problem.view) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (f : Problem.flow) -> Hashtbl.replace tbl f.Problem.flow_id f.Problem.task.Task.id)
    (Lazy.force v.Problem.flows);
  fun fid -> Option.value ~default:(-1) (Hashtbl.find_opt tbl fid)

(* Task ids in the order their flows appear (each task's flows are
   contiguous in a Phase II answer). *)
let task_order task_of fids =
  List.fold_left
    (fun acc fid ->
      let t = task_of fid in
      match acc with
      | t' :: _ when t' = t -> acc
      | _ -> t :: acc)
    [] fids
  |> List.rev

let same_rates a b =
  List.length a = List.length b
  && List.for_all2 (fun (fa, ra) (fb, rb) -> fa = fb && Float.equal ra rb) a b

let ids pairs = List.map (fun ((t : Task.t), _) -> t.Task.id) pairs
let flow_ids flows = List.map (fun (f : Problem.flow) -> f.Problem.flow_id) flows

let show_ints l = String.concat "," (List.map string_of_int l)

let knobs =
  List.concat_map
    (fun admission -> List.map (fun sticky -> (admission, sticky)) [ true; false ])
    [ Lpst.Rtf_order; Lpst.Arrival_order ]

let knob_name (admission, sticky) =
  Printf.sprintf "%s%s"
    (match admission with Lpst.Rtf_order -> "rtf" | Lpst.Arrival_order -> "arrival")
    (if sticky then "" else ",~sticky:false")

(* One stream through one persistent instance per knob setting and
   bandwidth mode, against the oracle. *)
let check_stream seed =
  let views = stream seed in
  List.iter
    (fun ((admission, sticky) as knob) ->
      let flat_lrb = (Lpst.lpst ~admission ~sticky ~bandwidth:Lpst.Lrb_only ()).Algorithm.allocate in
      let flat_lp = (Lpst.lpst ~admission ~sticky ()).Algorithm.allocate in
      let oracle = Phase2_oracle.create ~admission ~sticky () in
      let oracle_lp = (Phase2_oracle.lpst ~admission ~sticky ()).Algorithm.allocate in
      List.iteri
        (fun ev v ->
          let want = Phase2_oracle.step oracle v in
          let want_flows = List.concat_map snd want in
          let got = flat_lrb v in
          let got_fids = List.map fst got in
          if got_fids <> flow_ids want_flows then
            QCheck.Test.fail_reportf "seed %d %s event %d: Phase III flows [%s], oracle [%s]" seed
              (knob_name knob) ev (show_ints got_fids) (show_ints (flow_ids want_flows));
          let got_tasks = task_order (task_of_flow v) got_fids in
          if got_tasks <> ids want then
            QCheck.Test.fail_reportf "seed %d %s event %d: admitted [%s], oracle [%s]" seed
              (knob_name knob) ev (show_ints got_tasks) (show_ints (ids want));
          let floors = List.map (fun f -> (f.Problem.flow_id, Rtf.flow_lrb v f)) want_flows in
          if not (same_rates got floors) then
            QCheck.Test.fail_reportf "seed %d %s event %d: LRB floors differ" seed (knob_name knob) ev;
          if not (same_rates (flat_lp v) (oracle_lp v)) then
            QCheck.Test.fail_reportf "seed %d %s event %d: Phase III rates differ" seed
              (knob_name knob) ev)
        views)
    knobs;
  (* Phase II alone, on a fresh state per view. *)
  List.iter
    (fun v ->
      List.iter
        (fun admission ->
          if ids (Lpst.admit ~admission v) <> ids (Phase2_oracle.admit ~admission v) then
            QCheck.Test.fail_reportf "seed %d: Lpst.admit differs from the oracle" seed)
        [ Lpst.Rtf_order; Lpst.Arrival_order ])
    views;
  true

(* The streams reach every corner the suite claims to cover. *)
let test_stream_coverage () =
  let evictions = ref 0 and expired = ref 0 and interleaved = ref 0 in
  for seed = 1 to 150 do
    let views = stream seed in
    let o = Phase2_oracle.create () in
    List.iter
      (fun v ->
        let held =
          List.filter (fun ((t : Task.t), _) -> Hashtbl.mem o.Phase2_oracle.admitted t.Task.id)
            (Problem.by_task v)
        in
        let admitted = ids (Phase2_oracle.step o v) in
        if List.exists (fun ((t : Task.t), _) -> not (List.mem t.Task.id admitted)) held then
          incr evictions;
        if
          List.exists
            (fun ((t : Task.t), _) -> t.Task.deadline <= v.Problem.now)
            (Problem.by_task v)
        then incr expired;
        let order = List.map (fun (f : Problem.flow) -> f.Problem.task.Task.id) (Lazy.force v.Problem.flows) in
        if List.length (task_order Fun.id order) > List.length (Problem.by_task v) then
          incr interleaved)
      views
  done;
  Alcotest.(check bool) (Printf.sprintf "held tasks evicted (%d events)" !evictions) true (!evictions > 0);
  Alcotest.(check bool) (Printf.sprintf "expired tasks in view (%d)" !expired) true (!expired > 0);
  Alcotest.(check bool) (Printf.sprintf "interleaved views (%d)" !interleaved) true (!interleaved > 0)

(* Engine-built views: group straight from the task records, so check
   the grouping against the Hashtbl regrouping of the flat list as well
   as both Phase IIs, at every allocate call of a random scenario. *)
let check_engine seed =
  let topo, tasks, faults, fg = Test_incremental.scenario seed in
  let flat = Lpst.lpst () and oracle = Phase2_oracle.lpst () in
  let allocate v =
    let groups = Problem.by_task v in
    let regrouped = Phase2_oracle.by_task v in
    let shape gs = List.map (fun ((t : Task.t), fl) -> (t.Task.id, flow_ids fl)) gs in
    if shape groups <> shape regrouped then
      QCheck.Test.fail_reportf "seed %d t=%g: engine grouping differs from regrouping" seed
        v.Problem.now;
    let got = flat.Algorithm.allocate v in
    if not (same_rates got (oracle.Algorithm.allocate v)) then
      QCheck.Test.fail_reportf "seed %d t=%g: rates differ from the oracle" seed v.Problem.now;
    got
  in
  ignore
    (Engine.run ~config:(Test_incremental.engine_config fg) ~faults topo
       { flat with Algorithm.allocate }
       tasks);
  true

(* ---- the float-typed helpers against Stdlib's polymorphic ones ---- *)

let special = [| 0.; -0.; nan; infinity; neg_infinity; 1.; 250.; 1e-300 |]

let test_float_helpers () =
  let g = Prng.create 17 in
  let topo = T.two_tier ~racks:3 ~servers_per_rack:3 ~cst:1000. ~cta:3000. in
  let nent = Array.length (T.entities topo) in
  let bits x = Int64.bits_of_float x in
  for _ = 1 to 300 do
    let avail = Array.init nent (fun _ -> special.(Prng.int g (Array.length special))) in
    let tasks = List.init 6 (fun id -> random_task g topo id) in
    let flows =
      List.concat_map
        (fun (t : Task.t) ->
          List.init t.Task.k (fun j ->
              Problem.make_flow topo ~flow_id:((t.Task.id * 10) + j) ~task:t
                ~source:t.Task.sources.(j)
                ~remaining:special.(Prng.int g (Array.length special))))
        tasks
      |> List.filter (fun (f : Problem.flow) -> not (f.Problem.remaining < 0.))
    in
    let now = special.(Prng.int g (Array.length special)) in
    let v = Problem.of_flows ~now ~topo ~available:(fun e -> avail.(e)) flows in
    List.iter
      (fun (f : Problem.flow) ->
        let src = f.Problem.source and dst = f.Problem.task.Task.destination in
        if bits (Problem.path_available v ~src ~dst) <> bits (Phase2_oracle.path_available v f)
        then Alcotest.fail "path_available differs from the polymorphic min";
        if bits (Rtf.flow_rtf v f) <> bits (Phase2_oracle.flow_rtf v f) then
          Alcotest.fail "flow_rtf differs from the polymorphic max/min")
      flows;
    let groups = Problem.by_task v in
    List.iter
      (fun (_, fl) ->
        if bits (Rtf.task_rtf v fl) <> bits (Phase2_oracle.task_rtf v fl) then
          Alcotest.fail "task_rtf differs from the polymorphic min")
      groups;
    List.iter
      (fun admission ->
        if ids (Lpst.admit ~admission v) <> ids (Phase2_oracle.admit ~admission v) then
          Alcotest.fail "Lpst.admit differs from the oracle on special values")
      [ Lpst.Rtf_order; Lpst.Arrival_order ];
    let key _ ((t : Task.t), _) = special.(t.Task.id mod Array.length special) in
    if ids (Sequencing.sort_pairs v ~key groups) <> ids (Phase2_oracle.sort_pairs v ~key groups)
    then Alcotest.fail "sort_pairs differs from the polymorphic compare"
  done

(* A task fits when its LRB exceeds the residual by at most 1e-9. *)
let test_fit_tolerance () =
  let topo = T.two_tier ~racks:3 ~servers_per_rack:3 ~cst:1000. ~cta:3000. in
  let t = Task.v ~id:1 ~arrival:0. ~deadline:10. ~volume:1000. ~k:1 ~sources:[| 1 |] ~destination:0 () in
  let f = Problem.make_flow topo ~flow_id:10 ~task:t ~source:1 ~remaining:1000. in
  let admitted slack =
    let v = Problem.of_flows ~now:0. ~topo ~available:(fun _ -> 100. -. slack) [ f ] in
    let got = ids (Lpst.admit v) in
    Alcotest.(check (list int)) "oracle agrees" (ids (Phase2_oracle.admit v)) got;
    got <> []
  in
  Alcotest.(check bool) "short by 1e-10: admitted" true (admitted 1e-10);
  Alcotest.(check bool) "short by 1e-6: waits" false (admitted 1e-6)

let tests =
  let open QCheck in
  let seed = make ~print:string_of_int Gen.(int_bound 1_000_000) in
  ( "phase2",
    [ tc "streams cover eviction, expiry, interleaving" `Quick test_stream_coverage;
      tc "float-typed helpers == polymorphic ones" `Quick test_float_helpers;
      tc "fit tolerance is 1e-9" `Quick test_fit_tolerance
    ]
    @ List.map QCheck_alcotest.to_alcotest
        [ Test.make ~name:"flat Phase II == list oracle over event streams" ~count:150 seed
            check_stream;
          Test.make ~name:"flat Phase II == list oracle inside the engine" ~count:60 seed
            check_engine
        ] )
