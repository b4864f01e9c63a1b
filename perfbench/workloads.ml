(* The three benchmark workloads: seeded input generation and one timed
   replay each. Every replay is a batch run of a fixed input on one
   domain, as fast as the host allows; the library receives only the
   generated inputs. *)

module Task = S3_workload.Task
module Topology = S3_net.Topology
module Algorithm = S3_core.Algorithm
module Metrics = S3_sim.Metrics
module Engine = S3_sim.Engine
module Fault = S3_fault.Fault
module Pipeline = S3_storage.Pipeline
module Cluster = S3_storage.Cluster
module Prng = S3_util.Prng

let names = [ "burst-10k"; "waves-4k"; "repair-storm" ]

(* ---------------------------------------------------------------- *)
(* Inputs                                                             *)

type storm = {
  objects : (int * int * bytes) array;  (** (n, k, payload) in write order *)
  faults : Fault.t;
  placement_seed : int;
  destination_seed : int;
}

type inputs = { topo : Topology.t; tasks : Task.t list; storm : storm option }

(* 52 leaves x 20 servers = 1040 servers, the fabric of the Fig. 5
   scale study. Tasks are leaf-local (routes [src NIC; leaf; dst NIC])
   so the planning LP splits into one block per leaf. *)
let leaves = 52
let per_leaf = 20

let fabric () =
  Topology.leaf_spine ~leaves ~spines:4 ~servers_per_leaf:per_leaf ~cst:1000. ~cta:20000.

(* [leaf_of i] is the seeded leaf of task [i]; inside a leaf the n-th
   task takes the n-th round-robin slot. Servers keep their order
   inside a leaf: the planner breaks ties toward lower server ids, and
   the symmetric flows of a leaf finish in one batch only under that
   order. *)
let leaf_local_tasks ~leaf_of ~m ~volume ~deadline ~arrival =
  let used = Array.make leaves 0 in
  List.init m (fun i ->
      let leaf = leaf_of i in
      let slot = used.(leaf) in
      used.(leaf) <- slot + 1;
      let server j = (leaf * per_leaf) + ((slot + j) mod per_leaf) in
      Task.v ~id:i ~arrival:(arrival i) ~deadline ~volume ~k:4
        ~sources:(Array.init 6 (fun j -> server (j + 1)))
        ~destination:(server 0) ())

(* burst-10k: every task arrives at t = 0 with a 12 s deadline — the
   Fig. 5 worst case, one spawn batch of 10,000 Phase-I selections.
   Each task's leaf is drawn uniformly, so the per-leaf task counts
   (the LP block sizes) change with the seed. *)
let burst seed =
  let g = Prng.create seed in
  { topo = fabric ();
    tasks =
      leaf_local_tasks
        ~leaf_of:(fun _ -> Prng.int g leaves)
        ~m:10_000 ~volume:1000. ~deadline:12. ~arrival:(fun _ -> 0.);
    storm = None
  }

(* waves-4k: 4,000 small tasks in 20 one-second waves against one
   absolute deadline; thousands of per-event replans while the fabric
   stays busy. The last wave lands at most 0.5 s before the deadline,
   less than one chunk fetch needs, so admission control turns it away and the
   remaining volume is never zero. Tasks are dealt round-robin over
   the leaves. Wave w arrives at a seeded time in [w, w + 0.25), so how
   far each wave overlaps the previous one's tail changes with the
   seed. *)
let waves seed =
  let g = Prng.create seed in
  let m = 4_000 in
  let wave = m / 20 in
  let starts = Array.init (m / wave) (fun w -> float_of_int w +. Prng.uniform g 0. 0.25) in
  { topo = fabric ();
    tasks =
      leaf_local_tasks
        ~leaf_of:(fun i -> i mod leaves)
        ~m ~volume:200. ~deadline:19.5 ~arrival:(fun i -> starts.(i / wave));
    storm = None
  }

(* repair-storm: the paper's two-tier cluster (4 racks x 10 servers,
   500/1500 Mb/s). *)
let storm_objects = 32
let storm_background = 2_400
let storm_crash_at = float_of_int storm_background /. 2.
let repair_first_id = 1_000_000

let random_bytes g len =
  let b = Bytes.create len in
  for i = 0 to (len / 8) - 1 do
    Bytes.set_int64_le b (8 * i) (Prng.bits64 g)
  done;
  b

let storm seed =
  let g = Prng.create seed in
  let topo = Topology.two_tier ~racks:4 ~servers_per_rack:10 ~cst:500. ~cta:1500. in
  (* About 2 MB each, alternating (9,6) and (12,8): the (12,8) shards
     sit past the codec's working-set cliff. *)
  let objects =
    Array.init storm_objects (fun i ->
        let n, k = if i mod 2 = 0 then (9, 6) else (12, 8) in
        let len = 8 * ((1_750_000 + Prng.int g 500_000) / 8) in
        (n, k, random_bytes g len))
  in
  let background =
    S3_workload.Generator.generate (Prng.split g) topo
      { S3_workload.Generator.baseline with
        num_tasks = storm_background;
        arrival_rate = 1.;
        deadline_jitter = 0.5
      }
  in
  (* Rack 0 dies mid-run and its servers come back empty 30 s later.
     Three NICs outside it stall for a few seconds (factor 0), which
     arms the retry timers. *)
  let stalls =
    List.init 3 (fun _ ->
        let server = 10 + Prng.int g 30 in
        { Fault.time = Prng.uniform g 0. storm_crash_at;
          kind =
            Fault.Link_degrade
              { entity = Topology.server_entity topo server; factor = 0.; duration = 4. }
        })
  in
  let recoveries =
    List.map
      (fun server -> { Fault.time = storm_crash_at +. 30.; kind = Fault.Server_recover server })
      (Topology.servers_in_rack topo 0)
  in
  let faults =
    Fault.plan (({ Fault.time = storm_crash_at; kind = Fault.Rack_outage 0 } :: stalls) @ recoveries)
  in
  { topo;
    tasks = background;
    storm =
      Some
        { objects;
          faults;
          placement_seed = Prng.int g 1_000_000;
          destination_seed = Prng.int g 1_000_000
        }
  }

let setup name seed =
  match name with
  | "burst-10k" -> burst seed
  | "waves-4k" -> waves seed
  | "repair-storm" -> storm seed
  | _ -> invalid_arg ("unknown workload " ^ name)

(* ---------------------------------------------------------------- *)
(* Replays                                                            *)

type result = {
  wall_s : float;  (** host seconds of the timed part *)
  run : Metrics.run;
  submitted : Task.t list;  (** every task the engine received, repairs included *)
  event_ms : float array;  (** host ms between consecutive [on_event] callbacks *)
  ingest_bytes : int;
  ingest_s : float;
  rebuild_bytes : int;
  rebuild_s : float;
  rebuilds : int;  (** chunk rebuilds attempted *)
  rebuild_failed : int;  (** rebuilds that raised or left a file failing verification *)
}

let now = Unix.gettimeofday

(* Growable float buffer for the one clock read per scheduling event. *)
type clock_log = { mutable ts : float array; mutable len : int }

let log_create () = { ts = Array.make 4096 0.; len = 0 }

let log_push l t =
  if l.len = Array.length l.ts then begin
    let b = Array.make (2 * l.len) 0. in
    Array.blit l.ts 0 b 0 l.len;
    l.ts <- b
  end;
  l.ts.(l.len) <- t;
  l.len <- l.len + 1

let gaps_ms ~start l =
  Array.init l.len (fun i -> 1000. *. (l.ts.(i) -. if i = 0 then start else l.ts.(i - 1)))

(* Span names of the traced run. *)
let n_select = "core.select_sources"
let n_allocate = "core.allocate"
let n_reselect = "core.reselect"
let n_event = "sim.engine.event"
let n_write = "storage.write_file"
let n_repair = "storage.repair"
let n_fail = "storage.fail_server"
let n_hook = "bench.on_failure"

let traced_algorithm sp (a : Algorithm.t) =
  let select = Span.intern sp n_select
  and allocate = Span.intern sp n_allocate
  and reselect = Span.intern sp n_reselect in
  { a with
    select_sources = (fun v t -> Span.with_span sp select (fun () -> a.select_sources v t));
    allocate = (fun v -> Span.with_span sp allocate (fun () -> a.allocate v));
    reselect =
      Option.map
        (fun r v t ~eligible ~need ~remaining ->
          Span.with_span sp reselect (fun () -> r v t ~eligible ~need ~remaining))
        a.reselect
  }

(* [span name f] runs [f] inside a span when tracing, bare otherwise. *)
type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }

let spanner = function
  | None -> { span = (fun _ f -> f ()) }
  | Some sp -> { span = (fun name f -> Span.with_span sp (Span.intern sp name) f) }

(* Run the engine. Untraced, the only instrumentation is one clock read
   per [on_event]; traced, event spans tile the whole call. *)
let engine ?trace ?faults ?detector ?retry ?watchdog ?on_failure topo tasks =
  let alg = S3_core.Registry.make "lpst" in
  match trace with
  | None ->
    let log = log_create () in
    let on_event _ _ _ = log_push log (now ()) in
    let start = now () in
    let run =
      Engine.run ~on_event ?faults ?detector ?retry ?watchdog ?on_failure topo alg tasks
    in
    (run, gaps_ms ~start log)
  | Some sp ->
    let ev = Span.intern sp n_event in
    let on_event _ _ _ = Span.rotate sp ev in
    let run =
      Span.with_span sp ev (fun () ->
          Engine.run ~on_event ?faults ?detector ?retry ?watchdog ?on_failure topo
            (traced_algorithm sp alg) tasks)
    in
    (run, [||])

let fabric_replay ?trace inputs =
  let t0 = now () in
  let run, event_ms = engine ?trace inputs.topo inputs.tasks in
  { wall_s = now () -. t0;
    run;
    submitted = inputs.tasks;
    event_ms;
    ingest_bytes = 0;
    ingest_s = 0.;
    rebuild_bytes = 0;
    rebuild_s = 0.;
    rebuilds = 0;
    rebuild_failed = 0
  }

(* The [on_failure] hook: fail the server in the storage pipeline and
   emit one repair task per recoverable lost chunk. Each repair of a
   file gets its own destination: alive, outside the failing rack,
   holding no shard of the file and not the target of another pending
   repair of it. *)
let repair_hook { span } pipeline topo g ~repairs ~submitted =
  let cluster = Pipeline.cluster pipeline in
  let cst = (Topology.entity topo (Topology.server_entity topo 0)).Topology.capacity in
  let taken = Hashtbl.create 64 in
  let next_id = ref repair_first_id in
  fun ~now ~server ->
    span n_hook (fun () ->
        let lost = span n_fail (fun () -> Pipeline.fail_server pipeline server) in
        let rack = Topology.rack_of topo server in
        let tasks =
          List.filter_map
            (fun (fid, chunk) ->
              let f = Cluster.file cluster fid in
              let survivors = Cluster.survivors cluster fid in
              let holds s = Array.exists (( = ) s) f.Cluster.locations in
              let used = Hashtbl.find_all taken fid in
              let dests =
                List.filter
                  (fun s ->
                    Topology.rack_of topo s <> rack && (not (holds s)) && not (List.mem s used))
                  (Cluster.alive_servers cluster)
              in
              if List.length survivors < f.Cluster.k || dests = [] then None
              else begin
                let destination = List.nth dests (Prng.int g (List.length dests)) in
                Hashtbl.add taken fid destination;
                let id = !next_id in
                incr next_id;
                Hashtbl.replace repairs id (fid, chunk);
                let volume = f.Cluster.chunk_volume in
                let lrt = float_of_int f.Cluster.k *. volume /. cst in
                Some
                  (Task.v ~id ~kind:Task.Repair ~arrival:now
                     ~deadline:(now +. (10. *. lrt))
                     ~volume ~k:f.Cluster.k
                     ~sources:(Array.of_list (List.map snd survivors))
                     ~destination ())
              end)
            lost
        in
        submitted := List.rev_append tasks !submitted;
        tasks)

let storm_replay ?trace inputs (s : storm) =
  let sp = spanner trace in
  let span = sp.span in
  let t0 = now () in
  (* 1. Ingest. *)
  let pipeline = Pipeline.create (Cluster.create inputs.topo) in
  let placement = Prng.create s.placement_seed in
  let ingest_bytes = ref 0 in
  Array.iter
    (fun (n, k, data) ->
      ignore (span n_write (fun () -> Pipeline.write_file pipeline placement ~n ~k data));
      ingest_bytes := !ingest_bytes + Bytes.length data)
    s.objects;
  let t1 = now () in
  (* 2. Background stream, rack-0 crash and repair traffic. *)
  let repairs = Hashtbl.create 256 and submitted = ref [] in
  let on_failure =
    repair_hook sp pipeline inputs.topo (Prng.create s.destination_seed) ~repairs ~submitted
  in
  let run, event_ms =
    engine ?trace ~faults:s.faults ~detector:S3_fault.Detector.default
      ~retry:S3_sim.Retry.default ~watchdog:S3_sim.Watchdog.default ~on_failure inputs.topo
      inputs.tasks
  in
  let t2 = now () in
  (* 3. Rebuild every on-time repair from the sources the scheduler chose. *)
  let attempts = ref 0 and raised = ref 0 and rebuilt = ref [] and rebuild_bytes = ref 0 in
  List.iter
    (fun (o : Metrics.outcome) ->
      match Hashtbl.find_opt repairs o.task.Task.id with
      | Some (file, chunk) when o.completed -> (
        incr attempts;
        match
          span n_repair (fun () ->
              Pipeline.repair pipeline ~file ~chunk ~sources:(Array.to_list o.sources)
                ~destination:o.task.Task.destination)
        with
        | () ->
          let info = Pipeline.file_info pipeline file in
          rebuilt := file :: !rebuilt;
          rebuild_bytes :=
            !rebuild_bytes
            + S3_storage.Reed_solomon.shard_length info.Pipeline.code
                ~data_length:info.Pipeline.length
        | exception (Invalid_argument _ | Failure _) -> incr raised)
      | _ -> ())
    run.Metrics.outcomes;
  let t3 = now () in
  (* Untimed: a rebuild also fails when its file no longer verifies. *)
  let bad =
    List.filter
      (fun f -> not (Pipeline.verify_file pipeline f))
      (List.sort_uniq compare !rebuilt)
  in
  { wall_s = t3 -. t0;
    run;
    submitted = List.rev_append !submitted inputs.tasks;
    event_ms;
    ingest_bytes = !ingest_bytes;
    ingest_s = t1 -. t0;
    rebuild_bytes = !rebuild_bytes;
    rebuild_s = t3 -. t2;
    rebuilds = !attempts;
    rebuild_failed = !raised + List.length (List.filter (fun f -> List.mem f bad) !rebuilt)
  }

let replay ?trace inputs =
  match inputs.storm with
  | None -> fabric_replay ?trace inputs
  | Some s -> storm_replay ?trace inputs s
