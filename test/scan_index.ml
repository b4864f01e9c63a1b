(* The full-rescan twin of S3_sim.Flow_index.

   Every answer is computed by scanning the registered live tasks, the
   way the engine worked before it grew indexes: no buckets, no load
   memo (Phase I runs the eager Congestion.of_view scan), no dirty set
   (every clamp pass checks every entity), every unresolved task is a
   crash candidate, and the usage table is rebuilt from scratch for
   every clamp pass. Engine.Make (Scan_index) must replay Engine.run
   bit for bit; test_incremental.ml pins that. *)

open S3_sim.Flow_index.Live

type t = {
  nent : int;
  mutable tasks : task list;  (* unresolved, descending seq *)
  usage : float array;
}

let create topo =
  let nent = Array.length (S3_net.Topology.entities topo) in
  { nent; tasks = []; usage = Array.make nent 0. }

let tick _ ~now:_ = ()

(* Spawns arrive in increasing seq, so consing keeps the order. *)
let add_task t lt = t.tasks <- lt :: t.tasks
let add _ _ _ _ = ()
let remove _ _ = ()
let retire t lt = t.tasks <- List.filter (fun x -> x.seq <> lt.seq) t.tasks
let usage t e = t.usage.(e)

let set_rate t f r =
  if not (Float.equal r f.rate) then begin
    let d = r -. f.rate in
    f.rate <- r;
    Array.iter (fun e -> t.usage.(e) <- t.usage.(e) +. d) f.route
  end

let mark_dirty _ _ = ()

let clamp_scan t =
  Array.fill t.usage 0 t.nent 0.;
  List.iter
    (fun lt ->
      Array.iter
        (fun f ->
          if f.rate > 0. && f.remaining > 0. then
            Array.iter (fun e -> t.usage.(e) <- t.usage.(e) +. f.rate) f.route)
        lt.lflows)
    t.tasks;
  List.init t.nent Fun.id

let victims t e =
  List.concat_map
    (fun lt ->
      List.filter
        (fun f -> f.remaining > 0. && Array.exists (Int.equal e) f.route)
        (Array.to_list lt.lflows))
    (List.rev t.tasks)

let load _ = None
let crash_candidates t _ = t.tasks
