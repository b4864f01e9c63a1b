module Task = S3_workload.Task
module Topology = S3_net.Topology
module Rtf = S3_core.Rtf

module Live = struct
  type flow = {
    flow_id : int;
    source : int;
    route : int array;  (* capacity entities consumed; fixed at spawn *)
    start : float;  (* [remaining] at spawn: below the volume when resumed *)
    mutable remaining : float;
    mutable rate : float;
  }

  type task = {
    seq : int;  (* spawn sequence number *)
    task : Task.t;
    lflows : flow array;
    mutable resolved : bool;  (* flows gone: completed or abandoned *)
    mutable failed : bool;  (* deadline passed with volume outstanding *)
  }
end

open Live

module type S = sig
  type t

  val create : Topology.t -> t
  val tick : t -> now:float -> unit
  val add_task : t -> task -> unit
  val add : t -> task -> int -> flow -> unit
  val remove : t -> flow -> unit
  val retire : t -> task -> unit
  val usage : t -> int -> float
  val set_rate : t -> flow -> float -> unit
  val mark_dirty : t -> int -> unit
  val clamp_scan : t -> int list
  val victims : t -> int -> flow list
  val load : t -> (int -> float) option
  val crash_candidates : t -> int list -> task list
end

type t = {
  topo : Topology.t;
  mutable now : float;
  (* [usage.(e)] = sum of rates of live flows whose route crosses [e],
     kept exact through every rate change. *)
  usage : float array;
  (* [ent_flows.(e)] holds every live flow whose route crosses [e],
     keyed by flow id with its (task seq, slot) position, so anything
     per-entity — congestion loads, clamp victims, crash candidates —
     is read off the bucket instead of scanning all flows. A flow is
     bucketed from its spawn until it is killed, drained or abandoned. *)
  ent_flows : (int, int * int * task * flow) Hashtbl.t array;
  (* Unresolved tasks per destination server, keyed by seq. *)
  by_dest : (int, (int, task) Hashtbl.t) Hashtbl.t;
  (* Per-entity congestion load for Phase I: the sum of finite LRBs of
     the bucket's flows, folded in view order — (task seq, slot)
     ascending is exactly the order [Congestion.of_view] walks the
     flow list, so the lazy accessor and the eager scan accumulate the
     same floats in the same order and agree bit-for-bit.

     The fold is memoized per entity. [memo_sum.(e)] is the fold's
     value while [memo_epoch.(e) = epoch], and
     [(memo_seq.(e), memo_slot.(e))] is the largest key folded into it.
     [epoch] moves with the clock (every LRB moves with [now]); a
     bucket removal invalidates, and so does an insertion that does not
     sort after the cached key (a re-home into an older task's slot).
     An insertion that does sort last appends its term — the same
     float addition the fold would make last — so a same-instant spawn
     batch pays O(1) per probe instead of re-sorting the bucket. *)
  mutable epoch : int;
  memo_sum : float array;
  memo_seq : int array;
  memo_slot : int array;
  memo_epoch : int array;
  (* Dirty capacity entities: usage or availability may have moved since
     the last clamp pass. The invariant "not dirty => usage <= available
     + 1e-6" is restored by every clamp and preserved by marking on every
     rate change, fault change and foreground redraw. *)
  dirty : bool array;
  mutable dirty_list : int list;
}

let create topo =
  let nent = Array.length (Topology.entities topo) in
  { topo;
    now = 0.;
    usage = Array.make nent 0.;
    ent_flows = Array.init nent (fun _ -> Hashtbl.create 4);
    by_dest = Hashtbl.create 64;
    epoch = 0;
    memo_sum = Array.make nent 0.;
    memo_seq = Array.make nent (-1);
    memo_slot = Array.make nent (-1);
    memo_epoch = Array.make nent (-1);
    dirty = Array.make nent false;
    dirty_list = []
  }

let tick t ~now =
  t.now <- now;
  t.epoch <- t.epoch + 1

let flow_lrb t lt f = Rtf.lrb ~now:t.now ~deadline:lt.task.Task.deadline ~remaining:f.remaining
let counts lt f = (not lt.resolved) && f.remaining > 0.

(* The entity's bucket entries that satisfy [keep], in ascending
   (task seq, slot) order. *)
let bucket t e keep =
  Hashtbl.fold (fun _ ((_, _, lt, f) as x) acc -> if keep lt f then x :: acc else acc)
    t.ent_flows.(e) []
  |> List.sort (fun (sa, la, _, _) (sb, lb, _, _) ->
         match Int.compare sa sb with 0 -> Int.compare la lb | c -> c)

let entity_load t e =
  if t.memo_epoch.(e) = t.epoch then t.memo_sum.(e)
  else begin
    let sum, seq, slot =
      List.fold_left
        (fun (acc, _, _) (seq, slot, lt, f) ->
          let l = flow_lrb t lt f in
          ((if Float.is_finite l then acc +. l else acc), seq, slot))
        (0., -1, -1) (bucket t e counts)
    in
    t.memo_sum.(e) <- sum;
    t.memo_seq.(e) <- seq;
    t.memo_slot.(e) <- slot;
    t.memo_epoch.(e) <- t.epoch;
    sum
  end

let load t = Some (entity_load t)

let add t lt slot f =
  Array.iter
    (fun e ->
      Hashtbl.replace t.ent_flows.(e) f.flow_id (lt.seq, slot, lt, f);
      if t.memo_epoch.(e) = t.epoch then begin
        if lt.seq > t.memo_seq.(e) || (lt.seq = t.memo_seq.(e) && slot > t.memo_slot.(e))
        then begin
          t.memo_seq.(e) <- lt.seq;
          t.memo_slot.(e) <- slot;
          if counts lt f then begin
            let l = flow_lrb t lt f in
            if Float.is_finite l then t.memo_sum.(e) <- t.memo_sum.(e) +. l
          end
        end
        else t.memo_epoch.(e) <- -1
      end)
    f.route

let add_task t lt =
  Array.iteri (fun slot f -> add t lt slot f) lt.lflows;
  let dst = lt.task.Task.destination in
  let cell =
    match Hashtbl.find_opt t.by_dest dst with
    | Some cell -> cell
    | None ->
      let cell = Hashtbl.create 4 in
      Hashtbl.replace t.by_dest dst cell;
      cell
  in
  Hashtbl.replace cell lt.seq lt

let remove t f =
  Array.iter
    (fun e ->
      Hashtbl.remove t.ent_flows.(e) f.flow_id;
      t.memo_epoch.(e) <- -1)
    f.route

let retire t lt =
  match Hashtbl.find_opt t.by_dest lt.task.Task.destination with
  | Some cell -> Hashtbl.remove cell lt.seq
  | None -> ()

let usage t e = t.usage.(e)

let mark_dirty t e =
  if not t.dirty.(e) then begin
    t.dirty.(e) <- true;
    t.dirty_list <- e :: t.dirty_list
  end

let set_rate t f r =
  if not (Float.equal r f.rate) then begin
    let d = r -. f.rate in
    f.rate <- r;
    Array.iter
      (fun e ->
        t.usage.(e) <- t.usage.(e) +. d;
        mark_dirty t e)
      f.route
  end

(* Only dirty entities can be violated: clean ones kept their usage and
   availability since the last pass, which left them satisfied. *)
let clamp_scan t =
  let snapshot = List.sort_uniq Int.compare t.dirty_list in
  t.dirty_list <- [];
  List.iter (fun e -> t.dirty.(e) <- false) snapshot;
  snapshot

let victims t e = List.map (fun (_, _, _, f) -> f) (bucket t e (fun lt _ -> not lt.resolved))

(* A task loses its destination or a live source only through the
   destination index or the bucket of a dead server's NIC entity (every
   flow's route crosses its source NIC; the source = destination corner
   is covered by the destination index). *)
let crash_candidates t servers =
  let seen = Hashtbl.create 16 in
  let candidates = ref [] in
  let consider lt =
    if (not lt.resolved) && not (Hashtbl.mem seen lt.seq) then begin
      Hashtbl.replace seen lt.seq ();
      candidates := lt :: !candidates
    end
  in
  List.iter
    (fun s ->
      (match Hashtbl.find_opt t.by_dest s with
       | Some cell -> Hashtbl.iter (fun _ lt -> consider lt) cell
       | None -> ());
      let nic = Topology.server_entity t.topo s in
      Hashtbl.iter (fun _ (_, _, lt, _) -> consider lt) t.ent_flows.(nic))
    servers;
  List.sort (fun a b -> Int.compare b.seq a.seq) !candidates
