(* The list-based LPST Phase II, kept as the oracle for Lpst's flat one.

   This is how Phase II ran before it moved onto arrays reused across
   events: regroup the view per task, keep sticky membership in a
   Hashtbl pruned of stale ids, partition held tasks from waiting
   candidates, rank each list through a boxed-key List.sort, and admit
   greedily through List.map'd LRBs. The RTF ranking goes through
   Stdlib's polymorphic min/max/compare, as Problem.path_available,
   Rtf.flow_rtf/task_rtf and Sequencing.sort_pairs did before they
   became float-typed, so the suite pins that rewrite too.
   test_phase2.ml requires Lpst to match it decision for decision. *)

module Task = S3_workload.Task
module Problem = S3_core.Problem
module Rtf = S3_core.Rtf
module Lpst = S3_core.Lpst
module Algorithm = S3_core.Algorithm
module Allocation = S3_core.Allocation

(* Routes come from the topology's cache, not from the flow record, so
   the comparison also pins the route every flow carries. *)
let route (v : Problem.view) (f : Problem.flow) =
  S3_net.Topology.route_array v.Problem.topo ~src:f.Problem.source
    ~dst:f.Problem.task.Task.destination

let path_available (v : Problem.view) (f : Problem.flow) =
  let ids = route v f in
  if Array.length ids = 0 then infinity
  else Array.fold_left (fun acc id -> min acc (v.Problem.available id)) infinity ids

let flow_rtf (v : Problem.view) (f : Problem.flow) =
  let cap = path_available v f in
  let start = max v.Problem.now f.Problem.task.Task.arrival in
  if cap <= 0. then neg_infinity
  else f.Problem.task.Task.deadline -. start -. (f.Problem.remaining /. cap)

let task_rtf v flows = List.fold_left (fun acc f -> min acc (flow_rtf v f)) infinity flows

let sort_pairs v ~key pairs =
  let scored = List.map (fun tf -> (key v tf, tf)) pairs in
  List.sort
    (fun (ka, ((ta : Task.t), _)) (kb, ((tb : Task.t), _)) ->
      match compare ka kb with
      | 0 -> compare ta.Task.id tb.Task.id
      | c -> c)
    scored
  |> List.map snd

let admission_key admission =
  match admission with
  | Lpst.Rtf_order -> fun v (_, flows) -> task_rtf v flows
  | Lpst.Arrival_order -> fun _ ((t : Task.t), _) -> t.Task.arrival

let make_residual (v : Problem.view) =
  let nent = Array.length (S3_net.Topology.entities v.Problem.topo) in
  Array.init nent (fun e -> v.Problem.available e)

(* Greedy admission over a candidate list, consuming [residual]
   capacity in place. Returns the tasks that fit. *)
let admit_into (v : Problem.view) residual candidates =
  let nent = Array.length residual in
  let demand = Array.make nent 0. in
  let seen = Array.make nent false in
  List.filter
    (fun (_, flows) ->
      let lrbs = List.map (fun f -> (f, Rtf.flow_lrb v f)) flows in
      if List.exists (fun (_, l) -> not (Float.is_finite l)) lrbs then false
      else begin
        let touched = ref [] in
        List.iter
          (fun (f, l) ->
            Array.iter
              (fun e ->
                if not seen.(e) then begin
                  seen.(e) <- true;
                  touched := e :: !touched
                end;
                demand.(e) <- demand.(e) +. l)
              (route v f))
          lrbs;
        let fits = List.for_all (fun e -> demand.(e) <= residual.(e) +. 1e-9) !touched in
        if fits then List.iter (fun e -> residual.(e) <- residual.(e) -. demand.(e)) !touched;
        List.iter
          (fun e ->
            demand.(e) <- 0.;
            seen.(e) <- false)
          !touched;
        fits
      end)
    candidates

(* The view's flows regrouped through a per-flow Hashtbl. *)
let by_task (v : Problem.view) =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (f : Problem.flow) ->
      let id = f.Problem.task.Task.id in
      match Hashtbl.find_opt tbl id with
      | None ->
        let cell = ref [ f ] in
        order := (f.Problem.task, cell) :: !order;
        Hashtbl.replace tbl id cell
      | Some cell -> cell := f :: !cell)
    (Lazy.force v.Problem.flows);
  List.rev_map (fun (t, cell) -> (t, List.rev !cell)) !order

let admit ?(admission = Lpst.Rtf_order) v =
  admit_into v (make_residual v) (sort_pairs v ~key:(admission_key admission) (by_task v))

type t = {
  admission : Lpst.admission;
  sticky : bool;
  admitted : (int, unit) Hashtbl.t;
}

let create ?(admission = Lpst.Rtf_order) ?(sticky = true) () =
  { admission; sticky; admitted = Hashtbl.create 256 }

(* One event's Phase II: the admitted tasks, held survivors first, in
   admission order. *)
let step o v =
  let key = admission_key o.admission in
  if not o.sticky then Hashtbl.reset o.admitted;
  let tasks = by_task v in
  let active = Hashtbl.create 64 in
  List.iter (fun ((t : Task.t), _) -> Hashtbl.replace active t.Task.id ()) tasks;
  let stale =
    Hashtbl.fold (fun id () acc -> if Hashtbl.mem active id then acc else id :: acc) o.admitted []
    |> List.sort Int.compare
  in
  List.iter (Hashtbl.remove o.admitted) stale;
  let held, candidates =
    List.partition (fun ((t : Task.t), _) -> Hashtbl.mem o.admitted t.Task.id) tasks
  in
  let residual = make_residual v in
  let kept = admit_into v residual (sort_pairs v ~key held) in
  let kept_ids = Hashtbl.create 64 in
  List.iter (fun ((k : Task.t), _) -> Hashtbl.replace kept_ids k.Task.id ()) kept;
  List.iter
    (fun ((t : Task.t), _) ->
      if not (Hashtbl.mem kept_ids t.Task.id) then Hashtbl.remove o.admitted t.Task.id)
    held;
  let fresh = admit_into v residual (sort_pairs v ~key candidates) in
  List.iter (fun ((t : Task.t), _) -> Hashtbl.replace o.admitted t.Task.id ()) fresh;
  kept @ fresh

(* The oracle Phase II in front of LPST's Phase III, for whole-engine
   comparisons: the same answer as [Lpst.lpst] with the same knobs. *)
let lpst ?admission ?(bandwidth = Lpst.Lp_max) ?sticky () =
  let o = create ?admission ?sticky () in
  let lp_state = S3_lp.Lp.create_state () in
  let allocate v =
    match List.concat_map snd (step o v) with
    | [] -> []
    | flows -> (
      let lrb f = Rtf.flow_lrb v f in
      let floor () = List.map (fun (f : Problem.flow) -> (f.Problem.flow_id, lrb f)) flows in
      match bandwidth with
      | Lpst.Lrb_only -> floor ()
      | Lpst.Lp_max -> (
        match Allocation.lp_allocate ~state:lp_state ~lower:lrb v flows with
        | Some rates -> rates
        | None -> floor ()))
  in
  { (Lpst.lpst ?admission ~bandwidth ?sticky ()) with Algorithm.name = "LPST oracle"; allocate }
