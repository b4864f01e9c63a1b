module Task = S3_workload.Task
module Topology = S3_net.Topology

type flow = {
  flow_id : int;
  task : Task.t;
  source : int;
  route : int array;
  remaining : float;
}

type view = {
  now : float;
  topo : Topology.t;
  flows : flow list Lazy.t;
  tasks : (Task.t * flow list) list Lazy.t;
  available : int -> float;
  load : (int -> float) option;
}

let make_flow topo ~flow_id ~task ~source ~remaining =
  { flow_id;
    task;
    source;
    route = Topology.route_array topo ~src:source ~dst:task.Task.destination;
    remaining
  }

(* A flow carries its route, resolved once through the topology's flat
   route cache; [route_arr] is the allocation-free accessor for hot
   loops. *)
let route_arr _ f = f.route

let route v f = Array.to_list (route_arr v f)

let path_available v ~src ~dst =
  Array.fold_left
    (fun acc id ->
      let a = v.available id in
      if acc <= a then acc else a)
    infinity
    (Topology.route_array v.topo ~src ~dst)

let flow_path_available v f =
  path_available v ~src:f.source ~dst:f.task.Task.destination

(* Group a flat flow list per task: tasks in order of first
   appearance, flows in list order within a task. *)
let group flows =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let id = f.task.Task.id in
      match Hashtbl.find_opt tbl id with
      | None ->
        let cell = ref [ f ] in
        order := (f.task, cell) :: !order;
        Hashtbl.replace tbl id cell
      | Some cell -> cell := f :: !cell)
    flows;
  List.rev_map (fun (t, cell) -> (t, List.rev !cell)) !order

let of_flows ?load ~now ~topo ~available flows =
  { now; topo; flows = Lazy.from_val flows; tasks = lazy (group flows); available; load }

let by_task v = Lazy.force v.tasks

let deadline_slack v f = f.task.Task.deadline -. v.now
