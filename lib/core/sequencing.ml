module Task = S3_workload.Task

(* Sort existing (task, flows) pairs by ascending key, ties by task id.
   The key sees the view only for [now]/[available]/[topo] plus the
   pair's own flows. [Float.compare] orders keys exactly as the
   polymorphic [compare] does on floats, NaN included. *)
let sort_pairs v ~key pairs =
  let scored = List.map (fun tf -> (key v tf, tf)) pairs in
  List.sort
    (fun (ka, (ta, _)) (kb, (tb, _)) ->
      match Float.compare ka kb with
      | 0 -> Int.compare ta.Task.id tb.Task.id
      | c -> c)
    scored
  |> List.map snd

let ordered_tasks v ~key = sort_pairs v ~key (Problem.by_task v)

let head_only v ~key =
  match ordered_tasks v ~key with
  | [] -> []
  | (_, flows) :: _ -> [ flows ]

let disjoint_groups v ~key =
  let used = Hashtbl.create 64 in
  (* Disjointness is judged on server NICs: two tasks "share a network
     link" when a server appears in both tasks' transfers. Switch
     trunks (TOR uplinks, fat-tree/BCube switches) are deliberately
     excluded — on a tiered topology every pair of cross-rack tasks
     meets at some trunk, and counting trunks would collapse Dis* back
     to the strictly sequential baseline it is meant to improve on. *)
  let server_only e =
    match (S3_net.Topology.entity v.Problem.topo e).S3_net.Topology.kind with
    | S3_net.Topology.Server_nic -> true
    | S3_net.Topology.Tor_uplink | S3_net.Topology.Edge_switch
    | S3_net.Topology.Agg_switch | S3_net.Topology.Core_switch
    | S3_net.Topology.Bcube_switch | S3_net.Topology.Leaf_switch
    | S3_net.Topology.Spine_switch -> false
  in
  let entities flows =
    List.concat_map (fun f -> Problem.route v f) flows
    |> List.filter server_only |> List.sort_uniq compare
  in
  List.filter_map
    (fun (_, flows) ->
      let es = entities flows in
      if List.exists (Hashtbl.mem used) es then None
      else begin
        List.iter (fun e -> Hashtbl.replace used e ()) es;
        Some flows
      end)
    (ordered_tasks v ~key)
