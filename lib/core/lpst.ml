module Task = S3_workload.Task

type admission =
  | Rtf_order
  | Arrival_order

type bandwidth =
  | Lp_max
  | Lrb_only

(* Phase II works on arrays owned by the instance and reused from event
   to event. *)
type phase2 = {
  (* Sticky membership: the last event at which a task id was admitted
     or kept. A task is held at event [gen] iff its stamp is [gen - 1],
     so tasks that left the view, were evicted or were never admitted
     drop out without any per-event table of their own. *)
  stamp : (int, int) Hashtbl.t;
  mutable gen : int;
  (* Per entity: the event's availability, consumed in place as the
     admission residual; the demand of the task under test; whether it
     touches the entity yet; the stack of entities it touches. *)
  mutable residual : float array;
  mutable demand : float array;
  mutable seen : bool array;
  mutable touched : int array;
  (* Per task of the view, indexed in view order: the group, its
     ranking key and id; [order] holds the ranking permutation and,
     after admission, the admitted indices in admission order. *)
  mutable pairs : (Task.t * Problem.flow list) array;
  mutable key : float array;
  mutable id : int array;
  mutable order : int array;
  mutable tmp : int array;
  (* LRBs of the flows of the task under test. *)
  mutable lrb : float array;
}

let create_phase2 () =
  { stamp = Hashtbl.create 256;
    gen = 0;
    residual = [||];
    demand = [||];
    seen = [||];
    touched = [||];
    pairs = [||];
    key = [||];
    id = [||];
    order = [||];
    tmp = [||];
    lrb = Array.make 16 0.
  }

let reserve st nent n pair =
  if Array.length st.residual <> nent then begin
    st.residual <- Array.make nent 0.;
    st.demand <- Array.make nent 0.;
    st.seen <- Array.make nent false;
    st.touched <- Array.make nent 0
  end;
  if Array.length st.pairs < n then begin
    let cap = max n (2 * Array.length st.pairs) in
    st.pairs <- Array.make cap pair;
    st.key <- Array.make cap 0.;
    st.id <- Array.make cap 0;
    st.order <- Array.make cap 0;
    st.tmp <- Array.make cap 0
  end

(* Eq. (13) on the event's availability array: the minimum over the
   task's flows of eq. (12), with each path's bottleneck folded from
   [avail] exactly as {!Problem.path_available} folds [v.available].
   Written as loops over local refs, not folds, so the float
   accumulators stay unboxed. *)
let task_rtf avail (v : Problem.view) flows =
  let now = v.Problem.now in
  let acc = ref infinity and rest = ref flows in
  while
    match !rest with
    | [] -> false
    | f :: tl ->
      let route = Problem.route_arr v f in
      let cap = ref infinity in
      for r = 0 to Array.length route - 1 do
        let a = avail.(route.(r)) in
        cap := if !cap <= a then !cap else a
      done;
      let r = Rtf.rtf_at ~now ~cap:!cap f in
      acc := if !acc <= r then !acc else r;
      rest := tl;
      true
  do
    ()
  done;
  !acc

(* Ascending (key, task id): a strict total order (ids are distinct
   within a view), so any correct sort yields the one permutation. *)
let before st a b =
  match Float.compare st.key.(a) st.key.(b) with
  | 0 -> st.id.(a) < st.id.(b)
  | c -> c < 0

(* Merge sort of [order.(lo) .. order.(hi - 1)] through [tmp]. *)
let rec sort_range st lo hi =
  let o = st.order in
  if hi - lo <= 8 then
    for i = lo + 1 to hi - 1 do
      let x = o.(i) in
      let j = ref i in
      while !j > lo && before st x o.(!j - 1) do
        o.(!j) <- o.(!j - 1);
        decr j
      done;
      o.(!j) <- x
    done
  else begin
    let mid = lo + ((hi - lo) / 2) in
    sort_range st lo mid;
    sort_range st mid hi;
    if before st o.(mid) o.(mid - 1) then begin
      let tmp = st.tmp in
      Array.blit o lo tmp lo (mid - lo);
      let i = ref lo and j = ref mid and k = ref lo in
      while !i < mid && !j < hi do
        if before st o.(!j) tmp.(!i) then begin
          o.(!k) <- o.(!j);
          incr j
        end
        else begin
          o.(!k) <- tmp.(!i);
          incr i
        end;
        incr k
      done;
      Array.blit tmp !i o !k (mid - !i)
    end
  end

(* Does the task's LRB demand fit the residual? If so, consume it. Its
   demand is summed per entity in flow order, then route order, and
   every touched entity must satisfy [demand <= residual + 1e-9]. A
   task with an infinite LRB (deadline passed) never fits. *)
let fits st (v : Problem.view) flows =
  let now = v.Problem.now in
  let rec lrbs j finite = function
    | [] -> finite
    | (f : Problem.flow) :: rest ->
      if j = Array.length st.lrb then begin
        let grown = Array.make (2 * j) 0. in
        Array.blit st.lrb 0 grown 0 j;
        st.lrb <- grown
      end;
      let l = Rtf.lrb ~now ~deadline:f.Problem.task.Task.deadline ~remaining:f.Problem.remaining in
      st.lrb.(j) <- l;
      lrbs (j + 1) (finite && Float.is_finite l) rest
  in
  lrbs 0 true flows
  && begin
    let demand = st.demand and seen = st.seen and touched = st.touched in
    let nt = ref 0 in
    let rec add j = function
      | [] -> ()
      | f :: rest ->
        let l = st.lrb.(j) in
        let route = Problem.route_arr v f in
        for r = 0 to Array.length route - 1 do
          let e = route.(r) in
          if not seen.(e) then begin
            seen.(e) <- true;
            touched.(!nt) <- e;
            incr nt
          end;
          demand.(e) <- demand.(e) +. l
        done;
        add (j + 1) rest
    in
    add 0 flows;
    let residual = st.residual in
    let ok = ref true in
    for k = 0 to !nt - 1 do
      let e = touched.(k) in
      if not (demand.(e) <= residual.(e) +. 1e-9) then ok := false
    done;
    for k = 0 to !nt - 1 do
      let e = touched.(k) in
      if !ok then residual.(e) <- residual.(e) -. demand.(e);
      demand.(e) <- 0.;
      seen.(e) <- false
    done;
    !ok
  end

(* Greedy admission over [order.(lo) .. order.(hi - 1)], compacting the
   admitted indices to [order.(w) ..]; returns the next free slot. *)
let admit_range st v lo hi w =
  let w = ref w in
  for k = lo to hi - 1 do
    let i = st.order.(k) in
    if fits st v (snd st.pairs.(i)) then begin
      st.order.(!w) <- i;
      incr w
    end
  done;
  !w

(* One Phase II decision. Held tasks (admitted at the previous event,
   [sticky] only) are re-triaged first against the event's capacity, in
   ranking order: with static capacity every one still fits, since
   allocations never fell below LRB, so this only evicts when
   foreground traffic stole bandwidth. The waiting candidates are then
   ranked and admitted greedily into what is left. Returns the number
   of admitted tasks, whose indices lead [order] in admission order. *)
let select st ~admission ~sticky (v : Problem.view) =
  (* Every event moves the generation, an empty one included: a task
     that leaves the view loses its hold even if it comes back. *)
  st.gen <- st.gen + 1;
  let prev = st.gen - 1 in
  let tasks = Problem.by_task v in
  match tasks with
  | [] -> 0
  | first :: _ ->
    let nent = Array.length (S3_net.Topology.entities v.Problem.topo) in
    let n = List.length tasks in
    reserve st nent n first;
    for e = 0 to nent - 1 do
      st.residual.(e) <- v.Problem.available e
    done;
    (* Keys come from the untouched availability; held tasks fill
       [order] from the front, candidates from the back. *)
    let nh = ref 0 and nc = ref 0 in
    List.iteri
      (fun i (((t : Task.t), flows) as pair) ->
        st.pairs.(i) <- pair;
        st.id.(i) <- t.Task.id;
        st.key.(i) <-
          (match admission with
           | Rtf_order -> task_rtf st.residual v flows
           | Arrival_order -> t.Task.arrival);
        let held =
          sticky
          && match Hashtbl.find_opt st.stamp t.Task.id with Some g -> g = prev | None -> false
        in
        if held then begin
          st.order.(!nh) <- i;
          incr nh
        end
        else begin
          incr nc;
          st.order.(n - !nc) <- i
        end)
      tasks;
    let nh = !nh in
    sort_range st 0 nh;
    sort_range st nh n;
    let kept = admit_range st v 0 nh 0 in
    let admitted = admit_range st v nh n kept in
    if sticky then begin
      for k = 0 to admitted - 1 do
        Hashtbl.replace st.stamp st.id.(st.order.(k)) st.gen
      done;
      (* Forget stale stamps once they outnumber the live ones two to
         one. *)
      if Hashtbl.length st.stamp > (2 * admitted) + 256 then
        Hashtbl.filter_map_inplace
          (fun _ g -> if g = st.gen then Some g else None)
          st.stamp
    end;
    admitted

let admitted_pairs st count =
  let acc = ref [] in
  for k = count - 1 downto 0 do
    acc := st.pairs.(st.order.(k)) :: !acc
  done;
  !acc

let admit ?(admission = Rtf_order) (v : Problem.view) =
  let st = create_phase2 () in
  admitted_pairs st (select st ~admission ~sticky:false v)

let lpst ?(sources = Algorithm.Least_congested) ?backend ?(admission = Rtf_order)
    ?(bandwidth = Lp_max) ?(sticky = true) ?name () =
  let name = Option.value ~default:"LPST" name in
  (* Sticky admission state: once a task is admitted it keeps its
     reservation until it completes, expires, or foreground traffic
     forces an eviction — this is what makes "admitted tasks are
     guaranteed to meet their deadlines" (4, Phase III) true, and it
     prevents the thrashing where a half-finished task loses its slot
     to a waiting one and both miss. *)
  let st = create_phase2 () in
  (* Per-instance solver state: the Phase III LPs of consecutive events
     share structure, so the workspace (and, when the flow set is
     unchanged, the previous basis or solution) carries over. *)
  let lp_state = S3_lp.Lp.create_state () in
  let allocate (v : Problem.view) =
    match List.concat_map snd (admitted_pairs st (select st ~admission ~sticky v)) with
    | [] -> []
    | flows -> (
      let lrb f = Rtf.flow_lrb v f in
      match bandwidth with
      | Lrb_only -> List.map (fun f -> (f.Problem.flow_id, lrb f)) flows
      | Lp_max -> (
        match Allocation.lp_allocate ?backend ~state:lp_state ~lower:lrb v flows with
        | Some rates -> rates
        | None ->
          (* Admission guaranteed LRB fits; reach here only on solver
             numerics. LRB rates are feasible by construction. *)
          List.map (fun f -> (f.Problem.flow_id, lrb f)) flows))
  in
  { Algorithm.name;
    select_sources = Algorithm.source_selector sources;
    allocate;
    abandon_expired = true;
    reselect = Some (Algorithm.reselect_of_policy sources)
  }
