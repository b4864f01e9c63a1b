module Task = S3_workload.Task
module Topology = S3_net.Topology
module Problem = S3_core.Problem
module Algorithm = S3_core.Algorithm
module Rtf = S3_core.Rtf
module Fault = S3_fault.Fault
module Detector = S3_fault.Detector

let src = Logs.Src.create "s3.engine" ~doc:"S3 scheduling engine"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  foreground : Foreground.config;
  seed : int;
}

let default_config = { foreground = Foreground.none; seed = 7 }

type data_plane = {
  control_latency : unit -> float;
  (* seconds all transfers stay paused after a scheduling event (the
     cloud prototype pauses rsync, recomputes, and reissues ssh
     commands); 0 for the ideal simulator *)
  shape_rate : flow_id:int -> float -> float;
  (* per-flow distortion of the assigned rate (quantization, jitter);
     must never return more than the assigned rate *)
}

let ideal_data_plane = { control_latency = (fun () -> 0.); shape_rate = (fun ~flow_id:_ r -> r) }

exception Invalid_selection of { task : int; server : int; detail : string }

let () =
  Printexc.register_printer (function
    | Invalid_selection { task; server; detail } ->
      Some
        (if server < 0 then Printf.sprintf "Engine.Invalid_selection(task %d): %s" task detail
         else Printf.sprintf "Engine.Invalid_selection(task %d, server %d): %s" task server detail)
    | _ -> None)

let invalid task server detail = raise (Invalid_selection { task; server; detail })

open Flow_index.Live

let volume_epsilon = 1e-6  (* megabits; ~0.1 byte *)
let time_epsilon = 1e-9

module Make (I : Flow_index.S) = struct
  let run ?(config = default_config) ?(data_plane = ideal_data_plane) ?on_event
      ?(faults = Fault.empty) ?detector ?retry ?on_failure ?watchdog topo (alg : Algorithm.t)
      tasks =
    let pending = Array.of_list (List.sort Task.compare_arrival tasks) in
    let validate_task (t : Task.t) =
      let ok s = s >= 0 && s < Topology.servers topo in
      if not (ok t.Task.destination && Array.for_all ok t.Task.sources) then
        invalid_arg "Engine.run: task references servers outside the topology"
    in
    Array.iter validate_task pending;
    let fg = Foreground.create (S3_util.Prng.create config.seed) topo config.foreground in
    let fstate = Fault.start topo faults in
    (* Control-plane failure knowledge. Without a detector the engine is
       omniscient (settles crashes at the injection instant, the pre-
       detection behaviour, bit-identical); with one, every reaction —
       flow kills, re-homes, losses, repair injection, candidate
       eligibility — keys off the detector's beliefs instead of the
       physical fault state, while rates keep being clamped by the
       physical multipliers (bytes keep flowing into a dead NIC at rate
       zero until the detector notices). *)
    let dstate = Option.map (fun c -> Detector.start topo c faults) detector in
    (* Resume-enabled recovery preserves a killed fetch's partial bytes
       in its replacement ([bytes_resumed]); off, replacements restart
       the chunk and the partial bytes are [wasted] (the historical
       accounting). *)
    let resume = match retry with Some rc -> rc.Retry.resume | None -> false in
    (* Is this destination believed unusable / this source believed
       unselectable? The control-plane view: physical truth when
       omniscient, detector beliefs otherwise (a merely suspected source
       is avoided for new selections but its flows are not killed). *)
    let dest_down s =
      match dstate with
      | None -> Fault.dead fstate s
      | Some d -> Detector.believed_dead d s
    in
    let source_excluded s =
      match dstate with
      | None -> Fault.ever_crashed fstate s
      | Some d -> Detector.known_crashed d s || Detector.suspected d s
    in
    let nent = Array.length (Topology.entities topo) in
    (* Fault-adjusted capacity: what the foreground process leaves over,
       further scaled by dead-server / degraded-link multipliers. The
       fault-free path keeps the raw closure so existing runs are
       bit-identical. *)
    let avail =
      if Fault.is_empty faults then Foreground.available fg
      else fun e -> Foreground.available fg e *. Fault.multiplier fstate e
    in
    let entity_bits = Array.make nent 0. in
    let active = ref [] in  (* reverse arrival order *)
    let next_pending = ref 0 in
    let next_flow_id = ref 0 in
    let next_seq = ref 0 in
    let now = ref 0. in
    let outcomes = Hashtbl.create (Array.length pending * 2) in
    let plan_time = ref 0. and plan_calls = ref 0 in
    let frozen_until = ref 0. in  (* transfers paused until this time *)
    let events = ref 0 and clamp_events = ref 0 in
    let flows_killed = ref 0 and tasks_rehomed = ref 0 and tasks_lost = ref 0 in
    let wasted = ref 0. in
    let swaps_attempted = ref 0 and swaps_successful = ref 0 in
    let tasks_rescued = ref 0 and tasks_shed_early = ref 0 in
    let shed_volume = ref 0. in
    let suspicions = ref 0 and false_suspicions = ref 0 and detections = ref 0 in
    let bytes_resumed = ref 0. in
    let retries_attempted = ref 0 and retries_exhausted = ref 0 in
    (* Tasks the watchdog swapped at least once; counted as rescued only
       if they go on to complete by their deadline. *)
    let swapped_tasks = Hashtbl.create 16 in
    (* Closed-loop repair tasks injected mid-run, kept sorted by arrival;
       [injected_all] accumulates every injection for the final report. *)
    let injected = ref [] and injected_all = ref [] in
    let known_ids = Hashtbl.create (Array.length pending * 2) in
    Array.iter
      (fun (t : Task.t) ->
        if Hashtbl.mem known_ids t.Task.id then invalid_arg "Engine.run: duplicate task id";
        Hashtbl.replace known_ids t.Task.id ())
      pending;
    let cmp_arrival (a : Task.t) (b : Task.t) =
      match Float.compare a.Task.arrival b.Task.arrival with
      | 0 -> Int.compare a.Task.id b.Task.id
      | c -> c
    in
    let inject ts =
      if ts <> [] then begin
        List.iter
          (fun (t : Task.t) ->
            validate_task t;
            if Hashtbl.mem known_ids t.Task.id then
              invalid_arg "Engine.run: injected task id collides with an existing task";
            Hashtbl.replace known_ids t.Task.id ())
          ts;
        injected_all := ts @ !injected_all;
        injected := List.merge cmp_arrival (List.sort cmp_arrival ts) !injected
      end
    in
    let idx = I.create topo in
    let set_flow_rate = I.set_rate idx in
    (* The single way a task resolves, so the index can forget it. *)
    let resolve lt =
      lt.resolved <- true;
      I.retire idx lt
    in
    let fg_generation = ref (Foreground.generation fg) in
    let make_view () =
      (* The task grouping is the expensive part of a view — O(all live
         flows) to build — and Phase-I source selection through the
         index's [load] never reads it, so it stays a thunk: spawns that
         only probe congestion cost nothing here, allocate-time
         algorithms force it once before any further mutation (the
         engine never hands a view across a state change). Groups come
         straight from the task records, in arrival order; a task with
         no live flow has none. *)
      let act = !active in
      (* A group is rebuilt only when the task's live flows changed since
         the last view (drained, killed, replaced or moved volume), so a
         waiting task hands out the same records event after event. *)
      let rec unchanged lflows i (planned : Problem.flow list) =
        if i = Array.length lflows then (match planned with [] -> true | _ :: _ -> false)
        else begin
          let f = lflows.(i) in
          if f.remaining > 0. then
            match planned with
            | p :: rest ->
              p.Problem.flow_id = f.flow_id
              && Float.equal p.Problem.remaining f.remaining
              && unchanged lflows (i + 1) rest
            | [] -> false
          else unchanged lflows (i + 1) planned
        end
      in
      let rebuild lt =
        let live = ref [] in
        for i = Array.length lt.lflows - 1 downto 0 do
          let f = lt.lflows.(i) in
          if f.remaining > 0. then
            live :=
              { Problem.flow_id = f.flow_id;
                task = lt.task;
                source = f.source;
                route = f.route;
                remaining = f.remaining
              }
              :: !live
        done;
        lt.planned <- (lt.task, !live)
      in
      let tasks =
        lazy
          (List.fold_left
             (fun acc lt ->
               if lt.resolved then acc
               else begin
                 if not (unchanged lt.lflows 0 (snd lt.planned)) then rebuild lt;
                 match lt.planned with _, [] -> acc | group -> group :: acc
               end)
             [] act)
      in
      { Problem.now = !now;
        topo;
        flows = lazy (List.concat_map snd (Lazy.force tasks));
        tasks;
        available = avail;
        load = I.load idx
      }
    in
    (* Scale any over-committed entity's flows down proportionally; a
       correct algorithm never triggers this. *)
    let clamp_entity e a =
      Log.warn (fun m ->
          m "t=%.3f clamping entity %d: allocated %.3f > available %.3f" !now e (I.usage idx e) a);
      let scale = max 0. (a /. I.usage idx e) in
      List.iter
        (fun f -> if f.rate > 0. && f.remaining > 0. then set_flow_rate f (f.rate *. scale))
        (I.victims idx e)
    in
    (* Each pass checks what the index reports may be violated, in
       ascending entity order; scaling re-marks the victims' routes for
       the next pass. *)
    let clamp_rates () =
      let clamped = ref false in
      let pass () =
        let violated = ref false in
        List.iter
          (fun e ->
            let a = avail e in
            if I.usage idx e > a +. 1e-6 then begin
              violated := true;
              clamped := true;
              clamp_entity e a
            end)
          (I.clamp_scan idx);
        !violated
      in
      let rec go n = if n > 0 && pass () then go (n - 1) in
      go 10;
      if !clamped then incr clamp_events
    in
    let recompute () =
      let view = make_view () in
      (* lint: allow nondet-source — planner CPU-time diagnostic only;
         [plan_time] is excluded from result fingerprints (report.ml) *)
      let t0 = Sys.time () in
      let rates = alg.Algorithm.allocate view in
      (* lint: allow nondet-source — same diagnostic as [t0] above *)
      plan_time := !plan_time +. (Sys.time () -. t0);
      incr plan_calls;
      let tbl = Hashtbl.create 64 in
      List.iter (fun (fid, r) -> Hashtbl.replace tbl fid (max 0. r)) rates;
      (* Dead flows (resolved task or no volume left) already hold rate
         0 and are skipped. *)
      List.iter
        (fun lt ->
          if not lt.resolved then
            Array.iter
              (fun f ->
                if f.remaining > 0. then
                  set_flow_rate f (Option.value ~default:0. (Hashtbl.find_opt tbl f.flow_id)))
              lt.lflows)
        !active;
      clamp_rates ();
      (* Data-plane distortion: applied after clamping and only ever
         downward, so feasibility is preserved. *)
      List.iter
        (fun lt ->
          Array.iter
            (fun f ->
              if f.rate > 0. then
                set_flow_rate f
                  (max 0. (min f.rate (data_plane.shape_rate ~flow_id:f.flow_id f.rate))))
            lt.lflows)
        !active;
      let pause = data_plane.control_latency () in
      if pause > 0. then frozen_until := max !frozen_until (!now +. pause);
      match on_event with
      | None -> ()
      | Some hook -> hook !now view rates
    in
    let record_outcome lt ~completed =
      Log.debug (fun m ->
          m "t=%.3f task#%d %s" !now lt.task.Task.id
            (if completed then "completed" else "missed deadline"));
      Hashtbl.replace outcomes lt.task.Task.id
        { Metrics.task = lt.task;
          sources = Array.map (fun f -> f.source) lt.lflows;
          completed;
          finish_time = (if completed then !now else lt.task.Task.deadline);
          remaining =
            (if completed then 0.
             else Array.fold_left (fun acc f -> acc +. max 0. f.remaining) 0. lt.lflows)
        }
    in
    let record_lost_at_arrival (t : Task.t) =
      Log.debug (fun m -> m "t=%.3f task#%d unrecoverable at arrival" !now t.Task.id);
      Hashtbl.replace outcomes t.Task.id
        { Metrics.task = t;
          sources = [||];
          completed = false;
          finish_time = t.Task.deadline;
          remaining = Task.total_volume t
        };
      incr tasks_lost
    in
    let drop_flows lt =
      resolve lt;
      Array.iter
        (fun f ->
          (* everything this abandoned task pulled is waste *)
          wasted := !wasted +. (lt.task.Task.volume -. f.remaining);
          set_flow_rate f 0.;
          f.remaining <- 0.;
          I.remove idx f)
        lt.lflows
    in
    (* A fault took this flow's endpoint: the partial fetch is useless
       (a replacement, if any, restarts the chunk at full volume). *)
    let kill_flow lt f =
      wasted := !wasted +. (lt.task.Task.volume -. f.remaining);
      set_flow_rate f 0.;
      f.remaining <- 0.;
      I.remove idx f;
      incr flows_killed
    in
    (* Kill a fetch that is about to be replaced (crash re-home, watchdog
       swap, retry re-home): with resume the partial progress carries
       into the replacement ([bytes_resumed]; the conservation law's
       completed-volume side absorbs it because the replacement only
       fetches the remainder), without it the progress is written off
       exactly as [kill_flow] does. Only this flow's own progress counts:
       what its predecessors moved was counted when they were replaced.
       Callers snapshot [f.remaining] first to seed the replacement, and
       bump their own event counters. *)
    let kill_for_replacement f =
      let progress = f.start -. f.remaining in
      if resume then bytes_resumed := !bytes_resumed +. progress
      else wasted := !wasted +. progress;
      set_flow_rate f 0.;
      f.remaining <- 0.;
      I.remove idx f
    in
    (* What a replacement fetch for this slot must still move, captured
       before the kill zeroes the slot. *)
    let replacement_remaining lt f = if resume then f.remaining else lt.task.Task.volume in
    (* The task can no longer finish: record the failure (with the
       remaining volume still intact, so the metric sees it), stop every
       in-flight fetch, and write off delivered chunks. *)
    let lose lt =
      Log.debug (fun m -> m "t=%.3f task#%d lost to a fault" !now lt.task.Task.id);
      if not lt.failed then begin
        record_outcome lt ~completed:false;
        lt.failed <- true
      end;
      Array.iter
        (fun f ->
          if f.remaining > 0. then kill_flow lt f
          else wasted := !wasted +. lt.task.Task.volume)
        lt.lflows;
      resolve lt;
      incr tasks_lost
    in
    let spawn (t : Task.t) =
      if dest_down t.Task.destination then record_lost_at_arrival t
      else begin
        (* Crashed-and-recovered servers came back empty: their chunks are
           gone, so they are never candidates again. Under a detector
           this is the control plane's belief — confirmed-dead-at-some-
           point or currently suspected servers are skipped; a dead but
           undetected server is still selected (and the fetch stalls at
           rate zero until the detector fires). *)
        let candidates =
          if Fault.is_empty faults && Option.is_none dstate then t.Task.sources
          else
            Array.of_list
              (List.filter
                 (fun s -> not (source_excluded s))
                 (Array.to_list t.Task.sources))
        in
        if Array.length candidates < t.Task.k then record_lost_at_arrival t
        else begin
          let view = make_view () in
          let t_sel =
            if Array.length candidates = Array.length t.Task.sources then t
            else { t with Task.sources = candidates }
          in
          let sources = alg.Algorithm.select_sources view t_sel in
          (* Validate: exactly k distinct surviving candidates. *)
          if Array.length sources <> t.Task.k then
            invalid t.Task.id (-1)
              (Printf.sprintf "%s selected %d sources, need %d" alg.Algorithm.name
                 (Array.length sources) t.Task.k);
          let candidate s = Array.exists (fun c -> c = s) candidates in
          let seen = Hashtbl.create 8 in
          Array.iter
            (fun s ->
              if not (candidate s) then
                invalid t.Task.id s (alg.Algorithm.name ^ " selected a non-candidate source");
              if Hashtbl.mem seen s then
                invalid t.Task.id s (alg.Algorithm.name ^ " selected a duplicate source");
              Hashtbl.replace seen s ())
            sources;
          let lflows =
            Array.map
              (fun source ->
                let flow_id = !next_flow_id in
                incr next_flow_id;
                { flow_id;
                  source;
                  route = Topology.route_array topo ~src:source ~dst:t.Task.destination;
                  start = t.Task.volume;
                  remaining = t.Task.volume;
                  rate = 0.
                })
              sources
          in
          Log.debug (fun m ->
              m "t=%.3f spawn %a sources=[%s]" !now Task.pp t
                (String.concat ";" (Array.to_list (Array.map string_of_int sources))));
          let seq = !next_seq in
          incr next_seq;
          let lt =
            { seq; task = t; lflows; resolved = false; failed = false; planned = (t, []) }
          in
          active := lt :: !active;
          I.add_task idx lt
        end
      end
    in
    (* React to a batch of servers that just died: lose tasks whose
       destination went down; for tasks that lost sources, ask the
       algorithm to re-home the affected subtasks onto surviving
       candidates, or lose the task when that is impossible. The batch is
       normalized first, so eligibility always reflects the end-of-batch
       state (a crash-and-recover at one instant still loses the data). *)
    let handle_crashes newly_crashed =
      let crashed s = List.mem s newly_crashed in
      let crash_check lt =
          if not lt.resolved then begin
            if crashed lt.task.Task.destination then lose lt
            else begin
              let dead_src f = f.remaining > 0. && crashed f.source in
              if Array.exists dead_src lt.lflows then begin
                let need =
                  Array.fold_left (fun n f -> if dead_src f then n + 1 else n) 0 lt.lflows
                in
                (* Surviving candidates not already serving (or having
                   served) one of this task's chunks. *)
                let used =
                  Array.to_list lt.lflows
                  |> List.filter_map (fun f -> if dead_src f then None else Some f.source)
                in
                let eligible =
                  Array.to_list lt.task.Task.sources
                  |> List.filter (fun s ->
                         (not (source_excluded s)) && not (List.mem s used))
                  |> Array.of_list
                in
                match alg.Algorithm.reselect with
                | Some reselect when Array.length eligible >= need ->
                  let slots = ref [] in
                  Array.iteri (fun i f -> if dead_src f then slots := i :: !slots) lt.lflows;
                  let slots = List.rev !slots in
                  let rem =
                    Array.of_list
                      (List.map (fun i -> replacement_remaining lt lt.lflows.(i)) slots)
                  in
                  List.iter
                    (fun i ->
                      kill_for_replacement lt.lflows.(i);
                      incr flows_killed)
                    slots;
                  let view = make_view () in
                  let repl = reselect view lt.task ~eligible ~need ~remaining:rem in
                  if Array.length repl <> need then
                    invalid lt.task.Task.id (-1)
                      (Printf.sprintf "%s reselected %d sources, need %d" alg.Algorithm.name
                         (Array.length repl) need);
                  let seen = Hashtbl.create 8 in
                  Array.iter
                    (fun s ->
                      if not (Array.exists (fun c -> c = s) eligible) then
                        invalid lt.task.Task.id s
                          (alg.Algorithm.name ^ " reselected an ineligible source");
                      if Hashtbl.mem seen s then
                        invalid lt.task.Task.id s
                          (alg.Algorithm.name ^ " reselected a duplicate source");
                      Hashtbl.replace seen s ())
                    repl;
                  List.iteri
                    (fun j i ->
                      let source = repl.(j) in
                      let flow_id = !next_flow_id in
                      incr next_flow_id;
                      lt.lflows.(i) <-
                        { flow_id;
                          source;
                          route =
                            Topology.route_array topo ~src:source ~dst:lt.task.Task.destination;
                          start = rem.(j);
                          remaining = rem.(j);
                          rate = 0.
                        };
                      I.add idx lt i lt.lflows.(i))
                    slots;
                  incr tasks_rehomed;
                  Log.debug (fun m ->
                      m "t=%.3f task#%d re-homed %d subtask(s) onto [%s]" !now lt.task.Task.id
                        need
                        (String.concat ";" (Array.to_list (Array.map string_of_int repl))))
                | _ -> lose lt
              end
            end
          end
      in
      (* Candidates come in descending spawn order, so interleaved
         re-home views replay in a fixed order. *)
      List.iter crash_check (I.crash_candidates idx newly_crashed)
    in
    (* ---- deadline watchdog (see Watchdog and DESIGN.md §11) ---- *)
    let wd_states : (int, Watchdog.tstate) Hashtbl.t = Hashtbl.create 16 in
    let wd_state id =
      match Hashtbl.find_opt wd_states id with
      | Some st -> st
      | None ->
        let st = Watchdog.fresh () in
        Hashtbl.replace wd_states id st;
        st
    in
    (* The task can no longer finish on any remaining source set: cancel
       it now so its bandwidth goes to savable tasks instead of burning
       until the deadline. The delivered chunks are the shed remainder of
       the conservation law, kept separate from fault/abandon waste. *)
    let shed lt =
      Log.debug (fun m -> m "t=%.3f task#%d shed early by the watchdog" !now lt.task.Task.id);
      record_outcome lt ~completed:false;
      lt.failed <- true;
      Array.iter
        (fun f ->
          shed_volume := !shed_volume +. (lt.task.Task.volume -. f.remaining);
          set_flow_rate f 0.;
          f.remaining <- 0.;
          I.remove idx f)
        lt.lflows;
      resolve lt;
      incr tasks_shed_early
    in
    (* A hedged swap abandons the straggling partial fetch. Without
       resume the replacement restarts the chunk at full volume and the
       delivered bits become waste — same accounting as a fault kill,
       without the fault counter; with resume the replacement picks up
       where the straggler stopped. *)
    let swap_kill = kill_for_replacement in
    (* One supervision pass: project every in-flight subtask's finish
       from its assigned rate; swap stragglers onto unused spare sources
       (budgeted, backed off) and shed provably infeasible tasks. Returns
       true if it changed the flow set, in which case the caller must
       recompute and supervise again — the loop terminates because sheds
       are monotone and swaps consume per-task budget. *)
    let supervise (cfg : Watchdog.config) =
      let changed = ref false in
      let transfer_start = max !now !frozen_until in
      (* Cheap straggler existence test: [max_i projected(f_i)] equals
         [transfer_start +. worst] with [worst = max_i remaining/rate]
         (infinity for a stalled live flow) — float addition of a shared
         addend is monotone, so comparing the max is exactly equivalent
         to comparing each flow, without building the per-task list. *)
      let worst_ratio lflows =
        let worst = ref neg_infinity in
        Array.iter
          (fun f ->
            if f.remaining > 0. then
              worst := max !worst (if f.rate > 0. then f.remaining /. f.rate else infinity))
          lflows;
        !worst
      in
      List.iter
        (fun lt ->
          if
            (not lt.resolved) && (not lt.failed)
            && transfer_start +. worst_ratio lt.lflows
               > lt.task.Task.deadline +. cfg.Watchdog.slack +. time_epsilon
          then begin
            let t = lt.task in
            let dl = t.Task.deadline in
            let projected f =
              if f.remaining <= 0. then neg_infinity
              else if f.rate > 0. then transfer_start +. (f.remaining /. f.rate)
              else infinity
            in
            let stragglers = ref [] in
            Array.iteri
              (fun i f ->
                if projected f > dl +. cfg.Watchdog.slack +. time_epsilon then
                  stragglers := i :: !stragglers)
              lt.lflows;
            let stragglers = List.rev !stragglers in
            if stragglers <> [] then begin
              let st = wd_state t.Task.id in
              (* Spare sources: never crashed, not currently fetching a
                 chunk, and not already swapped away from (a source the
                 watchdog abandoned as too slow stays abandoned). *)
              let used =
                Array.fold_left (fun acc f -> f.source :: acc) st.Watchdog.abandoned lt.lflows
              in
              let eligible =
                Array.to_list t.Task.sources
                |> List.filter (fun s ->
                       (not (source_excluded s)) && not (List.mem s used))
                |> Array.of_list
              in
              (* Deliverable megabits through an entity before the
                 deadline, assuming no further fault events: the current
                 foreground share times the integral of the degradation
                 multiplier (degradations expire on schedule). *)
              let bits e =
                Foreground.available fg e
                *. Fault.deliverable fstate e ~from:transfer_start ~until:dl
              in
              (* Infeasible on every remaining source set? Two conservative
                 checks: (a) some chunk exceeds what even its best allowed
                 path can deliver in time; (b) the entities every possible
                 assignment crosses (current route ∩ all spare routes —
                 e.g. the destination NIC) cannot carry the task's whole
                 remaining demand. Both use time-integrated capacity, so a
                 degradation expiring before the deadline never sheds a
                 savable task. *)
              let infeasible () =
                dl > transfer_start
                && begin
                     let spare_routes =
                       Array.map
                         (fun s -> Topology.route_array topo ~src:s ~dst:t.Task.destination)
                         eligible
                     in
                     let in_every_spare e =
                       Array.for_all (fun r -> Array.exists (fun x -> x = e) r) spare_routes
                     in
                     let through route =
                       Array.fold_left (fun acc e -> min acc (bits e)) infinity route
                     in
                     let flow_doomed f =
                       let best =
                         Array.fold_left
                           (fun acc r -> max acc (through r))
                           (through f.route) spare_routes
                       in
                       f.remaining > best +. volume_epsilon
                     in
                     let demand = Hashtbl.create 8 in
                     Array.iter
                       (fun f ->
                         if f.remaining > 0. then
                           Array.iter
                             (fun e ->
                               if in_every_spare e then
                                 Hashtbl.replace demand e
                                   (Option.value ~default:0. (Hashtbl.find_opt demand e)
                                   +. f.remaining))
                             f.route)
                       lt.lflows;
                     Array.exists (fun f -> f.remaining > 0. && flow_doomed f) lt.lflows
                     || Hashtbl.fold
                          (fun e d acc -> acc || d > bits e +. volume_epsilon)
                          demand false
                   end
              in
              if infeasible () then begin
                shed lt;
                changed := true
              end
              else begin
                match alg.Algorithm.reselect with
                | Some reselect when Watchdog.can_intervene cfg st ~now:!now ->
                  (* can_intervene guarantees budget remains, so want >= 1. *)
                  let want =
                    min (List.length stragglers) (cfg.Watchdog.max_swaps - st.Watchdog.swaps)
                  in
                  swaps_attempted := !swaps_attempted + want;
                  let view = make_view () in
                  (* Only hedge onto sources that could still make the
                     deadline at current available bandwidth — swapping
                     onto an equally hopeless path would just burn budget.
                     Under resume a spare only has to carry the worst
                     straggler's remainder, not a whole chunk. *)
                  let hedge_rem =
                    if resume then
                      List.fold_left
                        (fun acc i -> Float.max acc lt.lflows.(i).remaining)
                        0. stragglers
                    else t.Task.volume
                  in
                  let eligible =
                    Array.to_list eligible
                    |> List.filter (fun s ->
                           Rtf.path_feasible view t ~src:s ~remaining:hedge_rem)
                    |> Array.of_list
                  in
                  let n = min want (Array.length eligible) in
                  if n = 0 then
                    (* No usable spare right now: burn the backoff gap,
                       not the swap budget, and look again later. *)
                    Watchdog.note_intervention cfg st ~now:!now ~replaced:0
                  else begin
                    (* Worst first: stragglers crossing a degraded entity,
                       then latest projected finish (stalled flows project
                       to infinity and lead), then flow order. *)
                    let route_degraded f =
                      Array.exists (fun e -> Fault.degraded fstate e) f.route
                    in
                    let slots =
                      List.map
                        (fun i ->
                          let f = lt.lflows.(i) in
                          ((if route_degraded f then 0 else 1), -.projected f, i))
                        stragglers
                      |> List.sort (fun (da, pa, ia) (db, pb, ib) ->
                             match Int.compare da db with
                             | 0 -> (
                               match Float.compare pa pb with
                               | 0 -> Int.compare ia ib
                               | c -> c)
                             | c -> c)
                      |> List.filteri (fun j _ -> j < n)
                      |> List.map (fun (_, _, i) -> i)
                    in
                    let rem =
                      Array.of_list
                        (List.map (fun i -> replacement_remaining lt lt.lflows.(i)) slots)
                    in
                    List.iter
                      (fun i ->
                        let f = lt.lflows.(i) in
                        Watchdog.abandon st f.source;
                        swap_kill f)
                      slots;
                    let view = make_view () in
                    let repl = reselect view t ~eligible ~need:n ~remaining:rem in
                    if Array.length repl <> n then
                      invalid t.Task.id (-1)
                        (Printf.sprintf "%s reselected %d sources, need %d (watchdog swap)"
                           alg.Algorithm.name (Array.length repl) n);
                    let seen = Hashtbl.create 8 in
                    Array.iter
                      (fun s ->
                        if not (Array.exists (fun c -> c = s) eligible) then
                          invalid t.Task.id s
                            (alg.Algorithm.name
                           ^ " reselected an ineligible source (watchdog swap)");
                        if Hashtbl.mem seen s then
                          invalid t.Task.id s
                            (alg.Algorithm.name
                           ^ " reselected a duplicate source (watchdog swap)");
                        Hashtbl.replace seen s ())
                      repl;
                    List.iteri
                      (fun j i ->
                        let source = repl.(j) in
                        let flow_id = !next_flow_id in
                        incr next_flow_id;
                        lt.lflows.(i) <-
                          { flow_id;
                            source;
                            route = Topology.route_array topo ~src:source ~dst:t.Task.destination;
                            start = rem.(j);
                            remaining = rem.(j);
                            rate = 0.
                          };
                        I.add idx lt i lt.lflows.(i))
                      slots;
                    Watchdog.note_intervention cfg st ~now:!now ~replaced:n;
                    swaps_successful := !swaps_successful + n;
                    Hashtbl.replace swapped_tasks t.Task.id ();
                    Log.debug (fun m ->
                        m "t=%.3f task#%d watchdog swapped %d straggler(s) onto [%s]" !now
                          t.Task.id n
                          (String.concat ";" (Array.to_list (Array.map string_of_int repl))));
                    changed := true
                  end
                | _ -> ()
              end
            end
          end)
        (List.rev !active);
      if !changed then active := List.filter (fun lt -> not lt.resolved) !active;
      !changed
    in
    (* Every recomputation runs under supervision when a watchdog config
       is given; with [?watchdog:None] this is recompute and nothing else,
       so existing runs stay bit-identical. *)
    let replan () =
      recompute ();
      match watchdog with
      | None -> ()
      | Some cfg ->
        let rec go budget =
          if budget > 0 && supervise cfg then begin
            recompute ();
            go (budget - 1)
          end
        in
        go 10_000
    in
    (* ---- transfer retry policy (see Retry and DESIGN.md §16) ----
       Per-flow stall timers, keyed by flow id. A flow is stalled when it
       has volume left, holds no rate, and its route crosses a degraded
       entity — the transient-outage signature (crashes are the
       detector's business). Timers are refreshed after every replan and
       fire through the event loop like any other event source. *)
    let rstates : (int, Retry.fstate) Hashtbl.t = Hashtbl.create 16 in
    let flow_stalled f =
      f.remaining > 0. && f.rate <= 0.
      && Array.exists (fun e -> Fault.degraded fstate e) f.route
    in
    let update_retry_clocks () =
      match retry with
      | None -> ()
      | Some _ ->
        List.iter
          (fun lt ->
            if (not lt.resolved) && not lt.failed then
              Array.iter
                (fun f ->
                  if f.remaining > 0. then
                    match Hashtbl.find_opt rstates f.flow_id with
                    | Some st ->
                      if flow_stalled f then Retry.mark_stalled st ~now:!now
                      else Retry.clear st
                    | None ->
                      if flow_stalled f then begin
                        let st = Retry.fresh () in
                        Retry.mark_stalled st ~now:!now;
                        Hashtbl.replace rstates f.flow_id st
                      end)
                lt.lflows)
          !active
    in
    let next_retry_time () =
      match retry with
      | None -> infinity
      | Some rc ->
        List.fold_left
          (fun acc lt ->
            if lt.resolved || lt.failed then acc
            else
              Array.fold_left
                (fun acc f ->
                  if f.remaining > 0. then
                    match Hashtbl.find_opt rstates f.flow_id with
                    | Some st -> Float.min acc (Retry.next_deadline rc st)
                    | None -> acc
                  else acc)
                acc lt.lflows)
          infinity !active
    in
    (* Fire every retry timer due now. A retry within budget re-issues
       the fetch against the same source — physically a no-op in the
       fluid model, but it restarts the timer with a backed-off gap. An
       exhausted timer re-homes the flow onto a different eligible source
       (or gives up and stops timing when none exists / the algorithm has
       no reselect hook). Returns the number of events fired. *)
    let retry_pass () =
      match retry with
      | None -> 0
      | Some rc ->
        let fired = ref 0 in
        List.iter
          (fun lt ->
            if (not lt.resolved) && not lt.failed then
              Array.iteri
                (fun i f ->
                  if f.remaining > 0. then
                    match Hashtbl.find_opt rstates f.flow_id with
                    | Some st when Retry.next_deadline rc st <= !now +. time_epsilon ->
                      incr fired;
                      if not (Retry.exhausted rc st) then begin
                        Retry.note_retry st ~now:!now;
                        incr retries_attempted;
                        Log.debug (fun m ->
                            m "t=%.3f task#%d retrying stalled fetch from server %d (%d/%d)"
                              !now lt.task.Task.id f.source st.Retry.attempts rc.Retry.retries)
                      end
                      else begin
                        incr retries_exhausted;
                        let used = Array.fold_left (fun acc g -> g.source :: acc) [] lt.lflows in
                        let eligible =
                          Array.to_list lt.task.Task.sources
                          |> List.filter (fun s ->
                                 (not (source_excluded s)) && not (List.mem s used))
                          |> Array.of_list
                        in
                        match alg.Algorithm.reselect with
                        | Some reselect when Array.length eligible >= 1 ->
                          let rem = replacement_remaining lt f in
                          kill_for_replacement f;
                          let view = make_view () in
                          let repl =
                            reselect view lt.task ~eligible ~need:1 ~remaining:[| rem |]
                          in
                          if Array.length repl <> 1 then
                            invalid lt.task.Task.id (-1)
                              (Printf.sprintf "%s reselected %d sources, need 1 (retry)"
                                 alg.Algorithm.name (Array.length repl));
                          if not (Array.exists (fun c -> c = repl.(0)) eligible) then
                            invalid lt.task.Task.id repl.(0)
                              (alg.Algorithm.name ^ " reselected an ineligible source (retry)");
                          let source = repl.(0) in
                          let flow_id = !next_flow_id in
                          incr next_flow_id;
                          lt.lflows.(i) <-
                            { flow_id;
                              source;
                              route =
                                Topology.route_array topo ~src:source
                                  ~dst:lt.task.Task.destination;
                              start = rem;
                              remaining = rem;
                              rate = 0.
                            };
                          I.add idx lt i lt.lflows.(i);
                          incr tasks_rehomed;
                          Log.debug (fun m ->
                              m "t=%.3f task#%d retry budget exhausted, re-homed onto server %d"
                                !now lt.task.Task.id source)
                        | _ ->
                          (* Nowhere to go: keep the stalled fetch (the
                             degradation may still expire in time) but
                             stop timing it. *)
                          Retry.give_up st
                      end
                    | _ -> ())
                lt.lflows)
          (List.rev !active);
        !fired
    in
    let moved_total = ref 0. in
    (* Transfer over [now, now+dt), minus any initial frozen span. *)
    let advance_volumes dt =
      let dt =
        if !frozen_until <= !now then dt
        else max 0. (dt -. (min !frozen_until (!now +. dt) -. !now))
      in
      if dt > 0. then
        List.iter
          (fun lt ->
            if not lt.resolved then
              Array.iter
                (fun f ->
                  if f.rate > 0. && f.remaining > 0. then begin
                    let moved = min f.remaining (f.rate *. dt) in
                    f.remaining <- f.remaining -. moved;
                    moved_total := !moved_total +. moved;
                    Array.iter (fun e -> entity_bits.(e) <- entity_bits.(e) +. moved) f.route
                  end)
                lt.lflows)
          !active
    in
    let next_event_time () =
      let t_arr =
        if !next_pending < Array.length pending then pending.(!next_pending).Task.arrival
        else infinity
      in
      let t_arr =
        match !injected with [] -> t_arr | t :: _ -> min t_arr t.Task.arrival
      in
      let t_fg = min (Foreground.next_change fg) (Fault.next_change fstate) in
      let t_fg =
        match dstate with None -> t_fg | Some d -> min t_fg (Detector.next_change d)
      in
      let t_fg = min t_fg (next_retry_time ()) in
      let t_dl, t_cmp =
        List.fold_left
          (fun (dl, cmp) lt ->
            if lt.resolved then (dl, cmp)
            else begin
              let dl = if lt.failed then dl else min dl lt.task.Task.deadline in
              let transfer_start = max !now !frozen_until in
              let cmp =
                Array.fold_left
                  (fun c f ->
                    if f.rate > 0. && f.remaining > 0. then
                      min c (transfer_start +. (f.remaining /. f.rate))
                    else c)
                  cmp lt.lflows
              in
              (dl, cmp)
            end)
          (infinity, infinity) !active
      in
      min (min t_arr t_fg) (min t_dl t_cmp)
    in
    let stalls = ref 0 in
    let unresolved () = List.exists (fun lt -> not lt.resolved) !active in
    (* With a closed-loop repair hook the run outlives the workload: a
       crash after the last task still generates repair traffic. *)
    let work_remains () =
      unresolved ()
      || !next_pending < Array.length pending
      || !injected <> []
      || Option.is_some on_failure
         && (not (Fault.exhausted fstate)
            ||
            (* With a detector the repair hook answers confirmations, which
               trail the physical crashes by the detection latency. *)
            match dstate with Some d -> not (Detector.exhausted d) | None -> false)
    in
    replan ();
    update_retry_clocks ();
    while work_remains () do
      let t_next = next_event_time () in
      if not (Float.is_finite t_next) then
        failwith "Engine.run: no future event but tasks remain";
      let dt = max 0. (t_next -. !now) in
      advance_volumes dt;
      now := max !now t_next;
      I.tick idx ~now:!now;
      Foreground.advance fg !now;
      let g = Foreground.generation fg in
      if g <> !fg_generation then begin
        (* A redraw moves every entity's availability at once. *)
        fg_generation := g;
        for e = 0 to nent - 1 do
          I.mark_dirty idx e
        done
      end;
      let processed = ref 0 in
      (* Completions first: a flow finishing exactly at the deadline counts. *)
      List.iter
        (fun lt ->
          if not lt.resolved then begin
            Array.iter
              (fun f ->
                if f.remaining > 0. && f.remaining <= volume_epsilon then begin
                  f.remaining <- 0.;
                  set_flow_rate f 0.;
                  I.remove idx f
                end
                else if f.remaining <= 0. && f.rate > 0. then begin
                  (* Drained to exactly zero during [advance_volumes]. *)
                  set_flow_rate f 0.;
                  I.remove idx f
                end)
              lt.lflows;
            if Array.for_all (fun f -> f.remaining <= 0.) lt.lflows then begin
              (* A task that already failed keeps its failure outcome even
                 if a deadline-blind heuristic finishes it later — and the
                 volume it pulled past the deadline is pure waste. *)
              if not lt.failed then begin
                record_outcome lt ~completed:true;
                if Hashtbl.mem swapped_tasks lt.task.Task.id then incr tasks_rescued
              end
              else wasted := !wasted +. Task.total_volume lt.task;
              resolve lt;
              incr processed
            end
          end)
        !active;
      (* Deadline expiries: record the failure (and the remaining-volume
         metric) now; abandon the flows only if the algorithm has
         admission control, otherwise they keep occupying the network. *)
      List.iter
        (fun lt ->
          if (not lt.resolved) && (not lt.failed)
             && lt.task.Task.deadline <= !now +. time_epsilon
          then begin
            record_outcome lt ~completed:false;
            lt.failed <- true;
            if alg.Algorithm.abandon_expired then drop_flows lt;
            incr processed
          end)
        !active;
      (* Faults due now: normalize the whole batch, then kill / re-home /
         lose, then let the repair hook answer each crash. With a
         detector the physical changes only move capacity multipliers
         (dirty-marking the entities); the control-plane reaction — kills,
         re-homes, losses, repair injection — waits for the confirmation
         events below. *)
      (match Fault.advance fstate !now with
       | [] -> ()
       | changes ->
         incr processed;
         List.iter
           (function
             | Fault.Crashed s | Fault.Recovered s ->
               I.mark_dirty idx (Topology.server_entity topo s)
             | Fault.Degraded e | Fault.Restored e -> I.mark_dirty idx e)
           changes;
         let newly_crashed =
           List.filter_map (function Fault.Crashed s -> Some s | _ -> None) changes
         in
         if newly_crashed <> [] && Option.is_none dstate then begin
           handle_crashes newly_crashed;
           match on_failure with
           | None -> ()
           | Some hook -> List.iter (fun s -> inject (hook ~now:!now ~server:s)) newly_crashed
         end);
      (* Detection events due now: update beliefs and counters, then
         settle the servers confirmed dead at this instant exactly as the
         omniscient path settles physical crash batches. *)
      (match dstate with
       | None -> ()
       | Some ds -> (
         match Detector.advance ds !now with
         | [] -> ()
         | devents ->
           incr processed;
           List.iter
             (function
               | Detector.Suspected s ->
                 incr suspicions;
                 Log.debug (fun m -> m "t=%.3f detector suspects server %d" !now s)
               | Detector.Cleared s ->
                 incr false_suspicions;
                 Log.debug (fun m -> m "t=%.3f suspicion of server %d cleared" !now s)
               | Detector.Confirmed s ->
                 incr detections;
                 Log.debug (fun m -> m "t=%.3f server %d confirmed dead" !now s)
               | Detector.Seen_alive s ->
                 Log.debug (fun m -> m "t=%.3f server %d seen alive again" !now s))
             devents;
           let confirmed =
             List.filter_map
               (function Detector.Confirmed s -> Some s | _ -> None)
               devents
           in
           if confirmed <> [] then begin
             handle_crashes confirmed;
             match on_failure with
             | None -> ()
             | Some hook -> List.iter (fun s -> inject (hook ~now:!now ~server:s)) confirmed
           end));
      processed := !processed + retry_pass ();
      (* Arrivals: gather the batch due now and present it in static-slack
         order — the batch analogue of Phase II's urgency ranking, so a
         congestion-aware Phase I sees the most constrained task's flows
         first (each spawn's view includes the earlier ones). *)
      let batch = ref [] in
      while
        !next_pending < Array.length pending
        && pending.(!next_pending).Task.arrival <= !now +. time_epsilon
      do
        batch := pending.(!next_pending) :: !batch;
        incr next_pending;
        incr processed
      done;
      let rec drain_injected () =
        match !injected with
        | t :: rest when t.Task.arrival <= !now +. time_epsilon ->
          injected := rest;
          batch := t :: !batch;
          incr processed;
          drain_injected ()
        | _ -> ()
      in
      drain_injected ();
      let static_slack (t : Task.t) =
        let dest_cap =
          (Topology.entity topo (Topology.server_entity topo t.Task.destination))
            .Topology.capacity
        in
        t.Task.deadline -. t.Task.arrival -. (Task.total_volume t /. dest_cap)
      in
      List.stable_sort (fun a b -> Float.compare (static_slack a) (static_slack b)) !batch
      |> List.iter spawn;
      active := List.filter (fun lt -> not lt.resolved) !active;
      if !processed = 0 && dt <= 0. then begin
        incr stalls;
        if !stalls > 1000 then failwith "Engine.run: stalled (no event progress)"
      end
      else stalls := 0;
      incr events;
      replan ();
      (* Rates just moved: start/refresh/clear stall timers against the
         new allocation so the next event horizon sees them. *)
      update_retry_clocks ()
    done;
    let horizon = max !now 1e-9 in
    let util_sum = ref 0. in
    Array.iteri
      (fun e bits ->
        let raw = (Topology.entity topo e).Topology.capacity in
        util_sum := !util_sum +. (bits /. (raw *. horizon)))
      entity_bits;
    let outcomes_list =
      Array.to_list pending @ List.rev !injected_all
      |> List.sort (fun (a : Task.t) b -> compare a.Task.id b.Task.id)
      (* lint: allow partial-stdlib — the main loop runs until every
         pending or injected task has been recorded: each task ends in
         exactly one of resolve/expire/fail/lose, and all four write
         [outcomes] *)
      |> List.map (fun (t : Task.t) -> Hashtbl.find outcomes t.Task.id)
    in
    { Metrics.algorithm = alg.Algorithm.name;
      outcomes = outcomes_list;
      horizon;
      transferred = !moved_total;
      wasted = !wasted;
      utilization = (if nent = 0 then 0. else !util_sum /. float_of_int nent);
      plan_time = !plan_time;
      plan_calls = !plan_calls;
      events = !events;
      clamp_events = !clamp_events;
      flows_killed = !flows_killed;
      tasks_rehomed = !tasks_rehomed;
      tasks_lost = !tasks_lost;
      swaps_attempted = !swaps_attempted;
      swaps_successful = !swaps_successful;
      tasks_rescued = !tasks_rescued;
      tasks_shed_early = !tasks_shed_early;
      shed_volume = !shed_volume;
      suspicions = !suspicions;
      false_suspicions = !false_suspicions;
      detections = !detections;
      bytes_resumed = !bytes_resumed;
      retries_attempted = !retries_attempted;
      retries_exhausted = !retries_exhausted
    }
end

module type S = module type of Make (Flow_index)

include Make (Flow_index)
