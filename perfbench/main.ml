(* Benchmark entry point: main.exe --workload NAME --seed N --seconds S
   --trace 0|1 [--spans FILE].

   A run sets the workload up and replays it, round after round, until
   the time budget is spent. Calibration passes bracket every round and
   scale its host timings to a fixed reference speed (see calib.ml);
   the metrics are medians of the scaled timings over the rounds. With
   --trace 0 every replay is untraced and the end-to-end metrics are
   printed; with --trace 1 untraced and traced replays alternate and
   the per-layer metrics are printed. Every replay's
   outputs are checked; the last line of stdout is one JSON object, and
   the exit code is 1 when any check failed. *)

module W = Workloads
module Task = S3_workload.Task
module Metrics = S3_sim.Metrics

let fail_usage msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline
    "usage: main.exe --workload (burst-10k|waves-4k|repair-storm) --seed N --seconds S \
     --trace 0|1 [--spans FILE]";
  exit 2

let args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> fail_usage ("unexpected argument " ^ a)
  in
  go [] (List.tl (Array.to_list Sys.argv))

let arg name = List.assoc_opt name args

let int_arg name =
  match Option.map int_of_string_opt (arg name) with
  | Some (Some v) -> v
  | _ -> fail_usage ("--" ^ name ^ " needs an integer")

let workload =
  match arg "workload" with
  | Some w when List.mem w W.names -> w
  | _ -> fail_usage "--workload must name one of the workloads"

let seed = int_arg "seed"
let seconds = float_of_int (int_arg "seconds")

let traced =
  match arg "trace" with
  | Some "0" -> false
  | Some "1" -> true
  | _ -> fail_usage "--trace must be 0 or 1"

(* ---------------------------------------------------------------- *)
(* Statistics                                                         *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile; 0 for an empty sample. *)
let pct p a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

let median a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median_of f l = median (Array.of_list (List.map f l))

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> 0.
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb -> kb /. 1024.)
        | Some _ -> find ()
      in
      find ())

(* ---------------------------------------------------------------- *)
(* Correctness                                                        *)

let failures = ref []
let violation fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

(* An operation is one submitted task or one chunk rebuild. A task
   fails when its outcome is missing, duplicated or inconsistent; a
   run-level violation fails every operation of the replay. A deadline
   miss is a simulated outcome, not a failure. *)
let check_replay i (r : W.result) =
  let run = r.run in
  let outcomes = Hashtbl.create 4096 in
  List.iter
    (fun (o : Metrics.outcome) -> Hashtbl.add outcomes o.task.Task.id o)
    run.Metrics.outcomes;
  let eps = 1e-6 in
  let consistent (t : Task.t) =
    match Hashtbl.find_all outcomes t.Task.id with
    | [ o ] ->
      let s = o.sources in
      let n = Array.length s in
      let distinct_candidates =
        Array.for_all (fun x -> Array.mem x t.Task.sources) s
        && List.length (List.sort_uniq compare (Array.to_list s)) = n
      in
      if o.completed then
        n = t.Task.k && distinct_candidates && o.remaining = 0.
        && o.finish_time >= t.Task.arrival -. eps
        && o.finish_time <= t.Task.deadline +. eps
      else
        (n = 0 || (n = t.Task.k && distinct_candidates))
        && o.remaining >= 0.
        && o.remaining <= Task.total_volume t +. eps
    | _ -> false
  in
  let tasks = List.length r.submitted in
  let bad_tasks = List.length (List.filter (fun t -> not (consistent t)) r.submitted) in
  if List.length run.Metrics.outcomes <> tasks then
    violation "replay %d: %d outcomes for %d tasks" i (List.length run.Metrics.outcomes) tasks;
  let completed_volume =
    List.fold_left
      (fun acc (o : Metrics.outcome) ->
        if o.completed then acc +. Task.total_volume o.task else acc)
      0. run.Metrics.outcomes
  in
  let balance = completed_volume +. run.Metrics.wasted +. run.Metrics.shed_volume in
  let run_level =
    run.Metrics.clamp_events > 0
    || Float.abs (run.Metrics.transferred -. balance)
       > 1e-6 *. Float.max 1. run.Metrics.transferred
  in
  if run.Metrics.clamp_events > 0 then
    violation "replay %d: %d clamp events" i run.Metrics.clamp_events;
  if run_level && run.Metrics.clamp_events = 0 then
    violation "replay %d: conservation broken: transferred %.6f vs %.6f" i
      run.Metrics.transferred balance;
  if bad_tasks > 0 then violation "replay %d: %d inconsistent task outcomes" i bad_tasks;
  if r.rebuild_failed > 0 then violation "replay %d: %d rebuilds failed" i r.rebuild_failed;
  let attempted = tasks + r.rebuilds in
  (attempted, if run_level then attempted else bad_tasks + r.rebuild_failed)

(* ---------------------------------------------------------------- *)
(* Replays                                                            *)

(* Deterministic counts of a run, compared exactly across replays. *)
let counts (r : Metrics.run) =
  [ ("sim.engine.events", r.events);
    ("sim.engine.plan_calls", r.plan_calls);
    ("sim.engine.clamp_events", r.clamp_events);
    ("sim.engine.flows_killed", r.flows_killed);
    ("sim.engine.tasks_rehomed", r.tasks_rehomed);
    ("sim.watchdog.swaps_attempted", r.swaps_attempted);
    ("sim.watchdog.swaps_successful", r.swaps_successful);
    ("sim.retry.retries_attempted", r.retries_attempted);
    ("fault.detector.detections", r.detections)
  ]

(* What is kept of one replay once it has been checked. Only the first
   replay's full result is kept, so memory does not grow with the
   number of replays. *)
type replay = {
  index : int;
  traced : bool;
  scale : float;  (** the round's calibration scale, [Calib.scale] *)
  calib_s : float;  (** the round's calibration pass time *)
  setup_s : float;  (** the fastest set-up of this replay's round *)
  wall_s : float;
  event_p50 : float;
  event_p99 : float;
  ingest : int * float;  (** bytes, seconds *)
  rebuild : int * float;
  fingerprint : string;
  counts : (string * int) list;
  attempted : int;
  failed : int;
  minor_mb : float;
  promoted_mb : float;
  major_collections : int;
}

let spans = Span.create ()
let kept = ref None

(* Set up, then replay. Every round sets the inputs up afresh right
   before its replays, three times, keeping the fastest time and the
   last inputs; so setup_s samples the same stretches of host speed as
   wall_s does. The previous inputs are dropped first, and every set-up
   and replay starts from a compacted heap. *)
let set_up () =
  let once () =
    Gc.compact ();
    let t0 = W.now () in
    let inputs = W.setup workload seed in
    (W.now () -. t0, inputs)
  in
  let t1, _ = once () in
  let t2, _ = once () in
  let t3, inputs = once () in
  (Float.min t1 (Float.min t2 t3), inputs)

let one index ~traced (setup_s, inputs) =
  Span.set_run spans index;
  (* Every replay starts from a compacted heap, so garbage left by the
     previous one is not charged to it. *)
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let r = W.replay ?trace:(if traced then Some spans else None) inputs in
  let g1 = Gc.quick_stat () in
  let mb w = 8. *. w /. 1e6 in
  let fingerprint = S3_sim.Report.fingerprint r.run in
  Printf.printf
    "replay %d %s setup_s=%.4f wall_s=%.4f ingest_s=%.4f rebuild_s=%.4f events=%d fingerprint=%s\n%!"
    index
    (if traced then "traced" else "untraced")
    setup_s r.wall_s r.ingest_s r.rebuild_s r.run.Metrics.events fingerprint;
  let attempted, failed = check_replay index r in
  if Option.is_none !kept then kept := Some r;
  { index;
    traced;
    scale = 1.;
    calib_s = 0.;
    setup_s;
    wall_s = r.wall_s;
    event_p50 = pct 50. r.event_ms;
    event_p99 = pct 99. r.event_ms;
    ingest = (r.ingest_bytes, r.ingest_s);
    rebuild = (r.rebuild_bytes, r.rebuild_s);
    fingerprint;
    counts = counts r.run;
    attempted;
    failed;
    minor_mb = mb (g1.Gc.minor_words -. g0.Gc.minor_words);
    promoted_mb = mb (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections
  }

(* Replay until the budget is spent: at least five untraced replays
   (or three untraced/traced pairs), and no round started that the last
   round's length says would overrun. A calibration pass ends every
   round and also serves as the next round's opening one. *)
let replays =
  let start = W.now () in
  let acc = ref [] and rounds = ref 0 and last = ref 0. in
  let min_rounds = if traced then 3 else 5 in
  let before = ref (Calib.pass ()) in
  while !rounds < min_rounds || W.now () -. start +. !last <= seconds do
    let t0 = W.now () in
    let n = List.length !acc in
    let inputs = set_up () in
    (* Alternate which kind goes first, so drift affects both alike. *)
    let round =
      if not traced then [ one n ~traced:false inputs ]
      else
        let a = one n ~traced:(!rounds mod 2 = 1) inputs in
        [ a; one (n + 1) ~traced:(not a.traced) inputs ]
    in
    let after = Calib.pass () in
    let calib_s = sqrt (!before *. after) in
    let scale = Calib.scale calib_s in
    before := after;
    Printf.printf "round %d calib_ms=%.3f scale=%.4f\n%!" !rounds (1e3 *. calib_s) scale;
    acc := List.rev_append (List.map (fun p -> { p with scale; calib_s }) round) !acc;
    incr rounds;
    last := W.now () -. t0
  done;
  List.rev !acc

let untraced = List.filter (fun p -> not p.traced) replays
let traced_runs = List.filter (fun p -> p.traced) replays
let first = List.hd replays
let first_result = Option.get !kept
let attempted = List.fold_left (fun a p -> a + p.attempted) 0 replays
let failed = List.fold_left (fun f p -> f + p.failed) 0 replays

let () =
  List.iter
    (fun p ->
      if p.fingerprint <> first.fingerprint then
        violation "replay %d fingerprint %s differs from replay %d" p.index p.fingerprint
          first.index;
      if p.counts <> first.counts then
        violation "replay %d counts differ from replay %d" p.index first.index)
    replays

(* ---------------------------------------------------------------- *)
(* Metrics                                                            *)

let metrics = ref []
let metric name unit value = metrics := (name, unit, value) :: !metrics
let run = first_result.run
let submitted = float_of_int (List.length first_result.submitted)

(* Host timings are scaled to the reference speed by their round's
   calibration, then reduced to the median over the run's replays. *)
let scaled f l = median_of (fun p -> p.scale *. f p) l

let end_to_end () =
  metric "wall_s" "s" (scaled (fun p -> p.wall_s) untraced);
  metric "setup_s" "s" (scaled (fun p -> p.setup_s) replays);
  metric "event_ms_p50" "ms" (scaled (fun p -> p.event_p50) untraced);
  metric "event_ms_p99" "ms" (scaled (fun p -> p.event_p99) untraced);
  metric "peak_rss_mb" "MB" (peak_rss_mb ());
  metric "on_time_frac" "fraction" (float_of_int (Metrics.completed run) /. submitted);
  metric "remaining_gb" "GB" (Metrics.remaining_volume_gb run);
  Printf.printf "untraced replays: %d, %d events each; unscaled median wall_s %.4f\n"
    (List.length untraced) run.events (median_of (fun p -> p.wall_s) untraced)

let per_layer () =
  let layer_sets = List.map (fun p -> (p.scale, Span.layers spans ~run:p.index)) traced_runs in
  let layer name = List.map (fun (scale, l) -> (scale, l name)) layer_sets in
  let self name =
    median (Array.of_list (List.map (fun (scale, (l : Span.layer)) -> scale *. l.self_s) (layer name)))
  in
  let durations name =
    Array.concat
      (List.map (fun (scale, (l : Span.layer)) -> Array.map (( *. ) scale) l.durations) (layer name))
  in
  let calls name = (snd (List.hd (layer name))).Span.calls in
  (* [pcts] gives the unit and scale of the call-duration percentiles. *)
  let timed ?pcts name =
    metric (name ^ ".calls") "count" (float_of_int (calls name));
    metric (name ^ ".self_s") "s" (self name);
    Option.iter
      (fun (unit, scale) ->
        metric (name ^ "." ^ unit ^ "_p50") unit (scale *. pct 50. (durations name));
        metric (name ^ "." ^ unit ^ "_p99") unit (scale *. pct 99. (durations name)))
      pcts
  in
  timed W.n_select ~pcts:("us", 1e6);
  timed W.n_allocate ~pcts:("ms", 1e3);
  timed W.n_reselect;
  metric "sim.engine.self_s" "s" (self W.n_event);
  List.iter (fun (name, v) -> metric name "count" (float_of_int v)) (counts run);
  metric "sim.engine.bytes_resumed_gb" "GB" (run.bytes_resumed /. 8000.);
  metric "sim.engine.goodput_frac" "fraction"
    (if run.transferred > 0. then
       List.fold_left
         (fun acc (o : Metrics.outcome) ->
           if o.completed then acc +. Task.total_volume o.task else acc)
         0. run.outcomes
       /. run.transferred
     else 0.);
  timed W.n_write ~pcts:("ms", 1e3);
  timed W.n_repair ~pcts:("ms", 1e3);
  metric "storage.fail_server.self_s" "s" (self W.n_fail);
  (* Bytes over scaled seconds of one step, summed over the untraced
     replays. *)
  let rate step =
    let b = List.fold_left (fun acc p -> acc + fst (step p)) 0 untraced
    and s = List.fold_left (fun acc p -> acc +. (p.scale *. snd (step p))) 0. untraced in
    if s > 0. then float_of_int b /. 1e6 /. s else 0.
  in
  metric "ingest_mbps" "MB/s" (rate (fun p -> p.ingest));
  metric "rebuild_mbps" "MB/s" (rate (fun p -> p.rebuild));
  metric "runtime.gc.minor_mb" "MB" (median_of (fun p -> p.minor_mb) untraced);
  metric "runtime.gc.promoted_mb" "MB" (median_of (fun p -> p.promoted_mb) untraced);
  metric "runtime.gc.major_collections" "count"
    (median_of (fun p -> float_of_int p.major_collections) untraced);
  let wall l = scaled (fun p -> p.wall_s) l in
  metric "trace.overhead_frac" "fraction" ((wall traced_runs /. wall untraced) -. 1.);
  let coverage =
    median_of (fun p -> Span.covered spans ~run:p.index /. p.wall_s) traced_runs
  in
  metric "trace.coverage_frac" "fraction" coverage;
  metric "host.calib_ms" "ms" (median_of (fun p -> 1e3 *. p.calib_s) replays);
  (* Self-checks: the workload still exercises the layer it was chosen for. *)
  let first_traced = snd (List.hd layer_sets) in
  let n name = (first_traced name).Span.calls in
  (match workload with
   | "burst-10k" ->
     if n W.n_select <> 10_000 then violation "burst-10k made %d selections" (n W.n_select)
   | "waves-4k" ->
     if n W.n_allocate < 2_000 then violation "waves-4k made %d allocate calls" (n W.n_allocate)
   | _ ->
     if n W.n_reselect = 0 then violation "repair-storm made no reselect calls";
     if run.swaps_attempted + run.tasks_rehomed = 0 then violation "repair-storm: no swaps or re-homes";
     if run.detections = 0 then violation "repair-storm: no detections";
     if first_result.rebuilds = 0 then violation "repair-storm: no chunk rebuilt");
  if workload <> "burst-10k" && coverage < 0.95 then
    violation "spans cover %.3f of traced wall time (< 0.95)" coverage;
  (* The layer split, for the record: which layer the time went to. *)
  let wall_t = wall traced_runs in
  Printf.printf "layer split (share of traced wall %.3f s):\n" wall_t;
  List.iter
    (fun name -> Printf.printf "  %-22s %6.1f%%\n" name (100. *. self name /. wall_t))
    [ W.n_select; W.n_allocate; W.n_reselect; W.n_event; W.n_write; W.n_repair; W.n_fail;
      W.n_hook ];
  Option.iter (fun path -> Span.write spans path) (arg "spans")

let () =
  if traced then per_layer () else end_to_end ();
  let metrics = List.rev !metrics in
  List.iter
    (fun (name, unit, v) ->
      if not (Float.is_finite v) then violation "metric %s is not finite" name;
      Printf.printf "%-36s %16.6f %s\n" name v unit)
    metrics;
  let failures = List.rev !failures in
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) failures;
  let correct = failures = [] in
  let failed = if correct || failed > 0 then failed else attempted in
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name
             (if Float.is_finite v then v else 0.)
             unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body;
  exit (if correct then 0 else 1)
