(* Per-layer metrics of a traced run: counters of one traced round
   (they repeat exactly from round to round), median busy time per
   operation kind over the traced rounds, span phase totals from the
   check layer's own hook, ratios taken from the untraced rounds, and
   the probes; as (name, value), named as in BENCHMARK.json. *)

open Wfde

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b

let sum_prefix snaps prefix =
  List.fold_left
    (fun acc s ->
      List.fold_left
        (fun acc (name, v) -> if String.starts_with ~prefix name then acc + v else acc)
        acc s.Obs.Metrics.counters)
    0 snaps

let hist_mean snaps name =
  let sum, events =
    List.fold_left
      (fun (sum, events) s ->
        match Obs.Metrics.find_histogram s name with
        | Some h -> (sum +. h.Obs.Metrics.sum, events + h.Obs.Metrics.events)
        | None -> (sum, events))
      (0., 0) snaps
  in
  ratio sum (float_of_int events)

let span_ms spans name =
  List.fold_left
    (fun acc (s : Obs.Span.t) ->
      if s.Obs.Span.name = name then
        acc +. (float_of_int (s.Obs.Span.stop_us - s.Obs.Span.start_us) /. 1000.)
      else acc)
    0. spans

let kind_ms =
  [
    ("harness.fig1_ms", "fig1");
    ("harness.fig2_ms", "fig2");
    ("harness.extraction_ms", "extraction");
    ("harness.msg_consensus_ms", "msg_consensus");
    ("harness.msg_consensus_hb_ms", "msg_consensus_hb");
    ("harness.hb_detector_ms", "hb_detector");
    ("experiments.e10_world_ms", "e10_world");
    ("harness.check_ms", "check");
  ]

(* [spans_of_round] gives the spans a traced round recorded, one list
   per round, in the order of [traced]. *)
let compute ~(untraced : Round.t list) ~(traced : Round.t list) ~spans_of_round
    ~naive_ms ~probes =
  let last = List.nth traced (List.length traced - 1) in
  let snaps = last.Round.snapshots in
  let c name = float_of_int (Round.total snaps name) in
  let cp prefix = float_of_int (sum_prefix snaps prefix) in
  let op_counter (r : Round.op_record) name = Round.counter r.Round.counters name in
  let horizon_runs =
    List.length
      (List.filter
         (fun (r : Round.op_record) ->
           r.Round.op.Workloads.world_run
           && op_counter r "kernel.scheduler.quiescent_stops"
              + op_counter r "kernel.scheduler.policy_stops"
              = 0)
         last.Round.records)
  in
  (* Network steps are labelled as writes: an operation's polls are its
     write-kind steps less its sends, in operations that send at all. *)
  let polls =
    List.fold_left
      (fun acc (r : Round.op_record) ->
        let sent = sum_prefix [ r.Round.counters ] "net.sent{" in
        if sent = 0 then acc
        else acc + op_counter r "kernel.scheduler.steps{kind=write}" - sent)
      0 last.Round.records
  in
  let med f rounds = median (List.map f rounds) in
  let untraced_wall = med (fun r -> r.Round.wall) untraced in
  let op_ms kind =
    median
      (List.concat_map
         (fun (r : Round.t) ->
           List.filter_map
             (fun (o : Round.op_record) ->
               if o.Round.op.Workloads.kind = kind then Some o.Round.ms else None)
             r.Round.records)
         traced)
  in
  let phase name = median (List.map (fun spans -> span_ms spans name) spans_of_round) in
  let delivered = cp "net.delivered{" in
  [
    ("kernel.steps.read", c "kernel.scheduler.steps{kind=read}");
    ("kernel.steps.write", c "kernel.scheduler.steps{kind=write}");
    ("kernel.steps.query", c "kernel.scheduler.steps{kind=query}");
    ("kernel.steps.send", c "kernel.scheduler.steps{kind=send}");
    ("kernel.steps.recv", c "kernel.scheduler.steps{kind=recv}");
    ("kernel.steps.nop", c "kernel.scheduler.steps{kind=nop}");
    ("kernel.fiber_suspensions", c "kernel.fiber.suspensions");
    ("kernel.horizon_runs", float_of_int horizon_runs);
    ( "kernel.words_per_step",
      med (fun r -> ratio r.Round.minor_words (float_of_int r.Round.steps)) untraced );
    ("memory.abd_ops", c "memory.abd.reads" +. c "memory.abd.writes");
    ("memory.abd_op_steps", hist_mean snaps "memory.abd.op_latency");
    ("net.sent", cp "net.sent{");
    ("net.delivered", delivered);
    ("net.polls", float_of_int polls);
    ("net.delivered_per_poll", ratio delivered (float_of_int polls));
    ("link.sent", cp "net.link.sent{");
    ("link.delivered", cp "net.link.delivered{");
    ("link.dropped", cp "net.link.dropped{");
    ("link.delayed", cp "net.link.delayed{");
    ("detectors.queries", c "detectors.queries");
    ("hb.heartbeats", cp "hb.heartbeats{");
    ("hb.suspicions", cp "hb.suspicions{");
    ("hb.timeout_raises", cp "hb.timeout_raises{");
    ("check.executions", c "check.dpor.executions");
    ("check.deduped", c "check.dpor.deduped");
    ("check.sleep_blocked", c "check.dpor.sleep_blocked");
    ("check.races", c "check.dpor.races");
    ("check.backtrack_points", c "check.dpor.backtrack_points");
    ("check.shrink_replays", c "check.shrink.replays");
    ("check.steps_per_execution", hist_mean snaps "check.dpor.execution_steps");
    ("check.dpor_executions_ms", phase "dpor.executions");
    ("check.race_analysis_ms", phase "dpor.race_analysis");
    ("check.shrink_ms", phase "check.shrink");
    ("check.naive_ms", naive_ms);
    ("exec.pool_units", c "exec.pool.units");
    ("exec.cpu_per_wall", med (fun r -> ratio r.Round.cpu r.Round.wall) untraced);
    ( "obs.tracing_overhead",
      ratio (med (fun r -> r.Round.wall) traced) untraced_wall );
  ]
  @ List.map (fun (name, kind) -> (name, op_ms kind)) kind_ms
  @ probes
