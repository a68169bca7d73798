(* One round: every operation of the workload once, measured from
   outside. Untraced rounds reset the metrics registry once and take one
   snapshot at the end; traced rounds wrap each operation in its own
   span scope and snapshot the counters per operation. *)

open Wfde

type op_record = {
  op : Workloads.op;
  ms : float;  (** wall time of the operation *)
  counters : Obs.Metrics.snapshot;  (** this operation's counters *)
}

type t = {
  traced : bool;
  wall : float;  (** seconds *)
  cpu : float;  (** process CPU seconds, all domains *)
  steps : int;  (** scheduler steps *)
  minor_words : float;
  promoted_words : float;
  attempted : int;
  failed : int;
  unexpected : (string * string) list;  (** (label, report) of failures not known *)
  snapshots : Obs.Metrics.snapshot list;  (** whole round (one) or per operation *)
  records : op_record list;  (** traced rounds only *)
}

(* getrusage, all domains: microseconds, where times(2) counts clock
   ticks *)
let cpu_now = Sys.time

let counter snap name = Option.value ~default:0 (Obs.Metrics.find_counter snap name)

let total snaps name = List.fold_left (fun acc s -> acc + counter s name) 0 snaps

let run ?sink ~trace_prefix ~traced (ops : Workloads.op list) =
  Obs.Metrics.reset ();
  let g0 = Gc.quick_stat () in
  let c0 = cpu_now () in
  let t0 = Unix.gettimeofday () in
  let attempted = ref 0 and failed = ref 0 and unexpected = ref [] in
  let records = ref [] in
  let outcome (op : Workloads.op) = function
    | Ok () -> ()
    | Error report ->
        incr failed;
        if not op.Workloads.known_fault then
          unexpected := (op.Workloads.label, report) :: !unexpected
  in
  (* an exception is a failed operation, not the end of the run *)
  let call (op : Workloads.op) scope =
    try op.Workloads.run scope with e -> Error (Printexc.to_string e)
  in
  List.iter
    (fun (op : Workloads.op) ->
      incr attempted;
      if not traced then outcome op (call op Obs.Span.null)
      else begin
        (* a check sweep records a span per DPOR unit and phase *)
        let capacity = if op.Workloads.kind = "check" then 4096 else 64 in
        let scope =
          Obs.Span.make ~capacity ~trace:(trace_prefix ^ op.Workloads.label) ()
        in
        Obs.Metrics.reset ();
        let s0 = Unix.gettimeofday () in
        let r =
          Obs.Span.with_ scope ("op." ^ op.Workloads.kind) (fun () -> call op scope)
        in
        let s1 = Unix.gettimeofday () in
        records :=
          { op; ms = 1000. *. (s1 -. s0); counters = Obs.Metrics.snapshot () }
          :: !records;
        Option.iter (fun sink -> Obs.Span.absorb sink scope) sink;
        outcome op r
      end)
    ops;
  let t1 = Unix.gettimeofday () in
  let c1 = cpu_now () in
  let g1 = Gc.quick_stat () in
  let records = List.rev !records in
  let snapshots =
    if traced then List.map (fun r -> r.counters) records
    else [ Obs.Metrics.snapshot () ]
  in
  {
    traced;
    wall = t1 -. t0;
    cpu = c1 -. c0;
    steps = total snapshots "kernel.scheduler.steps";
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    attempted = !attempted;
    failed = !failed;
    unexpected = List.rev !unexpected;
    snapshots;
    records;
  }
