(* Output checks: every operation's result is held against a property
   the paper or the method guarantees, never against recorded numbers.
   Each check is a plain function of the layer's output so the
   benchmark-local tests can feed it deliberately wrong values. *)

open Wfde
open Kernel

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt
let ( let* ) = Result.bind

(* Fig 1 (k = n) and Fig 2 (k = f): at most k distinct decisions, every
   correct process decided, only proposed values decided, no recorded
   detector query disagreeing with the history, and the run quiesced
   (every correct process returned). *)
let set_agreement ~k (m : Harness.measurements) =
  let v = m.Harness.verdict in
  if v.Sa_spec.distinct_decided > k then
    fail "%d distinct decisions, at most %d allowed" v.Sa_spec.distinct_decided k
  else if not (Pid.Set.is_empty v.Sa_spec.undecided_correct) then
    fail "%d correct processes undecided"
      (Pid.Set.cardinal v.Sa_spec.undecided_correct)
  else if not v.Sa_spec.validity then fail "a decided value was never proposed"
  else if m.Harness.query_violations > 0 then
    fail "%d detector query violations" m.Harness.query_violations
  else if m.Harness.outcome <> Scheduler.Quiescent then
    fail "run did not quiesce"
  else Ok ()

(* Fig 3: the extracted variable meets the Υᶠ spec and stabilized
   before the run's horizon. *)
let extraction ~horizon (verdict, stabilized_at) =
  let* () = Result.map_error (fun e -> "Υᶠ spec: " ^ e) verdict in
  if stabilized_at >= horizon then
    fail "stabilized at %d, not before the horizon %d" stabilized_at horizon
  else Ok ()

(* Message-passing consensus: exactly one decided value, taken by every
   correct process, a proposed one, and an atomic emulated memory —
   whether the run stopped at its horizon or by quiescence. *)
let consensus ((m : Harness.measurements), memory) =
  let v = m.Harness.verdict in
  let* () = Result.map_error (fun e -> "ABD memory: " ^ e) memory in
  if v.Sa_spec.distinct_decided <> 1 then
    fail "%d distinct decided values, exactly 1 required"
      v.Sa_spec.distinct_decided
  else if not (Pid.Set.is_empty v.Sa_spec.undecided_correct) then
    fail "%d correct processes undecided"
      (Pid.Set.cardinal v.Sa_spec.undecided_correct)
  else if not v.Sa_spec.validity then fail "decided value was never proposed"
  else if m.Harness.query_violations > 0 then
    fail "%d Ω query violations" m.Harness.query_violations
  else Ok ()

(* Heartbeat monitors: the ◇P/◇S spec and the link contract (both
   folded into [Harness.run_hb_detector]'s verdict), stabilized before
   the horizon. *)
let hb_detector ~horizon (verdict, stabilized_at) =
  let* () = verdict in
  if stabilized_at >= horizon then
    fail "stabilized at %d, not before the horizon %d" stabilized_at horizon
  else Ok ()

(* ABD emulation: the op log linearizes and every correct client
   completed all its operations. [completed] lists (correct pid, ops
   logged for it). *)
let abd_world ~per_client ~atomic ~completed =
  let* () = Result.map_error (fun e -> "ABD atomicity: " ^ e) atomic in
  match List.find_opt (fun (_, n) -> n <> per_client) completed with
  | Some (p, n) ->
      fail "correct client %s completed %d of %d ops" (Pid.to_string p) n
        per_client
  | None -> Ok ()

(* A sweep can never run more executions than unreduced enumeration of
   every swept pattern: [naive_bound] is per pattern. *)
let within_naive (o : Harness.check_outcome) =
  let swept = max 1 o.Harness.patterns_swept in
  let bound =
    if o.Harness.naive_bound > max_int / swept then max_int
    else o.Harness.naive_bound * swept
  in
  if o.Harness.executions > bound then
    fail "%d executions exceed the naive bound %d" o.Harness.executions bound
  else Ok ()

(* A clean scenario: no violation anywhere in the full pattern sweep. *)
let clean_check ~patterns (o : Harness.check_outcome) =
  match o.Harness.violation with
  | Some v -> fail "clean scenario reported a violation: %s" v.Harness.cex_report
  | None ->
      if o.Harness.patterns_swept <> patterns then
        fail "swept %d of %d patterns" o.Harness.patterns_swept patterns
      else within_naive o

(* A planted mutant: caught, shrunk, and the shrunk prefix replays to
   the same report. [replay] re-runs a (pattern, prefix) with the mutant
   planted and returns the report it produces, if any. *)
let mutant_check ~replay (o : Harness.check_outcome) =
  match o.Harness.violation with
  | None -> fail "mutant not caught"
  | Some v ->
      if not v.Harness.shrunk then fail "counterexample was not shrunk"
      else
        let* () = within_naive o in
        (match replay ~pattern:v.Harness.cex_pattern ~prefix:v.Harness.cex_prefix with
        | None -> fail "shrunk prefix does not replay to a violation"
        | Some r when r <> v.Harness.cex_report ->
            fail "replay reports %S, sweep reported %S" r v.Harness.cex_report
        | Some _ -> Ok ())

(* Bounded programs: the DPOR verdict equals naive enumeration's, which
   set-up computed. A reduced explorer only runs real schedules, so a
   violation naive does not see is a false positive; one naive sees
   and DPOR does not is a miss. *)
let verdict_agrees ~naive ~dpor =
  match (naive, dpor) with
  | true, true | false, false -> Ok ()
  | false, true -> fail "DPOR reports a violation naive enumeration does not"
  | true, false -> fail "DPOR misses a violation naive enumeration finds"
