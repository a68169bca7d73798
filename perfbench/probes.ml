(* Short probes of the public calls the workloads lean on: a fixed
   amount of one kind of work, timed and counted in minor words from
   outside. Each returns per-unit figures; [run] returns every probe's
   per-layer metrics as (name, value). *)

open Wfde
open Kernel

let measure f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  (t1 -. t0, Gc.minor_words () -. w0, r)

let ns s = s *. 1e9
let forever body () = while true do body () done

(* Fibers stepping forever under [Run.exec] (round-robin, no crashes):
   seconds and words per scheduler step. *)
let per_step ?(n = 2) ?(horizon = 200_000) body =
  let pattern = Failure_pattern.no_failures ~n_plus_1:n in
  let dt, words, r =
    measure (fun () ->
        Run.exec ~pattern ~policy:(Policy.round_robin ()) ~horizon
          ~procs:(fun pid -> [ forever (body pid) ])
          ())
  in
  let steps = float_of_int r.Run.steps in
  (dt /. steps, words /. steps, r)

let step () = per_step (fun _ () -> Sim.yield ())

let trace_record () =
  let b = Trace.builder () in
  let ev = Trace.Step { pid = 0; time = 0; kind = Sim.Nop; note = None } in
  let n = 1_000_000 in
  let dt, words, () = measure (fun () -> for _ = 1 to n do Trace.record b ev done) in
  (dt /. float_of_int n, words /. float_of_int n)

let register_op () =
  let reg = Memory.Register.create ~name:"probe" 0 in
  let s, w, _ =
    per_step (fun pid () ->
        Memory.Register.write reg pid;
        ignore (Memory.Register.read reg))
  in
  (s, w)

(* One scanner against two concurrent updaters of a 3-slot Afek
   snapshot: steps per completed scan, and the time those steps take. *)
let snapshot_scan () =
  let snap = Memory.Snapshot.create ~name:"probe" ~size:3 ~init:(fun _ -> 0) in
  let scans = ref 0 in
  let s, _, r =
    per_step ~n:3 ~horizon:60_000 (fun pid () ->
        if pid = 0 then (ignore (Memory.Snapshot.scan snap); incr scans)
        else Memory.Snapshot.update snap ~me:pid pid)
  in
  let scan_steps = float_of_int (Trace.steps_of r.Run.trace 0) /. float_of_int (max 1 !scans) in
  (s *. scan_steps, scan_steps)

let send_poll () =
  let net = Network.create ~name:"probe" ~n_plus_1:2 in
  let s, w, _ =
    per_step (fun pid () ->
        Network.send net ~to_:(1 - pid) pid;
        ignore (Network.poll net ~me:pid))
  in
  (s, w)

let link_poll () =
  let config = { Link.gst = 50_000; delta = 2; pre_delay = 6; loss_pct = 30; link_seed = 9 } in
  let link = Link.create ~name:"probe" ~n_plus_1:2 ~config () in
  let s, _, _ =
    per_step ~horizon:100_000 (fun pid () ->
        Link.send link ~to_:(1 - pid) ();
        ignore (Link.poll link ~me:pid))
  in
  s

let query () =
  let pattern = Failure_pattern.no_failures ~n_plus_1:2 in
  let omega = Detectors.Omega.make ~rng:(Rng.create 7) ~pattern () in
  let source = Detectors.Detector.source omega in
  let s, _, _ = per_step (fun _ () -> ignore (Sim.query source)) in
  s

let counter_incr () =
  let c = Obs.Metrics.counter "perfbench.probe" in
  let n = 10_000_000 in
  let dt, _, () = measure (fun () -> for _ = 1 to n do Obs.Metrics.incr c done) in
  dt /. float_of_int n

let fast_counter () =
  let c = Obs.Metrics.Fast.counter "perfbench.probe_fast" in
  let n = 10_000_000 in
  let dt, _, () = measure (fun () -> for _ = 1 to n do Obs.Metrics.Fast.incr c done) in
  Obs.Metrics.Fast.absorb_counter c;
  dt /. float_of_int n

(* The same check pass on 1 and on 2 worker domains, best of two. *)
let pool_speedup () =
  let pass jobs () =
    ignore (Harness.check_exhaustive ~jobs ~procs:3 ~depth:8 Check.Scenario.Register);
    ignore (Harness.check_exhaustive ~jobs ~procs:3 ~depth:7 Check.Scenario.Abd)
  in
  let best jobs =
    List.fold_left min infinity
      (List.init 2 (fun _ ->
           let dt, _, () = measure (pass jobs) in
           dt))
  in
  let one = best 1 in
  one /. best 2

let run spans =
  let probe name f = Obs.Span.with_ spans ("probe." ^ name) f in
  let step_s, step_w, _ = probe "kernel.step" step in
  let rec_s, rec_w = probe "kernel.trace_record" trace_record in
  let reg_s, reg_w = probe "memory.register" register_op in
  let scan_s, scan_steps = probe "memory.snapshot_scan" snapshot_scan in
  let net_s, net_w = probe "net.send_poll" send_poll in
  let link_s = probe "link.poll" link_poll in
  let query_s = probe "detectors.query" query in
  let incr_s = probe "obs.counter_incr" counter_incr in
  let fast_s = probe "obs.fast_counter" fast_counter in
  let speedup = probe "exec.pool_speedup" pool_speedup in
  [
    ("kernel.step_ns", ns step_s);
    ("kernel.step_words", step_w);
    ("kernel.trace_record_ns", ns rec_s);
    ("kernel.trace_words_per_event", rec_w);
    ("memory.register_op_ns", ns reg_s);
    ("memory.register_op_words", reg_w);
    ("memory.snapshot_scan_ns", ns scan_s);
    ("memory.snapshot_scan_steps", scan_steps);
    ("net.send_poll_ns", ns net_s);
    ("net.send_poll_words", net_w);
    ("link.poll_ns", ns link_s);
    ("detectors.query_ns", ns query_s);
    ("obs.counter_incr_ns", ns incr_s);
    ("obs.fast_counter_ns", ns fast_s);
    ("exec.pool_speedup", speedup);
  ]
