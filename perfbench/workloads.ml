(* The three workloads. A workload is one round of operations generated
   from the seed, replayed unchanged in every round of a run, plus a
   short warm-up list that set-up runs untimed. An operation calls into
   one layer's public functions and checks the output; [run] takes the
   span scope to record the calls into (the null scope when untraced). *)

open Wfde
open Kernel

type op = {
  kind : string;  (** operation kind; per-layer busy times are per kind *)
  label : string;  (** unique within the round *)
  world_run : bool;  (** exactly one simulated run (Run.exec) *)
  known_fault : bool;
      (** fails on every run because of a documented program fault *)
  run : Obs.Span.scope -> (unit, string) result;
}

type t = {
  ops : op list;  (** one round *)
  warmup : op list;
  naive_ms : float;  (** naive enumeration in set-up (check-dpor) *)
}

let names = [ "shm-worlds"; "msg-worlds"; "check-dpor" ]
let span = Obs.Span.with_
let op ?(world_run = true) ?(known_fault = false) kind label run =
  { kind; label; world_run; known_fault; run }

let seed_of rng = Rng.int rng 0x3FFFFFFF

(* ------------------------------------------------------- shm-worlds *)

let fig1 ~seed ~n_plus_1 label =
  op "fig1" label (fun sc ->
      let m =
        span sc "harness.run_fig1" (fun () ->
            Harness.run_fig1
              (Harness.random_world ~seed ~n_plus_1 ~max_faulty:(n_plus_1 - 1) ()))
      in
      span sc "bench.check" (fun () -> Checks.set_agreement ~k:(n_plus_1 - 1) m))

let fig2 ~seed ~n_plus_1 ~f label =
  op "fig2" label (fun sc ->
      let m =
        span sc "harness.run_fig2" (fun () ->
            Harness.run_fig2 ~snapshot_impl:Memory.Snap.Registers ~f
              (Harness.random_world ~seed ~n_plus_1 ~max_faulty:f ()))
      in
      span sc "bench.check" (fun () -> Checks.set_agreement ~k:f m))

(* Many short extractions rather than a few at the harness's default
   150 000 steps: the process's high-water RSS after one round settles
   only when the round holds enough of them (six at 150 000 steps left
   it anywhere between 29 and 41 MB from one run to the next). *)
let extraction_horizon = 50_000
let extractions_per_source = 8

let extraction ~seed ~source label =
  op "extraction" label (fun sc ->
      let r =
        span sc "harness.run_extraction_of" (fun () ->
            Harness.run_extraction_of ~horizon:extraction_horizon ~f:2 ~source
              (Harness.random_world ~seed ~n_plus_1:4 ~max_faulty:2 ~latest:150 ()))
      in
      span sc "bench.check" (fun () ->
          Checks.extraction ~horizon:extraction_horizon r))

let shm ~seed =
  let rng = Rng.create seed in
  let fig1s =
    List.init 200 (fun i ->
        fig1 ~seed:(seed_of rng) ~n_plus_1:(3 + Rng.int rng 4)
          (Printf.sprintf "fig1.%d" i))
  in
  let fig2s =
    List.init 200 (fun i ->
        let n_plus_1 = 4 + Rng.int rng 3 in
        fig2 ~seed:(seed_of rng) ~n_plus_1 ~f:(1 + Rng.int rng (n_plus_1 - 1))
          (Printf.sprintf "fig2.%d" i))
  in
  let extractions =
    List.map
      (fun (name, source) ->
        List.init extractions_per_source (fun i ->
            extraction ~seed:(seed_of rng) ~source
              (Printf.sprintf "extraction.%s.%d" name i)))
      [ ("omega", `Omega); ("ev_perfect", `Ev_perfect); ("upsilon_f", `Upsilon_f) ]
  in
  let first n l = List.filteri (fun i _ -> i < n) l in
  {
    ops = fig1s @ fig2s @ List.concat extractions;
    warmup = first 10 fig1s @ first 10 fig2s @ List.concat_map (first 1) extractions;
    naive_ms = 0.;
  }

(* ------------------------------------------------------- msg-worlds *)

(* E10's world: every process runs an ABD server and a client doing
   [per_client] writes and reads; a minority may crash. *)
let abd_per_client = 2

let abd_world ?(horizon = 800_000) ~seed ~n_plus_1 label =
  op "e10_world" label (fun sc ->
      let rng = Rng.create seed in
      let pattern =
        Failure_pattern.random rng ~n_plus_1 ~max_faulty:((n_plus_1 - 1) / 2)
          ~latest:400
      in
      let abd = Memory.Abd.create ~name:"e10" ~n_plus_1 ~init:0 in
      let client me () =
        for j = 1 to abd_per_client do
          Memory.Abd.write abd ~me ~key:"r" ((100 * (me + 1)) + j);
          ignore (Memory.Abd.read abd ~me ~key:"r")
        done
      in
      ignore
        (span sc "kernel.run_exec" (fun () ->
             Run.exec ~pattern ~policy:(Policy.random rng) ~horizon
               ~procs:(fun pid -> [ Memory.Abd.server abd ~me:pid; client pid ])
               ()));
      let atomic =
        span sc "memory.abd.check_atomicity" (fun () ->
            Memory.Abd.check_atomicity abd)
      in
      span sc "bench.check" (fun () ->
          let log = Memory.Abd.oplog abd in
          let completed =
            Pid.Set.elements (Failure_pattern.correct pattern)
            |> List.map (fun p ->
                   ( p,
                     List.length
                       (List.filter (fun o -> Pid.equal o.Memory.Abd.pid p) log) ))
          in
          Checks.abd_world ~per_client:(2 * abd_per_client) ~atomic ~completed))

let consensus_world ~seed = Harness.random_world ~seed ~n_plus_1:3 ~max_faulty:1 ~latest:300 ()

let msg_consensus ?horizon ~seed label =
  op "msg_consensus" label (fun sc ->
      let r =
        span sc "harness.run_msg_consensus" (fun () ->
            Harness.run_msg_consensus ?horizon (consensus_world ~seed))
      in
      span sc "bench.check" (fun () -> Checks.consensus r))

(* D2's lossy pre-GST link under heartbeat Ω. *)
let consensus_link =
  { Link.gst = 60; delta = 2; pre_delay = 8; loss_pct = 40; link_seed = 6 }

let msg_consensus_hb ~seed label =
  op "msg_consensus_hb" label (fun sc ->
      let r =
        span sc "harness.run_msg_consensus" (fun () ->
            Harness.run_msg_consensus ~horizon:120_000 ~omega_impl:consensus_link
              (consensus_world ~seed))
      in
      span sc "bench.check" (fun () -> Checks.consensus r))

(* D1's lossy and adversarial link families. *)
let monitor_links =
  [
    ("lossy", { Link.gst = 40; delta = 2; pre_delay = 0; loss_pct = 60; link_seed = 2 });
    ("adversarial", { Link.gst = 80; delta = 4; pre_delay = 10; loss_pct = 80; link_seed = 4 });
  ]

let hb_horizon = 6_000

let hb_detector ~seed ~mode ~net label =
  op "hb_detector" label (fun sc ->
      let r =
        span sc "harness.run_hb_detector" (fun () ->
            Harness.run_hb_detector ~horizon:hb_horizon ~mode ~net
              (Harness.random_world ~seed ~n_plus_1:3 ~max_faulty:1 ~latest:60 ()))
      in
      span sc "bench.check" (fun () -> Checks.hb_detector ~horizon:hb_horizon r))

let msg ~seed =
  let rng = Rng.create seed in
  let consensus_seed = seed_of rng in
  let abd_seed = seed_of rng and abd_n = List.nth [ 3; 5; 7 ] (Rng.int rng 3) in
  let hb_seeds = List.init 2 (fun _ -> seed_of rng) in
  let monitors =
    List.concat_map
      (fun (link_name, net) ->
        List.map
          (fun (mode_name, mode) ->
            hb_detector ~seed:(seed_of rng) ~mode ~net
              (Printf.sprintf "hb_detector.%s.%s" mode_name link_name))
          [ ("ev_perfect", `Ev_perfect); ("ev_strong", `Ev_strong) ])
      monitor_links
  in
  let hb_consensus =
    List.mapi
      (fun i s -> msg_consensus_hb ~seed:s (Printf.sprintf "msg_consensus_hb.%d" i))
      hb_seeds
  in
  {
    ops =
      [
        msg_consensus ~seed:consensus_seed "msg_consensus";
        abd_world ~seed:abd_seed ~n_plus_1:abd_n (Printf.sprintf "e10_world.n%d" abd_n);
      ]
      @ hb_consensus @ monitors;
    (* the same kinds at a fraction of their horizons *)
    warmup =
      [
        msg_consensus ~horizon:150_000 ~seed:consensus_seed "warmup.msg_consensus";
        abd_world ~horizon:150_000 ~seed:abd_seed ~n_plus_1:abd_n "warmup.e10_world";
        List.hd hb_consensus;
        List.hd monitors;
      ];
    naive_ms = 0.;
  }

(* ------------------------------------------------------- check-dpor *)

let check_jobs = 2

let replay ~obj ~procs ~horizon ~mutant ~pattern ~prefix =
  Check.Mutant.with_ (Some mutant) (fun () ->
      let fibers, check = Check.Scenario.make obj ~procs () in
      let policy = Policy.script prefix ~then_:(Policy.round_robin ()) in
      let result = Run.exec ~pattern ~policy ~horizon ~procs:fibers () in
      match check result.Run.trace with Ok () -> None | Error r -> Some r)

let check_op ?mutant ~procs ~depth ~horizon obj =
  let label =
    Printf.sprintf "check.%s%s.p%d.d%d" (Check.Scenario.to_string obj)
      (match mutant with None -> "" | Some m -> "." ^ Check.Mutant.to_string m)
      procs depth
  in
  let patterns = List.length (Check.Scenario.patterns obj ~procs) in
  op ~world_run:false "check" label (fun sc ->
      let o =
        span sc "harness.check_exhaustive" (fun () ->
            Harness.check_exhaustive ~jobs:check_jobs ~procs ~depth ~horizon
              ~spans:sc ?mutant obj)
      in
      match mutant with
      | None -> span sc "bench.check" (fun () -> Checks.clean_check ~patterns o)
      | Some mutant ->
          span sc "check.replay" (fun () ->
              Checks.mutant_check
                ~replay:
                  (replay ~obj ~procs:o.Harness.check_procs
                     ~horizon:o.Harness.check_horizon ~mutant)
                o))

let program_op ?(known_fault = false) ~naive w label =
  op ~world_run:false ~known_fault "battery" label (fun sc ->
      let dpor = span sc "check.dpor.explore" (fun () -> Programs.dpor_verdict w) in
      span sc "bench.check" (fun () -> Checks.verdict_agrees ~naive ~dpor))

let battery_size = 48

let check ~seed =
  let rng = Rng.create seed in
  let hb = Check.Scenario.Hb_detector Check.Scenario.default_chaos in
  let chaos = Check.Scenario.Link_chaos Check.Scenario.default_chaos in
  let clean =
    [
      check_op ~procs:3 ~depth:8 ~horizon:400 Check.Scenario.Register;
      check_op ~procs:3 ~depth:8 ~horizon:400 Check.Scenario.Snapshot;
      check_op ~procs:3 ~depth:8 ~horizon:400 Check.Scenario.Abd;
      check_op ~procs:3 ~depth:8 ~horizon:400 Check.Scenario.Commit_adopt;
      check_op ~procs:3 ~depth:6 ~horizon:500 hb;
      check_op ~procs:2 ~depth:8 ~horizon:500 chaos;
    ]
  in
  let mutants =
    let m mutant = Some mutant in
    [
      check_op ?mutant:(m Check.Mutant.Abd_skip_write_back) ~procs:3 ~depth:8 ~horizon:400 Check.Scenario.Abd;
      check_op ?mutant:(m Check.Mutant.Snapshot_single_collect) ~procs:3 ~depth:12 ~horizon:400
        Check.Scenario.Snapshot;
      check_op ?mutant:(m Check.Mutant.Converge_drop_phase2) ~procs:2 ~depth:6 ~horizon:400
        Check.Scenario.Commit_adopt;
      check_op ?mutant:(m Check.Mutant.Hb_timeout_never_increased) ~procs:2 ~depth:5 ~horizon:500 hb;
      check_op ?mutant:(m Check.Mutant.Hb_suspected_not_restored) ~procs:2 ~depth:5 ~horizon:500 hb;
    ]
  in
  let t0 = Unix.gettimeofday () in
  let programs =
    List.init battery_size (fun i ->
        let w = Programs.generate rng in
        program_op ~naive:(Programs.naive_verdict w) w (Printf.sprintf "battery.%d" i))
  in
  let witness =
    program_op ~known_fault:true
      ~naive:(Programs.naive_verdict Programs.tail_race_witness)
      Programs.tail_race_witness "battery.tail_race_witness"
  in
  let naive_ms = 1000. *. (Unix.gettimeofday () -. t0) in
  {
    ops = clean @ mutants @ programs @ [ witness ];
    warmup = [ List.hd clean; List.hd mutants; List.hd programs ];
    naive_ms;
  }

let make name ~seed =
  match name with
  | "shm-worlds" -> shm ~seed
  | "msg-worlds" -> msg ~seed
  | "check-dpor" -> check ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)
