(* Every output check of the benchmark accepts a real output of the
   layer it guards and rejects a deliberately wrong one, so no check is
   vacuous. *)

open Wfde
open Kernel
open Perfbench

let ok what r =
  match r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: expected acceptance, got %s" what e

let rejects what r =
  Alcotest.(check bool) (what ^ " is rejected") true (Result.is_error r)

let fig1_run () =
  Harness.run_fig1 (Harness.random_world ~seed:11 ~n_plus_1:4 ~max_faulty:3 ())

let test_set_agreement () =
  let m = fig1_run () in
  ok "real fig1 run" (Checks.set_agreement ~k:3 m);
  let v = m.Harness.verdict in
  let with_verdict v' = { m with Harness.verdict = v' } in
  rejects "k+1 distinct decisions"
    (Checks.set_agreement ~k:3 (with_verdict { v with Sa_spec.distinct_decided = 4 }));
  rejects "fewer allowed decisions than taken"
    (Checks.set_agreement ~k:(v.Sa_spec.distinct_decided - 1) m);
  rejects "an undecided correct process"
    (Checks.set_agreement ~k:3
       (with_verdict { v with Sa_spec.undecided_correct = Pid.Set.singleton 0 }));
  rejects "an unproposed decision"
    (Checks.set_agreement ~k:3 (with_verdict { v with Sa_spec.validity = false }));
  rejects "a query violation"
    (Checks.set_agreement ~k:3 { m with Harness.query_violations = 1 });
  rejects "a run stopped at its horizon"
    (Checks.set_agreement ~k:3 { m with Harness.outcome = Scheduler.Horizon })

let test_extraction () =
  let world = Harness.random_world ~seed:3 ~n_plus_1:4 ~max_faulty:2 ~latest:150 () in
  let r = Harness.run_extraction_of ~horizon:40_000 ~tail:10_000 ~f:2 ~source:`Omega world in
  ok "real extraction" (Checks.extraction ~horizon:40_000 r);
  rejects "a failed Υᶠ verdict" (Checks.extraction ~horizon:40_000 (Error "bad", snd r));
  rejects "stabilization at the horizon" (Checks.extraction ~horizon:40_000 (Ok (), 40_000))

let test_consensus () =
  let m, memory =
    Harness.run_msg_consensus ~horizon:100_000
      (Harness.random_world ~seed:5 ~n_plus_1:3 ~max_faulty:1 ~latest:300 ())
  in
  ok "real message consensus" (Checks.consensus (m, memory));
  let v = m.Harness.verdict in
  rejects "two decided values"
    (Checks.consensus ({ m with Harness.verdict = { v with Sa_spec.distinct_decided = 2 } }, memory));
  rejects "no decided value"
    (Checks.consensus ({ m with Harness.verdict = { v with Sa_spec.distinct_decided = 0 } }, memory));
  rejects "an undecided correct process"
    (Checks.consensus
       ( { m with Harness.verdict = { v with Sa_spec.undecided_correct = Pid.Set.singleton 1 } },
         memory ));
  rejects "a non-atomic memory" (Checks.consensus (m, Error "inversion"));
  rejects "an Ω query violation"
    (Checks.consensus ({ m with Harness.query_violations = 2 }, memory))

let test_hb_detector () =
  let net = List.assoc "lossy" Workloads.monitor_links in
  let r =
    Harness.run_hb_detector ~horizon:Workloads.hb_horizon ~mode:`Ev_perfect ~net
      (Harness.random_world ~seed:8 ~n_plus_1:3 ~max_faulty:1 ~latest:60 ())
  in
  ok "real heartbeat monitors" (Checks.hb_detector ~horizon:Workloads.hb_horizon r);
  rejects "a broken ◇P spec" (Checks.hb_detector ~horizon:6_000 (Error "accuracy", 10));
  rejects "no stabilization before the horizon" (Checks.hb_detector ~horizon:6_000 (Ok (), 6_000))

let test_abd_world () =
  let op = Workloads.abd_world ~horizon:150_000 ~seed:4 ~n_plus_1:3 "abd" in
  ok "real ABD world" (op.Workloads.run Obs.Span.null);
  rejects "a non-linearizable log"
    (Checks.abd_world ~per_client:4 ~atomic:(Error "inversion") ~completed:[ (0, 4) ]);
  rejects "an incomplete correct client"
    (Checks.abd_world ~per_client:4 ~atomic:(Ok ()) ~completed:[ (0, 4); (1, 3) ])

let test_clean_check () =
  let o = Harness.check_exhaustive ~procs:2 ~depth:4 Check.Scenario.Register in
  let patterns = List.length (Check.Scenario.patterns Check.Scenario.Register ~procs:2) in
  ok "real clean sweep" (Checks.clean_check ~patterns o);
  rejects "a reported violation"
    (Checks.clean_check ~patterns
       {
         o with
         Harness.violation =
           Some
             {
               Harness.cex_pattern = Failure_pattern.no_failures ~n_plus_1:2;
               cex_prefix = [];
               cex_report = "bad";
               shrunk = true;
             };
       });
  rejects "a cut-short sweep" (Checks.clean_check ~patterns:(patterns + 1) o);
  rejects "more executions than naive enumeration"
    (Checks.clean_check ~patterns
       { o with Harness.executions = (o.Harness.naive_bound * patterns) + 1 })

let test_mutant_check () =
  let obj = Check.Scenario.Commit_adopt and mutant = Check.Mutant.Converge_drop_phase2 in
  let o = Harness.check_exhaustive ~procs:2 ~depth:6 ~mutant obj in
  let replay = Workloads.replay ~obj ~procs:2 ~horizon:o.Harness.check_horizon ~mutant in
  ok "real caught mutant" (Checks.mutant_check ~replay o);
  let v = Option.get o.Harness.violation in
  rejects "a missed mutant" (Checks.mutant_check ~replay { o with Harness.violation = None });
  rejects "an unshrunk counterexample"
    (Checks.mutant_check ~replay
       { o with Harness.violation = Some { v with Harness.shrunk = false } });
  rejects "a report the replay does not reproduce"
    (Checks.mutant_check ~replay
       { o with Harness.violation = Some { v with Harness.cex_report = "forged" } });
  rejects "a prefix that does not replay"
    (Checks.mutant_check ~replay:(fun ~pattern:_ ~prefix:_ -> None) o)

let test_verdicts () =
  ok "agreeing verdicts" (Checks.verdict_agrees ~naive:true ~dpor:true);
  rejects "a false positive" (Checks.verdict_agrees ~naive:false ~dpor:true);
  rejects "a miss" (Checks.verdict_agrees ~naive:true ~dpor:false)

(* The one operation counted as failed: naive enumeration finds the
   tail-race witness's violation, so a reducing explorer that misses it
   has missed a real one. *)
let test_tail_race_witness () =
  Alcotest.(check bool) "naive finds the violation" true
    (Programs.naive_verdict Programs.tail_race_witness)

let test_battery_regime () =
  let rng = Rng.create 1 in
  for _ = 1 to 60 do
    let w = Programs.generate rng in
    Alcotest.(check bool) "window covers the program" true (w.Programs.depth = Programs.steps w.Programs.code);
    ok "battery program" (Checks.verdict_agrees ~naive:(Programs.naive_verdict w) ~dpor:(Programs.dpor_verdict w))
  done

let () =
  Alcotest.run "perfbench"
    [
      ( "checks",
        [
          Alcotest.test_case "set agreement" `Quick test_set_agreement;
          Alcotest.test_case "extraction" `Quick test_extraction;
          Alcotest.test_case "message consensus" `Quick test_consensus;
          Alcotest.test_case "heartbeat monitors" `Quick test_hb_detector;
          Alcotest.test_case "ABD world" `Quick test_abd_world;
          Alcotest.test_case "clean sweep" `Quick test_clean_check;
          Alcotest.test_case "planted mutant" `Quick test_mutant_check;
          Alcotest.test_case "DPOR vs naive verdicts" `Quick test_verdicts;
        ] );
      ( "battery",
        [
          Alcotest.test_case "tail-race witness violates" `Quick test_tail_race_witness;
          Alcotest.test_case "full-window programs agree" `Quick test_battery_regime;
        ] );
    ]
