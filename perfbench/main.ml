(* The benchmark executable:

     main.exe --workload W --seed N --seconds S --trace 0|1

   Set-up (input generation plus an untimed warm-up pass) runs once;
   then whole rounds of the workload's operations run until [S] seconds
   have passed, with [setup_reps - 1] more set-ups between the first
   rounds. The last line of standard output is one JSON object:
   {correct, attempted, failed, metrics}. With --trace 0 the metrics are
   the end-to-end ones of BENCHMARK.json; with --trace 1 untraced
   and traced rounds alternate, the per-layer metrics are reported, and
   perfbench/out receives W.layers.json and W.spans.jsonl (wfde-span/1,
   rendered by `wfde spans`). *)

open Wfde
open Perfbench

let setup_reps = 5
let out = Filename.concat "perfbench" "out"

(* The high-water RSS is read after this many timed rounds, before the
   set-ups that run between rounds: a fixed amount of work, so the
   figure does not depend on how many rounds the host's speed allowed. *)
let peak_rounds = 1

let usage () =
  prerr_endline
    "usage: main.exe --workload (shm-worlds|msg-worlds|check-dpor) --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref false in
  let rec go = function
    | "--workload" :: w :: rest -> workload := Some w; go rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds) with
  | Some w, Some seed, Some seconds
    when List.mem w Workloads.names && seconds > 0. ->
      (w, seed, seconds, !trace)
  | _ -> usage ()

(* Linux only: the benchmark fails rather than report another quantity
   under this name. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM line in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> find ()
      in
      find ())

let median = Layers.median

(* The metrics BENCHMARK.json lists in [section], as (name, unit), in
   its order; the benchmark runs from the root of the checkout. *)
let listed section =
  let doc =
    match Obs.Json.of_string (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
    | Ok doc -> doc
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let field k j = Option.get (Option.bind (Obs.Json.member k j) Obs.Json.to_str) in
  match Obs.Json.member section doc with
  | Some (Obs.Json.List l) -> List.map (fun j -> (field "name" j, field "unit" j)) l
  | _ -> failwith ("BENCHMARK.json has no " ^ section ^ " list")

(* [values] as the JSON metrics object of the result line, every metric
   of [section] present and none other. *)
let metrics_of section values =
  let names = listed section in
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n names) then failwith ("metric not in BENCHMARK.json: " ^ n))
    values;
  List.map
    (fun (n, u) ->
      match List.assoc_opt n values with
      | Some v -> (n, u, v)
      | None -> failwith ("metric not computed: " ^ n))
    names

let metrics_json metrics =
  Obs.Json.Obj
    (List.map
       (fun (n, u, v) ->
         (n, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String u) ]))
       metrics)

let report_failures what unexpected =
  List.iter (fun (label, report) -> Printf.eprintf "FAIL %s %s: %s\n%!" what label report) unexpected

let () =
  let name, seed, seconds, trace = parse_args () in
  (* set-up: generate the inputs and warm up. The first set-up's inputs
     are the ones the rounds run; the other [setup_reps - 1] set-ups run
     between the first rounds, so that the samples of setup_s are spread
     over the run instead of taken back to back. *)
  let warm_ok = ref true in
  let setup () =
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let w = Workloads.make name ~seed in
    let warm = Round.run ~trace_prefix:"" ~traced:false w.Workloads.warmup in
    let dt = Unix.gettimeofday () -. t0 in
    Printf.eprintf "set-up  %.4fs\n%!" dt;
    report_failures "warm-up" warm.Round.unexpected;
    warm_ok := !warm_ok && warm.Round.unexpected = [];
    (dt, w)
  in
  let first_setup, w = setup () in
  let setups = ref [ first_setup ] in
  let setup_again () = setups := fst (setup ()) :: !setups in
  (* timed phase: whole rounds until [seconds] have passed *)
  let sink, close_sink =
    if trace then begin
      (try Sys.mkdir out 0o755 with Sys_error _ -> ());
      let oc = open_out (Filename.concat out (name ^ ".spans.jsonl")) in
      (Some (Obs.Span.sink ~out:oc ()), fun () -> close_out oc)
    end
    else (None, fun () -> ())
  in
  let start = Unix.gettimeofday () in
  let rounds = ref [] in
  let have traced = List.exists (fun r -> r.Round.traced = traced) !rounds in
  let i = ref 0 in
  let peak = ref 0. in
  while
    !rounds = []
    || Unix.gettimeofday () -. start < seconds
    || (trace && not (have true && have false))
  do
    Gc.compact ();
    let traced = trace && !i mod 2 = 1 in
    let trace_prefix = Printf.sprintf "%s/r%d/" name !i in
    let r = Round.run ?sink ~trace_prefix ~traced w.Workloads.ops in
    Printf.eprintf "round %d%s  wall %.4fs  cpu %.4fs  peak RSS %.1fMB\n%!" !i
      (if traced then " (traced)" else "") r.Round.wall r.Round.cpu (peak_rss_mb ());
    rounds := r :: !rounds;
    if !i < peak_rounds then peak := peak_rss_mb ();
    if List.length !setups < setup_reps then setup_again ();
    incr i
  done;
  while List.length !setups < setup_reps do setup_again () done;
  let setup_s = median !setups in
  let rounds = List.rev !rounds in
  let untraced = List.filter (fun r -> not r.Round.traced) rounds in
  let traced = List.filter (fun r -> r.Round.traced) rounds in
  let attempted = List.fold_left (fun a r -> a + r.Round.attempted) 0 rounds in
  let failed = List.fold_left (fun a r -> a + r.Round.failed) 0 rounds in
  let unexpected = List.concat_map (fun r -> r.Round.unexpected) rounds in
  report_failures "timed" unexpected;
  let known =
    List.filter_map
      (fun (op : Workloads.op) -> if op.Workloads.known_fault then Some op.Workloads.label else None)
      w.Workloads.ops
  in
  let correct = unexpected = [] && !warm_ok in
  let med f = median (List.map f untraced) in
  let metrics =
    if not trace then
      let wall = med (fun r -> r.Round.wall) in
      metrics_of "end_to_end"
        [
          ("setup_s", setup_s);
          ("wall_s", wall);
          ("cpu_s", med (fun r -> r.Round.cpu));
          ("ops_per_s", float_of_int (List.length w.Workloads.ops) /. wall);
          ("sim_steps", med (fun r -> float_of_int r.Round.steps));
          ("alloc_mw", med (fun r -> r.Round.minor_words /. 1e6));
          ("promoted_mw", med (fun r -> r.Round.promoted_words /. 1e6));
          ("peak_rss_mb", !peak);
        ]
    else begin
      let probe_scope = Obs.Span.make ~capacity:64 ~trace:(name ^ "/probes") () in
      let probes = Probes.run probe_scope in
      Option.iter (fun s -> Obs.Span.absorb s probe_scope; Obs.Span.flush s) sink;
      close_sink ();
      let spans_of_round =
        let all =
          match Obs.Span.load_file (Filename.concat out (name ^ ".spans.jsonl")) with
          | Ok spans -> spans
          | Error e -> failwith e
        in
        List.mapi
          (fun k _ ->
            let prefix = Printf.sprintf "%s/r%d/" name ((2 * k) + 1) in
            List.filter (fun s -> String.starts_with ~prefix s.Obs.Span.trace) all)
          traced
      in
      let layers =
        metrics_of "per_layer"
          (Layers.compute ~untraced ~traced ~spans_of_round ~naive_ms:w.Workloads.naive_ms
             ~probes)
      in
      let module J = Obs.Json in
      let walls rs = J.List (List.map (fun r -> J.Float r.Round.wall) rs) in
      let doc =
        J.Obj
          [
            ("schema", J.String "perfbench-layers/1");
            ("workload", J.String name);
            ("seed", J.Int seed);
            ("untraced_round_s", walls untraced);
            ("traced_round_s", walls traced);
            ("metrics", metrics_json layers);
            ( "counters",
              Obs.Metrics.to_json
                (let last = List.nth traced (List.length traced - 1) in
                 Obs.Metrics.reset ();
                 List.iter Obs.Metrics.absorb last.Round.snapshots;
                 Obs.Metrics.snapshot ()) );
          ]
      in
      Out_channel.with_open_text (Filename.concat out (name ^ ".layers.json")) (fun oc ->
          output_string oc (J.to_string doc);
          output_char oc '\n');
      layers
    end
  in
  Printf.printf "workload %s  seed %d  rounds %d  attempted %d  failed %d%s\n" name seed
    (List.length rounds) attempted failed
    (if known = [] then "" else "  (known fault: " ^ String.concat ", " known ^ ")");
  List.iter (fun (n, u, v) -> Printf.printf "  %-32s %14.6g %s\n" n v u) metrics;
  let module J = Obs.Json in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", metrics_json metrics);
          ]))
