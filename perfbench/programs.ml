(* Bounded straight-line programs over two shared registers, the input
   of the DPOR-vs-naive battery: blind reads, blind writes of small
   constants and the racy read-increment-write, with a forbidden final
   (a, b) pair as the property. The window always covers the whole
   program and no process crashes — the regime where the reducing
   explorer's verdict must equal naive enumeration's. *)

open Wfde
open Kernel

type op = Read of int | Write of int * int | Incr of int

type t = {
  procs : int;
  code : op list array;  (** per-pid program *)
  depth : int;  (** exploration window, in scheduler steps *)
  forbidden : int * int;
}

let horizon = 100
let steps_of_op = function Incr _ -> 2 | Read _ | Write _ -> 1

let steps code =
  Array.fold_left
    (fun acc ops -> List.fold_left (fun a o -> a + steps_of_op o) acc ops)
    0 code

(* At most 7 steps: naive enumeration of 3 processes stays below
   3^7 executions. *)
let generate rng =
  let op () =
    match Rng.int rng 6 with
    | 0 | 1 -> Incr (Rng.int rng 2)
    | 2 | 3 -> Write (Rng.int rng 2, 1 + Rng.int rng 3)
    | _ -> Read (Rng.int rng 2)
  in
  let rec draw () =
    let procs = 2 + Rng.int rng 2 in
    let code = Array.init procs (fun _ -> List.init (1 + Rng.int rng 3) (fun _ -> op ())) in
    let depth = steps code in
    if depth > 7 then draw ()
    else { procs; code; depth; forbidden = (Rng.int rng 4, Rng.int rng 4) }
  in
  draw ()

(* The generated witness of the bounded-window blind spot documented in
   [Check.Dpor]: the violating interleaving exists only as a reordering
   deep in the round-robin tail (window 3 of 8 steps). Naive enumeration
   finds it; the reducing explorer does not. *)
let tail_race_witness =
  {
    procs = 3;
    code =
      [|
        [ Incr 0 ];
        [ Read 1; Write (1, 3); Write (0, 3) ];
        [ Write (0, 1); Write (1, 3); Read 1 ];
      |];
    depth = 3;
    forbidden = (2, 3);
  }

let make w () =
  let open Memory in
  let regs = [| Register.create ~name:"a" 0; Register.create ~name:"b" 0 |] in
  let body pid () =
    List.iter
      (function
        | Read o -> ignore (Register.read regs.(o))
        | Write (o, v) -> Register.write regs.(o) v
        | Incr o -> Register.write regs.(o) (Register.read regs.(o) + 1))
      w.code.(pid)
  in
  let check _trace =
    if (Register.peek regs.(0), Register.peek regs.(1)) = w.forbidden then
      Error "forbidden final state"
    else Ok ()
  in
  ((fun pid -> [ body pid ]), check)

let pattern w = Failure_pattern.no_failures ~n_plus_1:w.procs

let naive_verdict w =
  (Check.Explore.naive_prefix ~pattern:(pattern w) ~depth:w.depth ~horizon
     ~make:(make w) ())
    .Check.Explore.counterexample
  <> None

let dpor_verdict w =
  (Check.Dpor.explore ~pattern:(pattern w) ~depth:w.depth ~horizon
     ~make:(make w) ())
    .Check.Dpor.counterexample
  <> None
