(* generate: the paper's core product.  For every [Search.all_designs]
   candidate of the four tier-1 small workloads, elaborate an 8x8
   accelerator, emit its Verilog, run a tape simulation on seeded inputs
   and check the output against [Exec.run].  [Accel.Unsupported] is an
   expected outcome, not a failure.

   Chosen because Verilog emission, search and elaboration are most of
   its time and close to none of any other workload's. *)

open Tensorlib
open Common

let cases =
  [ ("gemm", Workloads.gemm ~m:4 ~n:4 ~k:5);
    ("conv2d", Workloads.conv2d ~k:4 ~c:4 ~y:4 ~x:4 ~p:3 ~q:3);
    ("depthwise", Workloads.depthwise_conv ~k:4 ~y:4 ~x:4 ~p:3 ~q:3);
    ("mttkrp", Workloads.mttkrp ~i:4 ~j:4 ~k:4 ~l:4) ]

(* Set-up: seeded inputs and the golden output of every case. *)
let setup ~seed =
  List.mapi
    (fun i (name, stmt) ->
      let env = Exec.alloc_inputs ~seed:(Gen.input_seed ~seed ~case:i) stmt in
      let golden = Spans.span "verify.golden" (fun () -> Exec.run stmt env) in
      (name, stmt, env, golden))
    cases

type outcome = Verified of int  (** total cycles *) | Unsupported | Failed of string

let candidate env golden design =
  match Spans.span "elaborate" (fun () -> Accel.generate ~rows:8 ~cols:8 design env) with
  | exception Accel.Unsupported _ ->
    Spans.count "elaborate.unsupported" 1;
    Unsupported
  | exception e -> Failed (Printexc.to_string e)
  | acc -> (
    if !Spans.enabled then
      Spans.count "elaborate.cells" (Circuit.stats acc.Accel.circuit).Circuit.nodes;
    let v = Spans.span "verilog" (fun () -> Accel.verilog acc) in
    Spans.count "verilog.bytes" (String.length v);
    match tape_run ~env acc with
    | exception e -> Failed (Printexc.to_string e)
    | out ->
      if Spans.span "verify.check" (fun () -> Dense.equal out golden) then
        Verified acc.Accel.total_cycles
      else begin
        Spans.count "verify.mismatches" 1;
        Failed "output differs from Exec.run"
      end)

(* One pass over every candidate of every case.  [clock] times each
   case's search and each candidate; [on_search] and [on_latency] receive
   those times. *)
let pass ?(clock = wall) ?(on_search = ignore) ?(on_latency = ignore) cases =
  List.concat_map
    (fun (name, stmt, env, golden) ->
      let designs, s =
        clock.timed (fun () -> Spans.span "stt.search" (fun () -> Search.all_designs stmt))
      in
      on_search s;
      Spans.count "stt.search.designs" (List.length designs);
      List.map
        (fun (dname, design) ->
          Spans.with_id (name ^ "/" ^ dname) @@ fun () ->
          let o, s = clock.timed (fun () -> candidate env golden design) in
          on_latency s;
          ((name, dname), o))
        designs)
    cases

let summary outcomes =
  let verified, cycles, unsupported, failed =
    List.fold_left
      (fun (v, c, u, f) (_, o) ->
        match o with
        | Verified n -> (v + 1, c + n, u, f)
        | Unsupported -> (v, c, u + 1, f)
        | Failed _ -> (v, c, u, f + 1))
      (0, 0, 0, 0) outcomes
  in
  (verified, float_of_int cycles, unsupported, failed)

let report_failures outcomes =
  List.iter
    (fun ((case, d), o) ->
      match o with
      | Failed msg -> Printf.eprintf "generate: %s %s failed: %s\n%!" case d msg
      | Verified _ | Unsupported -> ())
    outcomes

(* A throw-away set-up after every [setup_every] candidates, timed as a
   set-up sample, spreads the set-up samples over the whole run. *)
let setup_every = 16

let run ~seed ~seconds =
  let t_start = now () in
  let setups = ref [] and lat = ref [] and busy = ref 0. in
  let work = ref 0 and failed = ref 0 and passes = ref 0 and pass_times = ref [] in
  let first = ref None in
  let pass_busy = ref 0. and n = ref 0 in
  let on_search s = pass_busy := !pass_busy +. s in
  let on_latency s =
    lat := s :: !lat;
    pass_busy := !pass_busy +. s;
    incr n;
    if !n mod setup_every = 0 then setups := snd (Calib.time (fun () -> setup ~seed)) :: !setups
  in
  (* stop before a pass that would end past [seconds] *)
  let last = ref 0. in
  while !passes = 0 || now () -. t_start +. !last < seconds do
    let t_pass = now () in
    let cs, s = Calib.time (fun () -> setup ~seed) in
    setups := s :: !setups;
    pass_busy := 0.;
    let outcomes = pass ~clock:scaled ~on_search ~on_latency cs in
    let pass_s = !pass_busy in
    report_failures outcomes;
    incr passes;
    pass_times := pass_s :: !pass_times;
    busy := !busy +. pass_s;
    work := !work + List.length outcomes;
    let sum = summary outcomes in
    let _, _, _, f = sum in
    failed := !failed + f;
    (* every pass sees the same inputs, so it must reach the same result *)
    (match !first with
    | None -> first := Some sum
    | Some s0 -> if s0 <> sum then incr failed);
    last := now () -. t_pass
  done;
  let verified, cycles, unsupported, _ = Option.get !first in
  { setup = !setups;
    latencies = !lat;
    work = float_of_int !work;
    busy = !busy;
    model_cycles = cycles;
    attempted = !work;
    failed = !failed;
    rss_mb = self_rss_mb ();
    scoped =
      [ ("generate.designs_per_s", float_of_int !work /. !busy);
        ("generate.model_cycles", cycles) ];
    facts =
      [ ("passes", Json.Num (float_of_int !passes));
        ("pass_s", Json.List (List.rev_map (fun s -> Json.Num s) !pass_times));
        ("candidates", Json.Num (float_of_int (!work / !passes)));
        ("verified", Json.Num (float_of_int verified));
        ("unsupported", Json.Num (float_of_int unsupported)) ] }

(* A warm-up pass, one pass untraced, then the same pass traced;
   outcomes must agree. *)
let traced ~seed =
  let once () = pass (setup ~seed) in
  ignore (once ());
  let ref_out, wall_off = time once in
  let out, wall_on = Spans.traced "generate" once in
  report_failures out;
  let _, cycles, _, ref_failed = summary ref_out in
  let _, _, _, failed = summary out in
  { wall_off;
    wall_on;
    t_attempted = List.length out;
    t_failed = failed + ref_failed + (if out = ref_out then 0 else 1);
    t_scoped =
      [ ("generate.designs_per_s", float_of_int (List.length ref_out) /. wall_off);
        ("generate.model_cycles", cycles) ];
    t_facts = [ ("candidates", Json.Num (float_of_int (List.length out))) ] }
