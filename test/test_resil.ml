(* Software-layer resilience: budgets, seeded retry, chaos injection,
   pool failure isolation, resuming a sweep from its store, and the
   hardened CLI surfaces (sweep budgets, serve stdin limits). *)

open Tensorlib

let with_chaos cfg f =
  Resil.Chaos.arm cfg;
  Fun.protect ~finally:Resil.Chaos.disarm f

(* ---------------- budgets ---------------- *)

let test_budget_unlimited () =
  let b = Resil.Budget.unlimited in
  Alcotest.(check bool) "is_unlimited" true (Resil.Budget.is_unlimited b);
  for _ = 1 to 1000 do
    Resil.Budget.check b
  done;
  Alcotest.(check bool) "never expires" false (Resil.Budget.expired b);
  Alcotest.(check (float 0.0)) "infinite remaining" infinity
    (Resil.Budget.remaining_s b)

let test_budget_checks () =
  let b = Resil.Budget.of_checks ~label:"unit-test" 3 in
  Alcotest.(check bool) "poll 1" false (Resil.Budget.expired b);
  Alcotest.(check bool) "poll 2" false (Resil.Budget.expired b);
  Alcotest.(check bool) "poll 3" false (Resil.Budget.expired b);
  Alcotest.(check bool) "poll 4 expired" true (Resil.Budget.expired b);
  (match Resil.Budget.check b with
  | () -> Alcotest.fail "check should raise once expired"
  | exception Resil.Budget.Expired l ->
    Alcotest.(check string) "label in exception" "unit-test" l);
  (match Resil.Budget.of_checks (-1) with
  | _ -> Alcotest.fail "negative check budget accepted"
  | exception Invalid_argument _ -> ())

let test_budget_deadline_fake_clock () =
  let now = ref 100.0 in
  let b =
    Resil.Budget.of_seconds ~clock:(fun () -> !now) ~label:"fake" 5.0
  in
  Alcotest.(check bool) "fresh" false (Resil.Budget.expired b);
  Alcotest.(check (float 0.001)) "remaining" 5.0 (Resil.Budget.remaining_s b);
  now := 104.9;
  Alcotest.(check bool) "almost" false (Resil.Budget.expired b);
  now := 105.0;
  Alcotest.(check bool) "expired at deadline" true (Resil.Budget.expired b);
  Alcotest.(check (float 0.0)) "clamped remaining" 0.0
    (Resil.Budget.remaining_s b);
  match Resil.Budget.of_seconds ~clock:(fun () -> 0.) (-1.) with
  | _ -> Alcotest.fail "negative deadline accepted"
  | exception Invalid_argument _ -> ()

(* ---------------- retry ---------------- *)

let counting_sleep slept = fun d -> slept := d :: !slept

let test_retry_heals () =
  Resil.Retry.reset_counters ();
  let slept = ref [] in
  let policy =
    { Resil.Retry.default with attempts = 5; sleep = counting_sleep slept }
  in
  let calls = ref 0 in
  let f () =
    incr calls;
    if !calls <= 2 then raise (Sys_error "weather") else "sunny"
  in
  Alcotest.(check string) "healed" "sunny"
    (Resil.Retry.with_retry ~policy ~label:"t" f);
  Alcotest.(check int) "three attempts" 3 !calls;
  Alcotest.(check int) "slept between attempts" 2 (List.length !slept);
  Alcotest.(check int) "retries counted" 2 (Resil.Retry.retries ());
  Alcotest.(check int) "no giveup" 0 (Resil.Retry.giveups ())

let test_retry_deterministic_backoff () =
  let p = { Resil.Retry.default with base_delay_s = 0.01; multiplier = 4.0 } in
  let d0 = Resil.Retry.delay_s p ~seed:9 ~label:"x" 0 in
  let d0' = Resil.Retry.delay_s p ~seed:9 ~label:"x" 0 in
  let d2 = Resil.Retry.delay_s p ~seed:9 ~label:"x" 2 in
  Alcotest.(check (float 0.0)) "pure function of (seed,label,k)" d0 d0';
  Alcotest.(check bool) "within jittered bounds" true
    (d0 >= 0.01 *. (1. -. p.Resil.Retry.jitter) && d0 <= 0.01);
  Alcotest.(check bool) "exponential growth" true (d2 > d0);
  Alcotest.(check bool) "seed changes the jitter" true
    (Resil.Retry.delay_s p ~seed:9 ~label:"x" 1
     <> Resil.Retry.delay_s p ~seed:10 ~label:"x" 1
    || Resil.Retry.delay_s p ~seed:9 ~label:"x" 2
       <> Resil.Retry.delay_s p ~seed:10 ~label:"x" 2)

let test_retry_exhaustion () =
  Resil.Retry.reset_counters ();
  let slept = ref [] in
  let policy =
    { Resil.Retry.default with attempts = 3; sleep = counting_sleep slept }
  in
  let calls = ref 0 in
  let f () =
    incr calls;
    raise (Sys_error "always")
  in
  (match Resil.Retry.with_retry ~policy ~label:"t" f with
  | _ -> Alcotest.fail "exhausted retry must re-raise"
  | exception Sys_error _ -> ());
  Alcotest.(check int) "all attempts used" 3 !calls;
  Alcotest.(check int) "one giveup" 1 (Resil.Retry.giveups ());
  calls := 0;
  Alcotest.(check bool) "with_retry_opt degrades to None" true
    (Resil.Retry.with_retry_opt ~policy ~label:"t" f = None);
  Alcotest.(check int) "opt also used all attempts" 3 !calls

let test_retry_non_transient () =
  let slept = ref [] in
  let policy = { Resil.Retry.default with sleep = counting_sleep slept } in
  let calls = ref 0 in
  let f () =
    incr calls;
    failwith "logic bug"
  in
  (match Resil.Retry.with_retry ~policy ~label:"t" f with
  | _ -> Alcotest.fail "logic bugs must propagate"
  | exception Failure _ -> ());
  Alcotest.(check int) "no retry on logic bugs" 1 !calls;
  Alcotest.(check int) "never slept" 0 (List.length !slept)

(* ---------------- chaos ---------------- *)

let test_chaos_determinism () =
  (* the fire decision is a pure function of (seed, site, key) *)
  let a =
    List.init 64 (fun k ->
        Resil.Chaos.would_fire ~seed:3 ~rate:0.5 ~site:"s" ~key:k)
  in
  let b =
    List.init 64 (fun k ->
        Resil.Chaos.would_fire ~seed:3 ~rate:0.5 ~site:"s" ~key:k)
  in
  Alcotest.(check bool) "replayable" true (a = b);
  Alcotest.(check bool) "seed matters" true
    (a
    <> List.init 64 (fun k ->
           Resil.Chaos.would_fire ~seed:4 ~rate:0.5 ~site:"s" ~key:k));
  Alcotest.(check bool) "rate 0 never fires" false
    (List.exists Fun.id
       (List.init 64 (fun k ->
            Resil.Chaos.would_fire ~seed:3 ~rate:0.0 ~site:"s" ~key:k)));
  Alcotest.(check bool) "rate 1 always fires" true
    (List.for_all Fun.id
       (List.init 64 (fun k ->
            Resil.Chaos.would_fire ~seed:3 ~rate:1.0 ~site:"s" ~key:k)));
  (* disarmed probes are no-ops *)
  Resil.Chaos.disarm ();
  Alcotest.(check bool) "disarmed draw" true
    (Resil.Chaos.draw ~key:0 "s" = None);
  Resil.Chaos.probe ~key:0 ~site:"s" ();
  Alcotest.(check string) "disarmed mangle is identity" "abc"
    (Resil.Chaos.mangle ~key:0 ~site:"s" "abc");
  match Resil.Chaos.arm { Resil.Chaos.seed = 0; rate = 1.5; sites = [] } with
  | () -> Alcotest.fail "rate 1.5 accepted"
  | exception Invalid_argument _ -> ()

let test_chaos_mangle () =
  with_chaos
    {
      Resil.Chaos.seed = 1;
      rate = 1.0;
      sites = [ ("w", [ Resil.Chaos.Truncate 0.5 ]) ];
    }
    (fun () ->
      let out = Resil.Chaos.mangle ~key:0 ~site:"w" "0123456789" in
      Alcotest.(check bool) "strict prefix" true
        (String.length out < 10 && out = String.sub "0123456789" 0 (String.length out)));
  with_chaos
    {
      Resil.Chaos.seed = 1;
      rate = 1.0;
      sites = [ ("w", [ Resil.Chaos.Corrupt ]) ];
    }
    (fun () ->
      let src = "0123456789" in
      let out = Resil.Chaos.mangle ~key:0 ~site:"w" src in
      Alcotest.(check int) "same length" 10 (String.length out);
      let diffs = ref 0 in
      String.iteri (fun i c -> if c <> src.[i] then incr diffs) out;
      Alcotest.(check int) "exactly one byte flipped" 1 !diffs);
  (* unarmed site untouched even while armed *)
  with_chaos
    {
      Resil.Chaos.seed = 1;
      rate = 1.0;
      sites = [ ("w", [ Resil.Chaos.Corrupt ]) ];
    }
    (fun () ->
      Alcotest.(check string) "other sites identity" "abc"
        (Resil.Chaos.mangle ~key:0 ~site:"other" "abc"))

(* ---------------- pool failure isolation ---------------- *)

exception Boom of int

let test_par_try_map_isolation () =
  let items = List.init 40 Fun.id in
  let f i = if i mod 7 = 3 then raise (Boom i) else i * 10 in
  let shape r =
    List.map (function Ok v -> `Ok v | Error (Boom i) -> `Boom i | Error _ -> `Other) r
  in
  let r1 = shape (Par.try_map ~domains:1 f items) in
  let r3 = shape (Par.try_map ~domains:3 f items) in
  let r8 = shape (Par.try_map ~domains:8 f items) in
  Alcotest.(check bool) "identical across widths" true (r1 = r3 && r3 = r8);
  List.iteri
    (fun i s ->
      if i mod 7 = 3 then
        Alcotest.(check bool) (Printf.sprintf "item %d failed" i) true
          (s = `Boom i)
      else
        Alcotest.(check bool) (Printf.sprintf "item %d ok" i) true
          (s = `Ok (i * 10)))
    r1;
  (* fail-fast map re-raises the lowest-index failure *)
  List.iter
    (fun width ->
      match Par.map ~domains:width f items with
      | _ -> Alcotest.fail "map must re-raise"
      | exception Boom i ->
        Alcotest.(check int)
          (Printf.sprintf "lowest index at width %d" width)
          3 i)
    [ 1; 3; 8 ]

let test_par_chaos_delays_keep_order () =
  with_chaos
    {
      Resil.Chaos.seed = 13;
      rate = 0.5;
      sites = [ ("par:resil-ord", [ Resil.Chaos.Delay 10000 ]) ];
    }
    (fun () ->
      let items = List.init 60 Fun.id in
      let got = Par.map ~domains:8 ~label:"resil-ord" (fun i -> i + 1) items in
      Alcotest.(check (list int)) "order preserved under delays"
        (List.map (fun i -> i + 1) items)
        got)

let test_par_chaos_kills_width_independent () =
  let run width =
    with_chaos
      {
        Resil.Chaos.seed = 21;
        rate = 0.4;
        sites = [ ("par:resil-kill", [ Resil.Chaos.Fail "killed" ]) ];
      }
      (fun () ->
        Par.try_map ~domains:width ~label:"resil-kill" (fun i -> i) (List.init 50 Fun.id)
        |> List.map Result.is_ok)
  in
  let p1 = run 1 in
  Alcotest.(check bool) "some kills, some survivors" true
    (List.exists not p1 && List.exists Fun.id p1);
  Alcotest.(check (list bool)) "width 3 identical" p1 (run 3);
  Alcotest.(check (list bool)) "width 8 identical" p1 (run 8)

(* ---------------- store under chaos ---------------- *)

let test_store_read_weather () =
  let retry = { Resil.Retry.default with sleep = ignore } in
  let root = Temp_dir.make "tlresil" in
  let st = Store.open_store ~retry ~root () in
  Store.put st "k" "v";
  (* permanent weather: every read fails, retry exhausts, find degrades
     to a miss instead of raising *)
  with_chaos
    {
      Resil.Chaos.seed = 2;
      rate = 1.0;
      sites = [ ("store.read", [ Resil.Chaos.Fail "dead disk" ]) ];
    }
    (fun () ->
      Alcotest.(check (option string)) "degraded to miss" None
        (Store.find st "k"));
  let degraded, _ = Store.io_failures st in
  Alcotest.(check bool) "degradation counted" true (degraded >= 1);
  Alcotest.(check (option string)) "healthy again once disarmed" (Some "v")
    (Store.find st "k")

let test_store_torn_write_all_offsets () =
  let root = Temp_dir.make "tlresil" in
  let st = Store.open_store ~root () in
  Store.put st "victim" "torn-write-payload";
  let path =
    Filename.concat (Filename.concat root "entries") (Store.digest_hex "victim")
  in
  let ic = open_in_bin path in
  let full = really_input_string ic (in_channel_length ic) in
  close_in ic;
  for cut = 0 to String.length full - 1 do
    let oc = open_out_bin path in
    output_string oc (String.sub full 0 cut);
    close_out oc;
    let fresh = Store.open_store ~root () in
    Alcotest.(check (option string))
      (Printf.sprintf "cut at %d is a miss" cut)
      None (Store.find fresh "victim")
  done

(* ---------------- DSE budgets ---------------- *)

let test_enumerate_budget () =
  let stmt = Workloads.gemm ~m:4 ~n:4 ~k:4 in
  let full = Enumerate.design_space ~domains:1 stmt in
  let unlimited =
    Enumerate.design_space ~domains:1 ~budget:Resil.Budget.unlimited stmt
  in
  Alcotest.(check int) "unlimited budget changes nothing"
    (List.length full) (List.length unlimited);
  (match
     Enumerate.design_space ~domains:1 ~budget:(Resil.Budget.of_checks 5) stmt
   with
  | _ -> Alcotest.fail "tiny budget must expire"
  | exception Resil.Budget.Expired _ -> ());
  match Explore.explore ~domains:1 ~budget:(Resil.Budget.of_checks 1) stmt with
  | _ -> Alcotest.fail "explore budget must expire"
  | exception Resil.Budget.Expired _ -> ()

(* ---------------- partial sweeps + resume ---------------- *)

let tiny_layers () =
  [ ("l0", Workloads.gemm ~m:4 ~n:4 ~k:4);
    ("l1", Workloads.gemm ~m:4 ~n:4 ~k:4) (* dup of l0 *);
    ("l2", Workloads.batched_gemv ~m:4 ~n:4 ~k:4);
    ("l3", Workloads.gemm ~m:5 ~n:4 ~k:4) ]

let test_sweep_budget_partial () =
  let root = Temp_dir.make "tlresil" in
  let store = Store.open_store ~root () in
  let r =
    Network.sweep ~domains:1 ~per_shape_limit:4
      ~budget:(Resil.Budget.of_checks 1) ~store ~name:"t" (tiny_layers ())
  in
  Alcotest.(check bool) "partial" false r.Network.r_complete;
  Alcotest.(check int) "all shapes degraded" 3 r.Network.r_degraded_shapes;
  List.iter
    (fun (l : Network.layer) ->
      Alcotest.(check bool) ("degraded " ^ l.Network.l_name) true
        l.Network.l_degraded;
      Alcotest.(check bool) ("estimate present " ^ l.Network.l_name) true
        (match l.Network.l_est_cycles with Some c -> c > 0. | None -> false))
    r.Network.r_layers;
  Alcotest.(check bool) "totals carry the estimates" true
    (r.Network.r_total_cycles > 0.)

(* the store's entry files are the only record of a swept shape:
   rerunning a sweep that an injected kill of shape 0 interrupted serves
   the two finished shapes as hits and computes the killed one *)
let test_sweep_rerun_against_store () =
  let layers = tiny_layers () in
  let kill_rate = 0.5 in
  let fires s k =
    Resil.Chaos.would_fire ~seed:s ~rate:kill_rate ~site:"par:network-sweep"
      ~key:k
  in
  let rec find_seed s =
    if s > 100_000 then Alcotest.fail "no suitable chaos seed"
    else if fires s 0 && not (fires s 1) && not (fires s 2) then s
    else find_seed (s + 1)
  in
  let seed = find_seed 0 in
  List.iter
    (fun width ->
      let cold_root = Temp_dir.make "tlcold" in
      let cold =
        Network.sweep ~domains:width ~per_shape_limit:4
          ~store:(Store.open_store ~root:cold_root ())
          ~name:"t" layers
      in
      let root = Temp_dir.make "tlint" in
      let store = Store.open_store ~root () in
      let interrupted =
        with_chaos
          {
            Resil.Chaos.seed;
            rate = kill_rate;
            sites =
              [ ("par:network-sweep", [ Resil.Chaos.Fail "interrupted" ]) ];
          }
          (fun () ->
            Network.sweep ~domains:width ~per_shape_limit:4 ~store ~name:"t"
              layers)
      in
      Alcotest.(check bool)
        (Printf.sprintf "width %d interrupted" width)
        false interrupted.Network.r_complete;
      Alcotest.(check int)
        (Printf.sprintf "width %d one shape degraded" width)
        1 interrupted.Network.r_degraded_shapes;
      let rerun =
        Network.sweep ~domains:width ~per_shape_limit:4 ~store ~name:"t"
          layers
      in
      Alcotest.(check bool)
        (Printf.sprintf "width %d rerun complete" width)
        true rerun.Network.r_complete;
      Alcotest.(check (pair int int))
        (Printf.sprintf "width %d rerun hits, misses" width)
        (2, 1)
        (rerun.Network.r_hits, rerun.Network.r_misses);
      Alcotest.(check string)
        (Printf.sprintf "width %d digest bit-identical to cold" width)
        cold.Network.r_digest rerun.Network.r_digest;
      Alcotest.(check (list string))
        (Printf.sprintf "width %d store holds only entries/ and tmp/" width)
        [ "entries"; "tmp" ]
        (List.sort compare (Array.to_list (Sys.readdir root))))
    [ 1; 3 ]

(* ---------------- hardened CLI surfaces ---------------- *)

let cli =
  if Sys.file_exists "../bin/tensorlib_cli.exe" then "../bin/tensorlib_cli.exe"
  else "_build/default/bin/tensorlib_cli.exe"

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let run_cli args =
  let out = Filename.temp_file "tlcli" ".out" in
  let err = Filename.temp_file "tlcli" ".err" in
  let rc =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote cli) args
         (Filename.quote out) (Filename.quote err))
  in
  let read path =
    let ic = open_in path in
    let c = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    c
  in
  (rc, read out, read err)

let test_cli_sweep_resume_validation () =
  let rc, _, _ = run_cli "sweep --network tiny --deadline-ms 0" in
  Alcotest.(check int) "bad deadline exits 2" 2 rc;
  let rc, _, err =
    run_cli "sweep --network tiny --deadline-ms 10 --budget-checks 10"
  in
  Alcotest.(check int) "conflicting budgets exit 2" 2 rc;
  Alcotest.(check bool) "conflict named" true (contains err "conflict")

let test_cli_serve_hardening () =
  let requests = Filename.temp_file "tlreq" ".jsonl" in
  let oc = open_out requests in
  (* gemm expr requests keep this fast; the giant line must be answered
     with a structured error, the trailing request has no newline *)
  output_string oc
    "{\"id\": 1, \"expr\": \"C[m,n] += A[m,k] * B[n,k]\", \"extents\": \
     \"m=4,n=4,k=4\"}\n";
  output_string oc (String.make 2000 'a' ^ "\n");
  output_string oc
    "{\"id\": 2, \"expr\": \"C[m,n] += A[m,k] * B[n,k]\", \"extents\": \
     \"m=4,n=4,k=4\"}";
  close_out oc;
  let out_file = Filename.temp_file "tlserve" ".out" in
  let err_file = Filename.temp_file "tlserve" ".err" in
  let rc =
    Sys.command
      (Printf.sprintf
         "%s serve --limit 4 --max-request-bytes 512 < %s > %s 2> %s"
         (Filename.quote cli) (Filename.quote requests)
         (Filename.quote out_file) (Filename.quote err_file))
  in
  Alcotest.(check int) "clean exit 0 on mid-line EOF" 0 rc;
  let read path =
    let ic = open_in path in
    let c = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    c
  in
  let out = read out_file in
  let err = read err_file in
  Sys.remove requests;
  let lines =
    String.split_on_char '\n' out |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "three responses" 3 (List.length lines);
  (match List.map Json.parse lines with
  | [ Ok j1; Ok j2; Ok j3 ] ->
    Alcotest.(check bool) "request 1 ok" true
      (Json.member "ok" j1 = Some (Json.Bool true));
    Alcotest.(check bool) "oversized line rejected" true
      (Json.member "ok" j2 = Some (Json.Bool false));
    Alcotest.(check bool) "oversized names the cap" true
      (match Json.mem_string j2 "error" with
      | Some e -> contains e "max-request-bytes"
      | None -> false);
    Alcotest.(check bool) "mid-line-EOF request still served" true
      (Json.member "ok" j3 = Some (Json.Bool true))
  | _ -> Alcotest.fail "responses must all be JSON");
  Alcotest.(check bool) "stats line on stderr" true
    (contains err "serve: shutdown after 3 responses")

let suite =
  [ Alcotest.test_case "budget unlimited" `Quick test_budget_unlimited;
    Alcotest.test_case "budget checks" `Quick test_budget_checks;
    Alcotest.test_case "budget deadline (fake clock)" `Quick
      test_budget_deadline_fake_clock;
    Alcotest.test_case "retry heals transients" `Quick test_retry_heals;
    Alcotest.test_case "retry backoff deterministic" `Quick
      test_retry_deterministic_backoff;
    Alcotest.test_case "retry exhaustion" `Quick test_retry_exhaustion;
    Alcotest.test_case "retry skips logic bugs" `Quick test_retry_non_transient;
    Alcotest.test_case "chaos fire decision pure" `Quick test_chaos_determinism;
    Alcotest.test_case "chaos write mangling" `Quick test_chaos_mangle;
    Alcotest.test_case "pool failure isolation" `Quick
      test_par_try_map_isolation;
    Alcotest.test_case "pool order under injected delays" `Quick
      test_par_chaos_delays_keep_order;
    Alcotest.test_case "pool kills width-independent" `Quick
      test_par_chaos_kills_width_independent;
    Alcotest.test_case "store read weather -> miss" `Quick
      test_store_read_weather;
    Alcotest.test_case "store torn write all offsets" `Quick
      test_store_torn_write_all_offsets;
    Alcotest.test_case "enumerate/explore budgets" `Quick
      test_enumerate_budget;
    Alcotest.test_case "sweep budget -> typed partial" `Quick
      test_sweep_budget_partial;
    Alcotest.test_case "interrupted sweep rerun against its store" `Slow
      test_sweep_rerun_against_store;
    Alcotest.test_case "cli sweep resume validation" `Slow
      test_cli_sweep_resume_validation;
    Alcotest.test_case "cli serve hardening" `Slow test_cli_serve_hardening ]
