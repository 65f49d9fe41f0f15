(* Observability subsystem: hardware counter read-outs vs the analytic
   model on the tier-1 workloads (the tape, with the reference
   interpreter reading the same ports), bit-identity of counters-off
   netlists, composition with hardening and fault injection, the VCD
   waveform bugfixes (time-0 $dumpvars, sanitizer/uniquifier, the tape's
   dump read back against the reference interpreter), the activity probe
   against counts taken on the reference, measured-activity power
   scaling, and the Tl_par pool observer. *)

open Tensorlib

let check msg b = Alcotest.(check bool) msg true b

let cases =
  [ (Workloads.gemm ~m:4 ~n:4 ~k:5, "MNK-SST");
    (Workloads.conv2d ~k:4 ~c:4 ~y:4 ~x:4 ~p:3 ~q:3, "KCX-SST");
    (Workloads.depthwise_conv ~k:4 ~y:4 ~x:4 ~p:3 ~q:3, "XYP-MMM");
    (Workloads.mttkrp ~i:4 ~j:4 ~k:4 ~l:4, "IKL-UBBB") ]

let gen ?(counters = false) ?(harden = Harden.none) ?(rows = 4) ?(cols = 4)
    stmt dname =
  let design = Search.find_design_exn stmt dname in
  let env = Exec.alloc_inputs stmt in
  Accel.generate ~rows ~cols ~harden ~counters design env

(* ---------------- counters vs analytic model ---------------- *)

let test_counters_match_model () =
  List.iter
    (fun (stmt, dname) ->
      let acc = gen ~counters:true stmt dname in
      let v = Obs.Counters.validate acc in
      check (dname ^ " all counters = model") v.Obs.Counters.v_ok;
      check
        (Printf.sprintf "%s cross-checks cover cycles, MACs, reads, writes"
           dname)
        (List.length v.Obs.Counters.v_checks >= 4);
      (* the counter ports are outputs: the reference reads the same *)
      Alcotest.(check (list string))
        (dname ^ " reference = tape, counter ports included")
        []
        (Oracle.Refsim.run_against acc.Accel.circuit
           (Sim.create acc.Accel.circuit)
           (Accel.planned_cycles acc)))
    cases

(* A dataflow from each reuse class beyond the four tier-1 designs:
   multicast-stationary (UTS), stationary input (TMM), systolic
   multicast (SSMT). *)
let test_counters_match_model_extended () =
  let extended =
    [ (Workloads.batched_gemv ~m:4 ~n:4 ~k:4, "MNK-UTS");
      (Workloads.conv2d ~k:4 ~c:4 ~y:4 ~x:4 ~p:3 ~q:3, "KPX-TMM");
      (Workloads.mttkrp ~i:4 ~j:4 ~k:4 ~l:4, "IJK-SSMT") ]
  in
  List.iter
    (fun (stmt, dname) ->
      let acc = gen ~counters:true stmt dname in
      let v = Obs.Counters.validate acc in
      check (dname ^ " counters = model") v.Obs.Counters.v_ok)
    extended

(* ---------------- counters-off netlists are bit-identical --------- *)

let test_counters_off_bit_identical () =
  let stmt = Workloads.gemm ~m:4 ~n:4 ~k:4 in
  let design = Search.find_design_exn stmt "MNK-SST" in
  let env = Exec.alloc_inputs stmt in
  let default_off =
    Accel.generate ~rows:4 ~cols:4 design env |> Accel.verilog
  in
  let explicit_off =
    Accel.generate ~rows:4 ~cols:4 ~counters:false design env
    |> Accel.verilog
  in
  let on =
    Accel.generate ~rows:4 ~cols:4 ~counters:true design env
    |> Accel.verilog
  in
  check "counters-off = default netlist (bit-identical up to auto ids)"
    (String.equal (Netlist_text.normalize default_off)
       (Netlist_text.normalize explicit_off));
  check "counters-on netlist actually differs"
    (not (String.equal (Netlist_text.normalize default_off)
            (Netlist_text.normalize on)));
  check "counter ports only exist when enabled"
    (let has s sub =
       let n = String.length sub and h = String.length s in
       let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     has on "ctr_cycles" && not (has default_off "ctr_cycles"))

(* ---------------- composition: counters + hardening --------------- *)

let test_counters_compose_with_harden () =
  let stmt = Workloads.gemm ~m:4 ~n:4 ~k:4 in
  let acc = gen ~counters:true ~harden:Harden.full stmt "MNK-SST" in
  let env = Exec.alloc_inputs stmt in
  ignore env;
  let v = Obs.Counters.validate acc in
  check "hardened accelerator still validates counters" v.Obs.Counters.v_ok

(* ---------------- composition: counters under fault injection ----- *)

let test_counters_under_faults () =
  let acc = gen ~counters:true (Workloads.gemm ~m:4 ~n:4 ~k:4) "MNK-SST" in
  let config = { Campaign.default_config with trials = 50; seed = 7 } in
  let r = Campaign.run ~config acc in
  let classified =
    r.Campaign.masked + r.Campaign.detected + r.Campaign.hang + r.Campaign.sdc
  in
  check "campaign over instrumented accel fully classified"
    (classified = r.Campaign.trials);
  (* the instrumented design still validates after the campaign *)
  let v = Obs.Counters.validate acc in
  check "fault-free validation unaffected by prior campaign"
    v.Obs.Counters.v_ok

let test_validate_requires_counters () =
  let acc = gen (Workloads.gemm ~m:4 ~n:4 ~k:4) "MNK-SST" in
  match Obs.Counters.validate acc with
  | _ -> Alcotest.fail "expected Invalid_argument without ~counters"
  | exception Invalid_argument _ -> ()

(* ---------------- VCD: time-0 $dumpvars snapshot ------------------ *)

let has s sub =
  let n = String.length sub and h = String.length s in
  let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_vcd_initial_dump () =
  let open Signal in
  (* a register that never changes: without the $dumpvars snapshot it
     would never appear in the value stream at all *)
  let w = wire 4 in
  let q = reg w -- "stuck" in
  assign w q;
  let c = Circuit.create ~name:"vcd0" ~outputs:[ ("q", q) ] in
  let sim = Sim.create c in
  let vcd = Vcd.create sim c in
  Vcd.cycles vcd 3;
  let s = Vcd.contents vcd in
  check "dumpvars section present" (has s "$dumpvars");
  check "time 0 emitted" (has s "#0");
  (* every traced 4-bit signal dumps its initial value: the held zero *)
  check "constant-held register value dumped" (has s "b0000");
  (* the snapshot precedes the first cycle's changes *)
  let idx sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length s then -1
      else if String.sub s i n = sub then i
      else go (i + 1)
    in
    go 0
  in
  check "$dumpvars at time 0, before #1"
    (idx "$dumpvars" > idx "#0" && (idx "#1" = -1 || idx "$dumpvars" < idx "#1"))

(* ---------------- VCD: sanitizer and uniquifier ------------------- *)

let test_vcd_sanitize_and_uniquify () =
  let open Signal in
  let mk name =
    let w = wire 2 in
    let q = reg w -- name in
    assign w (q +: const ~width:2 1);
    q
  in
  let a = mk "a b" in
  let b = mk "a[3]" in
  let c = mk "3x" in
  let d = mk "dup" in
  let e = mk "dup" in
  let circ =
    Circuit.create ~name:"vcdsan"
      ~outputs:[ ("o1", a); ("o2", b); ("o3", c); ("o4", d); ("o5", e) ]
  in
  let sim = Sim.create circ in
  let vcd = Vcd.create sim circ in
  Vcd.cycles vcd 2;
  let s = Vcd.contents vcd in
  check "space rewritten" (has s "a_b");
  check "brackets rewritten" (has s "a_3_");
  check "leading digit prefixed" (has s "_3x");
  check "collision uniquified" (has s "dup_1");
  (* no $var line may carry an illegal identifier character *)
  String.split_on_char '\n' s
  |> List.iter (fun line ->
      if String.length line >= 4 && String.sub line 0 4 = "$var" then
        String.iter
          (fun ch ->
            match ch with
            | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ' ' | '$'
            | '!' .. '~' ->
              ()
            | _ -> Alcotest.fail (Printf.sprintf "illegal char in %S" line))
          line)

(* ---------------- VCD: the tape's dump vs the reference ---------- *)

(* Every $var's value at each timestamp [0 .. cycles - 1] of a VCD
   document, vars in declaration order. *)
let vcd_values text ~cycles =
  let lines = String.split_on_char '\n' text in
  let code = Hashtbl.create 64 in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "$var"; "wire"; _; c; _; "$end" ] ->
        Hashtbl.replace code c (Hashtbl.length code)
      | _ -> ())
    lines;
  let current = Array.make (Hashtbl.length code) (-1) in
  let rows = Array.make cycles [||] in
  let time = ref (-1) in
  let advance upto =
    for t = max 0 !time to min (cycles - 1) (upto - 1) do
      rows.(t) <- Array.copy current
    done;
    time := upto
  in
  let bits s = String.fold_left (fun v ch -> (2 * v) + Char.code ch - 48) 0 s in
  List.iter
    (fun l ->
      if l <> "" then
        match (l.[0], String.index_opt l ' ') with
        | '#', _ ->
          advance (int_of_string (String.sub l 1 (String.length l - 1)))
        | 'b', Some sp ->
          let c = String.sub l (sp + 1) (String.length l - sp - 1) in
          current.(Hashtbl.find code c) <- bits (String.sub l 1 (sp - 1))
        | ('0' | '1'), None ->
          let c = String.sub l 1 (String.length l - 1) in
          current.(Hashtbl.find code c) <- bits (String.make 1 l.[0])
        | _ -> ())
    lines;
  advance cycles;
  rows

(* Trace every node of the circuit, so wires the tape compiler aliased or
   CSE-merged are in the dump: read back, each must carry the value the
   reference interpreter computes for it, cycle by cycle. *)
let test_vcd_backend_differential () =
  let stmt = Workloads.gemm ~m:2 ~n:2 ~k:2 in
  let design = Search.find_design_exn stmt "MNK-SST" in
  let env = Exec.alloc_inputs stmt in
  let acc = Accel.generate ~rows:2 ~cols:2 design env in
  let circuit = acc.Accel.circuit in
  let nodes = Circuit.nodes circuit in
  let cycles = acc.Accel.total_cycles in
  let sim = Sim.create circuit in
  let vcd = Vcd.create ~signals:(Array.to_list nodes) sim circuit in
  Vcd.cycles vcd cycles;
  let dumped = vcd_values (Vcd.contents vcd) ~cycles in
  let reference = Oracle.Refsim.create circuit in
  for t = 0 to cycles - 1 do
    Oracle.Refsim.settle reference;
    Array.iteri
      (fun i (s : Signal.t) ->
        let want = Oracle.Refsim.peek reference s in
        if dumped.(t).(i) <> want then
          Alcotest.failf "cycle %d: %s dumped as %d, reference %d" t
            (Signal.blame s) dumped.(t).(i) want)
      nodes;
    Oracle.Refsim.latch reference
  done

let test_vcd_counter_ports_traced () =
  let acc = gen ~counters:true (Workloads.gemm ~m:2 ~n:2 ~k:2) "MNK-SST"
      ~rows:2 ~cols:2 in
  let sim = Sim.create acc.Accel.circuit in
  let vcd = Vcd.create sim acc.Accel.circuit in
  Vcd.cycles vcd acc.Accel.total_cycles;
  let s = Vcd.contents vcd in
  check "cycle counter visible in waveform" (has s "ctr_cycles")

(* ---------------- activity probe ---------------------------------- *)

(* The probe's three counts over [n] cycles, taken on the reference
   interpreter: register toggles across each latch edge, read-address
   changes per read port (the first cycle counts), and cycles whose write
   is committed (enable high, address in range). *)
let reference_activity circuit n =
  let r = Oracle.Refsim.create circuit in
  let peek = Oracle.Refsim.peek r in
  let nodes = Array.to_list (Circuit.nodes circuit) in
  let regs =
    List.filter
      (fun (s : Signal.t) ->
        match s.Signal.node with Signal.Reg _ -> true | _ -> false)
      nodes
  in
  let read_addrs =
    List.filter_map
      (fun (s : Signal.t) ->
        match s.Signal.node with
        | Signal.Ram_read (_, a) -> Some (a, ref None)
        | _ -> None)
      nodes
  in
  let popcount v =
    let rec go v n = if v = 0 then n else go (v lsr 1) (n + (v land 1)) in
    go v 0
  in
  let toggles = ref 0 and reads = ref 0 and writes = ref 0 in
  for _ = 1 to n do
    Oracle.Refsim.settle r;
    List.iter
      (fun (a, prev) ->
        let v = peek a in
        if !prev <> Some v then incr reads;
        prev := Some v)
      read_addrs;
    List.iter
      (fun (ram : Signal.ram) ->
        match ram.Signal.write_port with
        | Some wp
          when peek wp.Signal.we <> 0 && peek wp.Signal.waddr < ram.Signal.size
          ->
          incr writes
        | _ -> ())
      (Circuit.rams circuit);
    let before = List.map peek regs in
    Oracle.Refsim.latch r;
    List.iter2
      (fun s q -> toggles := !toggles + popcount (q lxor peek s))
      regs before
  done;
  (!toggles, !reads, !writes)

let test_activity_probe_known_toggles () =
  let open Signal in
  (* 1-bit oscillator: exactly one toggle per cycle *)
  let w = wire 1 in
  let q = reg w -- "osc" in
  assign w (not_ q);
  let c = Circuit.create ~name:"act" ~outputs:[ ("q", q) ] in
  let probe = Activity.create (Sim.create c) c in
  Activity.cycles probe 10;
  let r = Activity.report probe in
  Alcotest.(check int) "cycles" 10 r.Activity.cycles;
  Alcotest.(check int) "toggles" 10 r.Activity.reg_toggles;
  check "alpha_reg = 1" (abs_float (Activity.alpha_reg r -. 1.0) < 1e-9);
  let toggles, _, _ = reference_activity c 10 in
  Alcotest.(check int) "reference counts the same toggles" toggles
    r.Activity.reg_toggles

let test_activity_probe_accelerator () =
  let acc = gen (Workloads.gemm ~m:4 ~n:4 ~k:4) "MNK-SST" in
  let n = Accel.planned_cycles acc in
  let sim = Sim.create acc.Accel.circuit in
  let probe = Activity.create sim acc.Accel.circuit in
  Activity.cycles probe n;
  Accel.check_done acc sim;
  let rt = Activity.report probe in
  check "some register toggled" (rt.Activity.reg_toggles > 0);
  check "writes observed = 16 outputs" (rt.Activity.ram_writes = 16);
  let toggles, reads, writes = reference_activity acc.Accel.circuit n in
  Alcotest.(check (list int))
    "reference: same toggles, reads and writes" [ toggles; reads; writes ]
    [ rt.Activity.reg_toggles; rt.Activity.ram_reads; rt.Activity.ram_writes ]

(* ---------------- ASIC model under measured activity --------------- *)

let test_asic_activity_scaling () =
  let acc = gen (Workloads.gemm ~m:4 ~n:4 ~k:4) "MNK-SST" in
  let circuit = acc.Accel.circuit in
  let base = Asic.evaluate_netlist circuit in
  let full = Asic.evaluate_netlist ~activity:Asic.full_activity circuit in
  check "full activity = default report"
    (base.Asic.power_mw = full.Asic.power_mw
     && base.Asic.breakdown = full.Asic.breakdown);
  let half =
    Asic.evaluate_netlist
      ~activity:
        { Asic.alpha_compute = 0.5; alpha_reg = 0.5; alpha_mem = 0.5 }
      circuit
  in
  let cat (r : Asic.report) k = List.assoc k r.Asic.breakdown in
  List.iter
    (fun k ->
      check (k ^ " halves")
        (abs_float (cat half k -. (0.5 *. cat base k)) < 1e-9))
    [ "compute"; "registers"; "memory" ];
  check "control static" (cat half "control" = cat base "control");
  check "area unchanged" (half.Asic.area = base.Asic.area);
  check "power strictly reduced" (half.Asic.power_mw < base.Asic.power_mw)

let test_power_measured_le_modeled () =
  List.iter
    (fun (stmt, dname) ->
      let acc = gen stmt dname in
      let p = Obs.Power.measure acc in
      check (dname ^ " measured power <= modeled (activity <= 1)")
        (p.Obs.Power.measured.Asic.power_mw
         <= p.Obs.Power.modeled.Asic.power_mw +. 1e-9);
      check (dname ^ " alphas within [0, 1]")
        (let a = p.Obs.Power.alpha in
         a.Asic.alpha_compute >= 0. && a.Asic.alpha_compute <= 1.
         && a.Asic.alpha_reg >= 0. && a.Asic.alpha_reg <= 1.
         && a.Asic.alpha_mem >= 0. && a.Asic.alpha_mem <= 1.))
    cases

(* ---------------- Tl_par pool observer ----------------------------- *)

let test_par_wrapper_observes_tasks () =
  let lock = Mutex.create () in
  let seen = ref [] in
  let wrapper =
    { Par.wrap =
        (fun ~label ~domain ~index f ->
          let v = f () in
          Mutex.lock lock;
          seen := (label, domain, index) :: !seen;
          Mutex.unlock lock;
          v) }
  in
  Par.set_wrapper (Some wrapper);
  Fun.protect
    ~finally:(fun () -> Par.set_wrapper None)
    (fun () ->
      let xs = [ 1; 2; 3; 4; 5 ] in
      let ys = Par.map ~domains:1 ~label:"obs-test" (fun x -> x * x) xs in
      Alcotest.(check (list int)) "results unchanged" [ 1; 4; 9; 16; 25 ] ys;
      let obs = List.filter (fun (l, _, _) -> l = "obs-test") !seen in
      Alcotest.(check int) "every task observed" 5 (List.length obs);
      let idxs = List.sort compare (List.map (fun (_, _, i) -> i) obs) in
      Alcotest.(check (list int)) "indices 0..4" [ 0; 1; 2; 3; 4 ] idxs);
  (* wrapper uninstalled: no further observations *)
  let before = List.length !seen in
  ignore (Par.map ~label:"obs-test" (fun x -> x) [ 1; 2 ]);
  Alcotest.(check int) "uninstalled wrapper observes nothing" before
    (List.length !seen)

let test_trace_pool_attribution () =
  let trace = Obs.Trace.create () in
  let now = ref 0.0 in
  let clock () =
    now := !now +. 0.001;
    !now
  in
  Par.set_wrapper (Some (Obs.Trace.pool_wrapper trace ~clock));
  Fun.protect
    ~finally:(fun () -> Par.set_wrapper None)
    (fun () ->
      ignore (Par.map ~domains:1 ~label:"traced" (fun x -> x + 1) [ 1; 2; 3 ]));
  Alcotest.(check int) "three spans" 3 (Obs.Trace.length trace);
  let json = Obs.Trace.to_json trace in
  check "trace_event document" (has json "\"traceEvents\"");
  check "pool category" (has json "\"cat\": \"tl_par\"");
  check "span named by pool label" (has json "\"name\": \"traced\"");
  check "item index attributed" (has json "\"index\": \"2\"")

let suite =
  [ Alcotest.test_case "counters match model (4 workloads x 2 backends)"
      `Quick test_counters_match_model;
    Alcotest.test_case "counters match model (extended dataflow classes)"
      `Quick test_counters_match_model_extended;
    Alcotest.test_case "counters-off netlist bit-identical" `Quick
      test_counters_off_bit_identical;
    Alcotest.test_case "counters compose with hardening" `Quick
      test_counters_compose_with_harden;
    Alcotest.test_case "counters under fault campaign" `Quick
      test_counters_under_faults;
    Alcotest.test_case "validate rejects uninstrumented accel" `Quick
      test_validate_requires_counters;
    Alcotest.test_case "vcd: time-0 $dumpvars snapshot" `Quick
      test_vcd_initial_dump;
    Alcotest.test_case "vcd: sanitizer and uniquifier" `Quick
      test_vcd_sanitize_and_uniquify;
    Alcotest.test_case "vcd: tape dump = reference trace" `Quick
      test_vcd_backend_differential;
    Alcotest.test_case "vcd: counter ports traced" `Quick
      test_vcd_counter_ports_traced;
    Alcotest.test_case "activity probe: known toggle counts" `Quick
      test_activity_probe_known_toggles;
    Alcotest.test_case "activity probe: accelerator, both backends" `Quick
      test_activity_probe_accelerator;
    Alcotest.test_case "asic: activity factors scale power" `Quick
      test_asic_activity_scaling;
    Alcotest.test_case "power: measured <= modeled on tier-1" `Quick
      test_power_measured_le_modeled;
    Alcotest.test_case "par: wrapper observes every task" `Quick
      test_par_wrapper_observes_tasks;
    Alcotest.test_case "trace: pool span attribution" `Quick
      test_trace_pool_attribution ]
