(* Corner cases and smaller APIs: exploration, dense tensors, rationals
   under stress, Verilog numeric forms, schedule event ordering. *)

open Tensorlib

(* ---------------- joint exploration ---------------- *)

let test_explore_gemm () =
  let gemm = Workloads.gemm ~m:64 ~n:64 ~k:64 in
  let evaluated = Explore.explore ~limit:8 gemm in
  Alcotest.(check bool) "several designs" true (List.length evaluated >= 4);
  let fastest = Explore.best_performance evaluated in
  let greenest = Explore.best_efficiency evaluated in
  Alcotest.(check bool) "fastest has min cycles" true
    (List.for_all
       (fun e -> fastest.Explore.perf.Perf.cycles <= e.Explore.perf.Perf.cycles)
       evaluated);
  Alcotest.(check bool) "greenest has max gops/W" true
    (List.for_all
       (fun e -> greenest.Explore.gops_per_watt >= e.Explore.gops_per_watt)
       evaluated);
  (* frontier members are mutually non-dominated *)
  let front = Explore.pareto_perf_power evaluated in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a != b then
            Alcotest.(check bool) "non-dominated" false
              (b.Explore.perf.Perf.cycles <= a.Explore.perf.Perf.cycles
               && b.Explore.asic.Asic.power_mw <= a.Explore.asic.Asic.power_mw
               && (b.Explore.perf.Perf.cycles < a.Explore.perf.Perf.cycles
                   || b.Explore.asic.Asic.power_mw < a.Explore.asic.Asic.power_mw)))
        front)
    front

let test_explore_empty_raises () =
  Alcotest.check_raises "empty" (Invalid_argument "Explore: empty evaluation list")
    (fun () -> ignore (Explore.best_performance []))

(* ---------------- dense tensor corners ---------------- *)

let test_dense_rank1 () =
  let t = Dense.init [| 5 |] (fun i -> i.(0) * i.(0)) in
  Alcotest.(check int) "get" 16 (Dense.get t [| 4 |]);
  Alcotest.(check (array int)) "strides" [| 1 |] (Dense.strides t)

let test_dense_validation () =
  Alcotest.check_raises "empty shape"
    (Invalid_argument "Dense.create: empty shape") (fun () ->
      ignore (Dense.create [||]));
  Alcotest.check_raises "zero extent"
    (Invalid_argument "Dense.create: non-positive extent") (fun () ->
      ignore (Dense.create [| 2; 0 |]));
  (* refused before any allocation: 2^32 * 2^32 wraps to 0 in an int,
     and 4 x 2^32 words are 128 GiB *)
  List.iter
    (fun shape ->
      Alcotest.check_raises "more elements than Dense.max_elements"
        (Invalid_argument "Dense.create: more elements than Dense.max_elements")
        (fun () -> ignore (Dense.create shape)))
    [ [| 1 lsl 32; 1 lsl 32 |]; [| 4; 1 lsl 32 |];
      [| Dense.max_elements + 1 |] ];
  List.iter
    (fun (shape, fits) ->
      Alcotest.(check bool)
        (String.concat "x" (Array.to_list (Array.map string_of_int shape)))
        fits (Dense.fits shape))
    [ ([| Dense.max_elements; 1 |], true);
      ([| 1 lsl 12; 1 lsl 12 |], true);
      ([| Dense.max_elements; 2 |], false);
      ([| 4; 1 lsl 32 |], false);
      ([| Sys.max_array_length; 1 |], false);
      ([| 1 lsl 32; 1 lsl 32 |], false);
      ([| 2; 0 |], false) ]

let test_dense_fill_and_pp () =
  let t = Dense.create [| 2; 2 |] in
  Dense.fill t 7;
  Alcotest.(check int) "filled" 7 (Dense.get t [| 1; 1 |]);
  let s = Format.asprintf "%a" Dense.pp t in
  Alcotest.(check bool) "pp shows shape" true
    (String.length s > 0 && String.contains s 'x')

(* ---------------- rationals under stress ---------------- *)

let test_rat_overflow_detected () =
  let big = Rat.make max_int 1 in
  (try
     ignore (Rat.mul big big);
     Alcotest.fail "expected overflow"
   with Rat.Overflow -> ())

let test_rat_extremes () =
  Alcotest.(check int) "compare extremes" 1
    (Rat.compare (Rat.make 1 3) (Rat.make 1 4));
  Alcotest.(check string) "to_string" "-3/7" (Rat.to_string (Rat.make 3 (-7)))

(* ---------------- verilog numeric / structural forms ---------------- *)

let has hay sub =
  let n = String.length sub and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = sub || go (i + 1)) in
  go 0

let test_verilog_negative_constant () =
  let open Signal in
  let c = const ~width:8 (-3) in
  let v =
    Verilog.to_string (Circuit.create ~name:"neg" ~outputs:[ ("o", c) ])
  in
  (* -3 masked to 8 bits = 253 *)
  Alcotest.(check bool) "two's complement literal" true (has v "8'd253")

let test_verilog_signed_ops () =
  let open Signal in
  let a = input "a" 8 and b = input "b" 8 in
  let v =
    Verilog.to_string
      (Circuit.create ~name:"signed_ops"
         ~outputs:[ ("lt", slt a b); ("sra", shift_right_a a 3) ])
  in
  Alcotest.(check bool) "signed compare" true (has v "$signed(a) < $signed(b)");
  Alcotest.(check bool) "arithmetic shift" true (has v ">>> 3")

let test_verilog_keyword_collision () =
  let open Signal in
  let x = input "x" 4 and t = input "time" 4 in
  let named = (x +: x) -- "output" in
  let gate = (x &: t) -- "buf" in
  let lut = rom ~name:"table" ~width:4 [| 1; 2 |] in
  (* all four are IEEE 1364-2005 reserved words: the emitter must rename
     them *)
  let v =
    Verilog.to_string
      (Circuit.create ~name:"kw"
         ~outputs:
           [ ("o", named); ("g", gate); ("q", ram_read lut (bit x 0)) ])
  in
  Alcotest.(check bool) "keyword avoided" true (has v "output_1");
  Alcotest.(check bool) "gate primitive avoided" true
    (has v "wire [3:0] buf_1 = x & time_1;");
  Alcotest.(check bool) "input renamed" true (has v "input [3:0] time_1");
  Alcotest.(check bool) "rom renamed" true (has v "reg [3:0] table_1 [0:1];");
  Alcotest.(check bool) "no bare reserved word" false
    (has v " buf " || has v " time," || has v " table ")

let test_verilog_ram_write_block () =
  let open Signal in
  let we = input "we" 1 and addr = input "addr" 2 and d = input "d" 8 in
  let r = ram ~name:"buf" ~size:4 ~width:8 ~init:(Array.make 4 0) () in
  ram_write r ~we ~addr ~data:d;
  let v =
    Verilog.to_string
      (Circuit.create ~name:"ramw" ~outputs:[ ("q", ram_read r addr) ])
  in
  Alcotest.(check bool) "write in always block" true
    (has v "if (we) buf_1[addr] <= d;")

(* ---------------- schedule events ---------------- *)

let test_schedule_events_sorted () =
  let stmt = Workloads.gemm ~m:3 ~n:3 ~k:3 in
  let d = Search.find_design_exn stmt "MNK-SST" in
  let sched = Schedule.v d ~rows:4 ~cols:4 in
  let events = Oracle.events sched in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Schedule.cycle <= b.Schedule.cycle && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "ascending cycles" true (sorted events);
  Alcotest.(check int) "27 events" 27 (List.length events);
  (* every event's tensor indices are in range *)
  List.iter
    (fun ev ->
      List.iter
        (fun access ->
          let idx = Access.index access ev.Schedule.x in
          let shape = Access.shape access stmt.Stmt.iters in
          Array.iteri
            (fun i v ->
              Alcotest.(check bool) "index in range" true
                (v >= 0 && v < shape.(i)))
            idx)
        (Stmt.tensors stmt))
    events

(* ---------------- topology coverage ---------------- *)

let test_topology_all_classes () =
  (* every dataflow class renders in a topology report without exceptions *)
  let stmts =
    [ Workloads.gemm ~m:8 ~n:8 ~k:8;
      Workloads.batched_gemv ~m:4 ~n:4 ~k:4;
      Workloads.conv2d ~k:4 ~c:4 ~y:4 ~x:4 ~p:3 ~q:3;
      Workloads.depthwise_conv ~k:4 ~y:4 ~x:4 ~p:3 ~q:3 ]
  in
  List.iter
    (fun stmt ->
      List.iter
        (fun (_, d) ->
          let topo = Topology.describe d in
          Alcotest.(check bool) "tensors covered" true
            (List.length topo.Topology.tensors
             = List.length d.Design.tensors);
          ignore (Format.asprintf "%a" Topology.pp topo))
        (List.filteri (fun i _ -> i < 10) (Search.all_designs stmt)))
    stmts

(* ---------------- facade sanity ---------------- *)

let test_facade () =
  Alcotest.(check bool) "version" true (String.length Tensorlib.version > 0);
  let stmt = Workloads.gemm ~m:2 ~n:2 ~k:2 in
  let d = Tensorlib.analyze stmt ~select:[ "m"; "n"; "k" ]
      ~matrix:[ [ 1; 0; 0 ]; [ 0; 1; 0 ]; [ 1; 1; 1 ] ]
  in
  Alcotest.(check string) "facade analyze" "MNK-SST" d.Design.name

let suite =
  [ Alcotest.test_case "explore gemm" `Quick test_explore_gemm;
    Alcotest.test_case "explore empty" `Quick test_explore_empty_raises;
    Alcotest.test_case "dense rank-1" `Quick test_dense_rank1;
    Alcotest.test_case "dense validation" `Quick test_dense_validation;
    Alcotest.test_case "dense fill/pp" `Quick test_dense_fill_and_pp;
    Alcotest.test_case "rat overflow" `Quick test_rat_overflow_detected;
    Alcotest.test_case "rat extremes" `Quick test_rat_extremes;
    Alcotest.test_case "verilog negative const" `Quick
      test_verilog_negative_constant;
    Alcotest.test_case "verilog signed ops" `Quick test_verilog_signed_ops;
    Alcotest.test_case "verilog keyword clash" `Quick
      test_verilog_keyword_collision;
    Alcotest.test_case "verilog ram write" `Quick test_verilog_ram_write_block;
    Alcotest.test_case "schedule events" `Quick test_schedule_events_sorted;
    Alcotest.test_case "topology coverage" `Quick test_topology_all_classes;
    Alcotest.test_case "facade" `Quick test_facade ]

(* ---------------- netlist-based costing + scale ---------------- *)

let test_netlist_costing () =
  let stmt = Workloads.gemm ~m:4 ~n:4 ~k:4 in
  let d = Search.find_design_exn stmt "MNK-SST" in
  let env = Exec.alloc_inputs stmt in
  let acc = Accel.generate ~rows:4 ~cols:4 d env in
  let r = Asic.evaluate_netlist acc.Accel.circuit in
  Alcotest.(check bool) "positive power" true (r.Asic.power_mw > 0.);
  Alcotest.(check bool) "positive area" true (r.Asic.area > 0.);
  (* same coefficients: netlist compute cost of a 4x4 must be ~1/16 of the
     16x16 analytic model's compute entry (16 vs 256 multipliers) *)
  let analytic = Asic.evaluate ~rows:4 ~cols:4 d in
  let compute rep = List.assoc "compute" rep.Asic.breakdown in
  Alcotest.(check bool) "compute costs within 2x" true
    (compute r < 2. *. compute analytic && compute analytic < 2. *. compute r)

let test_full_scale_array () =
  (* a full 16x16 array netlist, simulated end to end *)
  let stmt = Workloads.gemm ~m:16 ~n:16 ~k:8 in
  let d = Search.find_design_exn stmt "MNK-SST" in
  let env = Exec.alloc_inputs stmt in
  let acc = Accel.generate ~rows:16 ~cols:16 d env in
  let st = Circuit.stats acc.Accel.circuit in
  Alcotest.(check int) "256 multipliers" 256 st.Circuit.multipliers;
  Alcotest.(check bool) "16x16 hardware matches golden" true
    (Dense.equal (Exec.run stmt env) (Accel.execute acc))

let suite =
  suite
  @ [ Alcotest.test_case "netlist costing" `Quick test_netlist_costing;
      Alcotest.test_case "full 16x16 array" `Quick test_full_scale_array ]

let test_narrow_datapath () =
  (* 8-bit data / 24-bit accumulators still compute exactly (inputs are
     small by construction) *)
  let stmt = Workloads.gemm ~m:4 ~n:4 ~k:4 in
  let d = Search.find_design_exn stmt "MNK-SST" in
  let env = Exec.alloc_inputs stmt in
  let acc = Accel.generate ~rows:4 ~cols:4 ~data_width:8 ~acc_width:24 d env in
  Alcotest.(check bool) "8-bit datapath matches golden" true
    (Dense.equal (Exec.run stmt env) (Accel.execute acc))

let suite =
  suite
  @ [ Alcotest.test_case "narrow datapath" `Quick test_narrow_datapath ]
