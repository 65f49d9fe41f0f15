(* End-to-end hardware generation: every generated accelerator must compute
   exactly what the golden executor computes.  This is the integration test
   of the whole stack (STT analysis -> schedule -> PE templates ->
   interconnect -> memory -> controller -> netlist simulation). *)

open Tensorlib

let check_accel ?(rows = 8) ?(cols = 8) design =
  let stmt = design.Design.transform.Transform.stmt in
  let env = Exec.alloc_inputs stmt in
  let golden = Exec.run stmt env in
  let acc = Accel.generate ~rows ~cols design env in
  let got = Accel.execute acc in
  if not (Dense.equal golden got) then
    Alcotest.failf "accelerator output mismatch for %s" design.Design.name

let check_named ?rows ?cols stmt name =
  match Search.find_design stmt name with
  | Some d -> check_accel ?rows ?cols d
  | None -> Alcotest.failf "%s not realisable" name

let gemm = Workloads.gemm ~m:4 ~n:4 ~k:5

(* one test per GEMM dataflow family *)
let test_gemm_output_stationary () = check_named gemm "MNK-SST"
let test_gemm_weight_stationary () = check_named gemm "MNK-STS"
let test_gemm_multicast () = check_named gemm "MNK-MTM"
let test_gemm_multicast_stationary_out () = check_named gemm "MNK-MMT"
let test_gemm_all_systolic () = check_named gemm "MNK-SSS"
let test_gemm_input_stationary () = check_named gemm "MNK-TSM"
let test_gemm_mixed () = check_named gemm "MNK-MSS"

let test_gemm_diagonal_interconnect () =
  (* Eyeriss-flavoured diagonal line: dp = (0,-1)-ish via row [0,-1,1] *)
  let t =
    Transform.by_names gemm [ "m"; "n"; "k" ]
      ~matrix:[ [ 1; 0; 0 ]; [ 0; -1; 1 ]; [ 0; 0; 1 ] ]
  in
  check_accel (Design.analyze t)

let test_gemm_skewed_systolic () =
  (* wavefront schedule with dt=1 chains in both dimensions *)
  let t =
    Transform.by_names gemm [ "m"; "n"; "k" ]
      ~matrix:[ [ 1; 0; 0 ]; [ 0; 1; 0 ]; [ 1; 1; 1 ] ]
  in
  check_accel (Design.analyze t)

let test_gemm_rectangular_array () =
  (* non-square array and non-square problem *)
  let stmt = Workloads.gemm ~m:3 ~n:6 ~k:4 in
  check_named ~rows:3 ~cols:6 stmt "MNK-SST"

let test_gemm_outer_loops () =
  (* footprint smaller than the problem: unselected loops run as passes.
     Select (m,n) spatial, k temporal, but shrink the array so that m,n
     must stay small?  Instead: select only m,n,k of a bigger GEMM still
     fits; use batched passes via a 4th pseudo-loop in conv instead. *)
  let stmt = Workloads.conv2d ~k:3 ~c:3 ~y:3 ~x:3 ~p:2 ~q:2 in
  (* KCX selected; y,p,q run sequentially -> passes > 1 *)
  check_named stmt "KCX-SST"

let conv = Workloads.conv2d ~k:4 ~c:4 ~y:4 ~x:4 ~p:3 ~q:3

let test_conv_output_stationary () = check_named conv "KCX-SST"
let test_conv_weight_stationary () = check_named conv "KCX-STS"
let test_conv_shidiannao_style () = check_named conv "XYP-MST"
let test_conv_multicast () = check_named conv "XYP-MMT"
let test_conv_input_stationary () = check_named conv "KPX-TMM"

let test_depthwise () =
  let dw = Workloads.depthwise_conv ~k:4 ~y:4 ~x:4 ~p:3 ~q:3 in
  check_named dw "XYP-MMM"

let test_mttkrp_unicast () =
  (* three-operand cell + unicast input *)
  let mt = Workloads.mttkrp ~i:4 ~j:4 ~k:4 ~l:4 in
  check_named mt "IKL-UBBB"

let test_mttkrp_systolic () =
  let mt = Workloads.mttkrp ~i:4 ~j:4 ~k:4 ~l:4 in
  check_named mt "IJK-SSMT"

let test_ttmc_unicast_output () =
  let tt = Workloads.ttmc ~i:4 ~j:4 ~k:3 ~l:4 ~m:4 in
  check_named tt "IJK-BBBU"

let test_batched_gemv () =
  let bg = Workloads.batched_gemv ~m:4 ~n:4 ~k:4 in
  check_named bg "MNK-UTS";
  check_named bg "MNK-UTM"

let test_footprint_too_big () =
  let stmt = Workloads.gemm ~m:32 ~n:32 ~k:4 in
  let d = Search.find_design_exn stmt "MNK-SST" in
  let env = Exec.alloc_inputs stmt in
  (try
     ignore (Accel.generate ~rows:4 ~cols:4 d env);
     Alcotest.fail "expected footprint rejection"
   with Accel.Unsupported _ -> ())

(* generate reads data memories at row-major addresses over the layout's
   shapes, so an env that lacks a tensor or holds one of another shape is
   refused up front *)
let test_generate_checks_env () =
  let stmt = Workloads.gemm ~m:4 ~n:4 ~k:4 in
  let d = Search.find_design_exn stmt "MNK-SST" in
  let env = Exec.alloc_inputs stmt in
  let expect what env' =
    match Accel.generate ~rows:4 ~cols:4 d env' with
    | exception Invalid_argument msg ->
      let n = String.length what in
      let rec has i =
        i + n <= String.length msg && (String.sub msg i n = what || has (i + 1))
      in
      if not (has 0) then Alcotest.failf "%S lacks %S" msg what
    | _ -> Alcotest.failf "generate accepted an env with a %s" what
  in
  expect "missing tensor B" (List.remove_assoc "B" env);
  expect "shape mismatch for A"
    (Exec.alloc_inputs (Workloads.gemm ~m:4 ~n:4 ~k:5))

let test_verilog_generates () =
  let d = Search.find_design_exn gemm "MNK-SST" in
  let env = Exec.alloc_inputs gemm in
  let acc = Accel.generate ~rows:4 ~cols:4 d env in
  let v = Accel.verilog acc in
  Alcotest.(check bool) "nonempty verilog" true (String.length v > 1000);
  let has sub =
    let n = String.length sub and h = String.length v in
    let rec go i = i + n <= h && (String.sub v i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "module name" true (has "module tensorlib_MNK_SST");
  Alcotest.(check bool) "output banks" true (has "obank_col0")

let test_circuit_structure () =
  (* output-stationary GEMM: two systolic inputs need dt registers in every
     PE; structure should scale with the array *)
  let d = Search.find_design_exn gemm "MNK-SST" in
  let env = Exec.alloc_inputs gemm in
  let acc = Accel.generate ~rows:4 ~cols:4 d env in
  let st = Circuit.stats acc.Accel.circuit in
  Alcotest.(check bool) "one multiplier per PE" true
    (st.Circuit.multipliers >= 16);
  Alcotest.(check bool) "registers present" true (st.Circuit.regs > 3 * 16);
  Alcotest.(check bool) "banks present" true (st.Circuit.rams > 4)

let test_schedule_properties () =
  let d = Search.find_design_exn gemm "MNK-SST" in
  let sched = Schedule.v d ~rows:8 ~cols:8 in
  Alcotest.(check int) "event count = domain size" (4 * 4 * 5)
    sched.Schedule.event_count;
  Alcotest.(check int) "passes" 1 sched.Schedule.passes;
  (* one op per PE per cycle *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (ev : Schedule.event) ->
      let key = (ev.Schedule.pe, ev.Schedule.cycle) in
      if Hashtbl.mem seen key then Alcotest.fail "PE double-booked";
      Hashtbl.add seen key ())
    (Oracle.events sched)

let test_geometry_lines () =
  let open Tl_templates.Geometry in
  Alcotest.(check bool) "in grid" true (in_grid ~rows:4 ~cols:4 (3, 3));
  Alcotest.(check bool) "out of grid" false (in_grid ~rows:4 ~cols:4 (4, 0));
  Alcotest.(check (pair int int)) "line rep row" (2, 0)
    (line_rep ~rows:4 ~cols:4 ~dir:[| 0; 1 |] (2, 3));
  Alcotest.(check (pair int int)) "line rep diag" (0, 1)
    (line_rep ~rows:4 ~cols:4 ~dir:[| 1; 1 |] (2, 3))

let test_reduce_tree () =
  let open Signal in
  let inputs = List.init 5 (fun i -> const ~width:16 (i + 1)) in
  let root = Reduce_tree.build inputs in
  let c = Circuit.create ~name:"tree" ~outputs:[ ("sum", root) ] in
  let s = Sim.create c in
  Sim.settle s;
  Alcotest.(check int) "tree sums" 15 (Sim.output s "sum");
  Alcotest.(check int) "depth of 5" 3 (Reduce_tree.depth 5);
  Alcotest.(check int) "depth of 1" 0 (Reduce_tree.depth 1)

let test_pe_modules_systolic () =
  let open Signal in
  let din = input "din" 16 in
  let use, dout = Pe_modules.systolic_input ~dt:2 ~din in
  let c = Circuit.create ~name:"sys" ~outputs:[ ("use", use); ("out", dout) ] in
  let s = Sim.create c in
  Sim.set_input s "din" 7;
  Sim.settle s;
  Alcotest.(check int) "use is combinational" 7 (Sim.output s "use");
  Alcotest.(check int) "out delayed" 0 (Sim.output s "out");
  Sim.cycles s 2;
  Sim.settle s;
  Alcotest.(check int) "out after dt" 7 (Sim.output s "out")

(* property: random realisable GEMM designs are functionally correct *)
let prop_random_designs_correct =
  let arb =
    QCheck.make
      ~print:(fun m ->
        String.concat ";"
          (List.map
             (fun r -> String.concat "," (List.map string_of_int r))
             m))
      QCheck.Gen.(
        let cell = int_range (-1) 1 in
        let rec fr () =
          array_size (return 9) cell >>= fun cells ->
          let m =
            List.init 3 (fun i -> List.init 3 (fun j -> cells.((i * 3) + j)))
          in
          if Rat.is_zero (Mat.det (Mat.of_int_rows m)) then fr () else return m
        in
        fr ())
  in
  QCheck.Test.make ~name:"random STT -> correct netlist" ~count:12 arb
    (fun m ->
      let stmt = Workloads.gemm ~m:3 ~n:3 ~k:3 in
      let t = Transform.by_names stmt [ "m"; "n"; "k" ] ~matrix:m in
      let d = Design.analyze t in
      if not (Design.netlist_supported d) then true
      else begin
        let env = Exec.alloc_inputs stmt in
        let golden = Exec.run stmt env in
        match Accel.generate ~rows:9 ~cols:9 d env with
        | acc -> Dense.equal golden (Accel.execute acc)
        | exception Accel.Unsupported _ -> true
      end)

(* Chain pairing, reference implementation: the element every (PE,
   cycle) holds, in a hash table; an event of [p] is unpaired unless the
   PE at [p + k·dp] holds the same element at [cycle + k·dt].  k = -1
   gives chain entries, k = 1 chain exits. *)
let reference_unpaired (by_pe : Schedule.event list array array) access =
  let tbl : (int * int * int, int array) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun c events ->
          List.iter
            (fun ev ->
              Hashtbl.replace tbl (r, c, ev.Schedule.cycle)
                (Access.index access ev.Schedule.x))
            events)
        row)
    by_pe;
  fun (r, c) ~dp ~dt k ->
    let qr = r + (k * dp.(0)) and qc = c + (k * dp.(1)) in
    List.filter
      (fun ev ->
        match Hashtbl.find_opt tbl (qr, qc, ev.Schedule.cycle + (k * dt)) with
        | Some idx -> idx <> Access.index access ev.Schedule.x
        | None -> true)
      by_pe.(r).(c)

(* [Layout.build]'s chain pairing against the reference on random STTs
   (the draws of the streaming-statistics property): every chained
   input's injection bitmaps, and a systolic output's psum kinds, exit
   PEs and exit cycles.  The run must reach the cases where pairing is
   subtle. *)
let test_chain_pairing_random () =
  let seen = Hashtbl.create 8 in
  let reach f = Hashtbl.replace seen f () in
  let check label b = if not b then Alcotest.fail label in
  let arb =
    QCheck.pair
      (QCheck.int_bound (Array.length Test_dse_fast.stats_cases - 1))
      Test_dse_fast.arbitrary_matrix
  in
  let prop =
    QCheck.Test.make ~name:"chain pairing = reference" ~count:600 arb
      (fun (case, m) ->
        let stmt, names = Test_dse_fast.stats_cases.(case) in
        let d = Design.analyze (Transform.by_names stmt names ~matrix:m) in
        match Layout.build d ~rows:24 ~cols:24 with
        | exception Layout.Unsupported _ -> true
        | l ->
          let by_pe = Schedule.by_pe l.Layout.l_sched in
          let image cycles =
            let a = Array.make l.Layout.l_total 0 in
            List.iter (fun c -> a.(c) <- 1) cycles;
            a
          in
          let cycles ?(shift = 0) evs =
            List.map (fun ev -> ev.Schedule.cycle + shift) evs
          in
          let pe_events (r, c) = by_pe.(r).(c) in
          List.iter2
            (fun (ti : Design.tensor_info) (_, wiring) ->
              match wiring with
              | Layout.Feeds _ -> ()
              | Layout.Chains { dp; dt; links; line_feeds } ->
                reach
                  (if line_feeds <> [] then "systolic-multicast input"
                   else if dt >= 2 then "systolic input dt>=2"
                   else "systolic input");
                let unpaired = reference_unpaired by_pe ti.Design.access in
                List.iter
                  (fun (link : Layout.link) ->
                    match
                      (unpaired link.Layout.pe ~dp ~dt (-1), link.Layout.inject)
                    with
                    | [], None -> ()
                    | entries, Some (bitmap, _) ->
                      check "injection bitmap"
                        (entries <> []
                        && bitmap.Layout.m_image = image (cycles entries))
                    | _ :: _, None -> Alcotest.fail "missing injection")
                  links)
            (Design.input_infos d) l.Layout.l_feeds;
          (match l.Layout.l_collect with
           | Layout.Sys_out { dp; dt; psums; exits } ->
             reach "systolic output";
             let unpaired =
               reference_unpaired by_pe (Design.output_info d).Design.access
             in
             List.iter
               (fun (p, psum) ->
                 let entries = unpaired p ~dp ~dt (-1) in
                 check "psum kind"
                   (match psum with
                    | Layout.Fresh ->
                      List.length entries = List.length (pe_events p)
                    | Layout.Chain -> entries = []
                    | Layout.Mux bitmap ->
                      entries <> []
                      && List.length entries < List.length (pe_events p)
                      && bitmap.Layout.m_image = image (cycles entries)))
               psums;
             let expected =
               List.filter_map
                 (fun (p, _) ->
                   match unpaired p ~dp ~dt 1 with
                   | [] -> None
                   | evs -> Some (p, image (cycles ~shift:dt evs)))
                 psums
             in
             check "exit PEs and cycles"
               (expected
               = List.map
                   (fun (p, (b : Layout.bank)) ->
                     (p, b.Layout.b_we.Layout.m_image))
                   exits)
           | _ -> ());
          let _, det = Transform.adjugate d.Design.transform in
          if abs det = 2 then reach "|det T|=2";
          true)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 17 |]) prop;
  List.iter
    (fun f -> Alcotest.(check bool) ("reached " ^ f) true (Hashtbl.mem seen f))
    [ "systolic input dt>=2"; "systolic-multicast input"; "systolic output";
      "|det T|=2" ]

let suite =
  [ Alcotest.test_case "gemm output-stationary" `Quick
      test_gemm_output_stationary;
    Alcotest.test_case "gemm weight-stationary" `Quick
      test_gemm_weight_stationary;
    Alcotest.test_case "gemm multicast" `Quick test_gemm_multicast;
    Alcotest.test_case "gemm multicast+stationary" `Quick
      test_gemm_multicast_stationary_out;
    Alcotest.test_case "gemm all-systolic" `Quick test_gemm_all_systolic;
    Alcotest.test_case "gemm input-stationary" `Quick
      test_gemm_input_stationary;
    Alcotest.test_case "gemm mixed" `Quick test_gemm_mixed;
    Alcotest.test_case "gemm diagonal interconnect" `Quick
      test_gemm_diagonal_interconnect;
    Alcotest.test_case "gemm skewed systolic" `Quick test_gemm_skewed_systolic;
    Alcotest.test_case "gemm rectangular array" `Quick
      test_gemm_rectangular_array;
    Alcotest.test_case "sequential outer loops" `Quick test_gemm_outer_loops;
    Alcotest.test_case "conv output-stationary" `Quick
      test_conv_output_stationary;
    Alcotest.test_case "conv weight-stationary" `Quick
      test_conv_weight_stationary;
    Alcotest.test_case "conv shidiannao-style" `Quick
      test_conv_shidiannao_style;
    Alcotest.test_case "conv multicast" `Quick test_conv_multicast;
    Alcotest.test_case "conv input-stationary" `Quick
      test_conv_input_stationary;
    Alcotest.test_case "depthwise conv" `Quick test_depthwise;
    Alcotest.test_case "mttkrp unicast (3 operands)" `Quick
      test_mttkrp_unicast;
    Alcotest.test_case "mttkrp systolic" `Quick test_mttkrp_systolic;
    Alcotest.test_case "ttmc unicast output" `Quick test_ttmc_unicast_output;
    Alcotest.test_case "batched gemv" `Quick test_batched_gemv;
    Alcotest.test_case "footprint rejection" `Quick test_footprint_too_big;
    Alcotest.test_case "generate checks its env" `Quick
      test_generate_checks_env;
    Alcotest.test_case "verilog generation" `Quick test_verilog_generates;
    Alcotest.test_case "circuit structure" `Quick test_circuit_structure;
    Alcotest.test_case "schedule invariants" `Quick test_schedule_properties;
    Alcotest.test_case "geometry lines" `Quick test_geometry_lines;
    Alcotest.test_case "reduction tree" `Quick test_reduce_tree;
    Alcotest.test_case "pe module: systolic" `Quick test_pe_modules_systolic;
    Alcotest.test_case "chain pairing = reference (random STT)" `Quick
      test_chain_pairing_random ]
  @ [ QCheck_alcotest.to_alcotest prop_random_designs_correct ]
