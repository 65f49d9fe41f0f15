(* Breadth coverage of the remaining public API surface: printers, small
   predicates, comparison helpers, and the baseline models. *)

open Tensorlib

let renders pp v = String.length (Format.asprintf "%a" pp v) > 0

let test_printers_render () =
  let gemm = Workloads.gemm ~m:8 ~n:8 ~k:8 in
  let d = Search.find_design_exn gemm "MNK-SST" in
  Alcotest.(check bool) "Iter.pp" true (renders Iter.pp (Iter.v "m" 8));
  Alcotest.(check bool) "Access.pp" true (renders Access.pp d.Design.transform.Transform.stmt.Stmt.output);
  Alcotest.(check bool) "Design.pp" true (renders Design.pp d);
  Alcotest.(check bool) "Design.pp_report" true (renders Design.pp_report d);
  Alcotest.(check bool) "Transform.pp" true
    (renders Transform.pp d.Design.transform);
  Alcotest.(check bool) "Dataflow.pp_vector" true
    (renders Dataflow.pp_vector { Dataflow.dp = [| 1; 0 |]; dt = 1 });
  Alcotest.(check bool) "Inventory.pp" true
    (renders Inventory.pp (Inventory.of_design d));
  Alcotest.(check bool) "Perf.pp_result" true
    (renders Perf.pp_result (Perf.evaluate (Search.find_design_exn gemm "MNK-MTM")));
  Alcotest.(check bool) "Asic.pp_report" true
    (renders Asic.pp_report (Asic.evaluate d));
  Alcotest.(check bool) "Vec.pp" true (renders Vec.pp (Vec.of_ints [ 1; 2 ]));
  Alcotest.(check bool) "Mat.pp" true
    (renders Mat.pp (Mat.identity 3))

let test_signal_comparison_helpers () =
  let open Signal in
  let a = input "ca" 8 and b = input "cb" 8 in
  let c =
    Circuit.create ~name:"cmp"
      ~outputs:
        [ ("ne", ne a b); ("ule", ule a b); ("sle", sle a b);
          ("vdd", vdd); ("gnd", gnd) ]
  in
  let s = Sim.create c in
  Sim.set_input s "ca" 200;
  Sim.set_input s "cb" 200;
  Sim.settle s;
  Alcotest.(check int) "ne equal" 0 (Sim.output s "ne");
  Alcotest.(check int) "ule equal" 1 (Sim.output s "ule");
  Alcotest.(check int) "sle equal" 1 (Sim.output s "sle");
  Alcotest.(check int) "vdd" 1 (Sim.output s "vdd");
  Alcotest.(check int) "gnd" 0 (Sim.output s "gnd");
  Sim.set_input s "cb" 100;
  Sim.settle s;
  Alcotest.(check int) "ne diff" 1 (Sim.output s "ne");
  Alcotest.(check int) "ule 200<=100 unsigned" 0 (Sim.output s "ule");
  (* signed: -56 <= 100 *)
  Alcotest.(check int) "sle signed" 1 (Sim.output s "sle")

let test_signal_misc () =
  let open Signal in
  Alcotest.(check bool) "is_wire" true (is_wire (wire 4));
  Alcotest.(check bool) "not wire" false (is_wire (const ~width:4 0));
  let w = wire 4 in
  assign w (const ~width:4 9);
  Alcotest.(check int) "resolve" 9
    (match (resolve w).Signal.node with
     | Const c -> c
     | _ -> -1);
  Alcotest.(check int) "repl width" 12 (width (repl (const ~width:4 5) 3));
  Alcotest.check_raises "repl 0"
    (Invalid_argument "Signal.repl: non-positive count") (fun () ->
      ignore (repl gnd 0))

let test_vec_neg_sub () =
  let v = Vec.of_ints [ 3; -1 ] in
  Alcotest.(check bool) "neg" true
    (Vec.equal (Vec.neg v) (Vec.of_ints [ -3; 1 ]));
  Alcotest.(check bool) "sub" true
    (Vec.equal (Vec.sub v v) (Vec.make 2 Rat.zero));
  Alcotest.(check int) "dim" 2 (Vec.dim v);
  Alcotest.check Alcotest.bool "get" true
    (Rat.equal (Vec.get v 0) (Rat.of_int 3))

let test_mat_accessors () =
  let a = Mat.of_int_rows [ [ 1; 2 ]; [ 3; 4 ] ] in
  Alcotest.(check bool) "row" true
    (Vec.equal (Mat.row a 1) (Vec.of_ints [ 3; 4 ]));
  Alcotest.(check bool) "col" true
    (Vec.equal (Mat.col a 0) (Vec.of_ints [ 1; 3 ]));
  Alcotest.(check (list (list int))) "to_int_rows" [ [ 1; 2 ]; [ 3; 4 ] ]
    (Mat.to_int_rows a);
  let doubled = Mat.map (fun r -> Rat.mul (Rat.of_int 2) r) a in
  Alcotest.(check bool) "map" true
    (Rat.equal (Mat.get doubled 1 1) (Rat.of_int 8));
  let s = Mat.add a (Mat.sub a a) in
  Alcotest.(check bool) "add/sub" true (Mat.equal s a);
  let sc = Mat.scale (Rat.of_int 3) a in
  Alcotest.(check bool) "scale" true
    (Rat.equal (Mat.get sc 0 1) (Rat.of_int 6))

let test_schedule_pe_active () =
  let stmt = Workloads.gemm ~m:2 ~n:2 ~k:2 in
  let d = Search.find_design_exn stmt "MNK-SST" in
  let sched = Schedule.v d ~rows:4 ~cols:4 in
  Alcotest.(check bool) "corner active" true (Oracle.pe_active sched (0, 0));
  Alcotest.(check bool) "outside footprint idle" false
    (Oracle.pe_active sched (3, 3))

let test_baseline_supports () =
  let gemm = Workloads.gemm ~m:8 ~n:8 ~k:8 in
  let sst = Search.find_design_exn gemm "MNK-SST" in
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (b.Baselines.name ^ " supports systolic")
        true
        (b.Baselines.supports sst))
    Baselines.all

let test_fpga_int16 () =
  (* INT16 datapath: 1 DSP per MAC on VU9P *)
  let gemm = Workloads.gemm ~m:8 ~n:8 ~k:8 in
  let d = Search.find_design_exn gemm "MNK-SST" in
  let r =
    Fpga.evaluate ~device:Fpga.vu9p ~rows:16 ~cols:16 ~vec:4
      ~datatype:Fpga.Int16 ~efficiency:1.0 ~workload:"MM" d
  in
  Alcotest.(check int) "macs" 1024 r.Fpga.macs;
  Alcotest.(check bool) "dsp = macs/6840" true
    (abs_float (r.Fpga.dsp_pct -. (100. *. 1024. /. 6840.)) < 0.1)

let test_workloads_catalog () =
  let named = Workloads.all_named () in
  Alcotest.(check int) "seven evaluation workloads" 7 (List.length named);
  List.iter
    (fun (name, stmt) ->
      Alcotest.(check bool) (name ^ " nonempty") true
        (Stmt.domain_size stmt > 0))
    named

let suite =
  [ Alcotest.test_case "printers render" `Quick test_printers_render;
    Alcotest.test_case "signal comparisons" `Quick
      test_signal_comparison_helpers;
    Alcotest.test_case "signal misc" `Quick test_signal_misc;
    Alcotest.test_case "vec neg/sub" `Quick test_vec_neg_sub;
    Alcotest.test_case "mat accessors" `Quick test_mat_accessors;
    Alcotest.test_case "schedule pe_active" `Quick test_schedule_pe_active;
    Alcotest.test_case "baseline supports" `Quick test_baseline_supports;
    Alcotest.test_case "fpga int16" `Quick test_fpga_int16;
    Alcotest.test_case "workload catalog" `Quick test_workloads_catalog ]
