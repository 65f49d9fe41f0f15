(* Reproduction harness: regenerates every table and figure of the paper's
   evaluation (§VI) plus the ablations called out in DESIGN.md, and hosts
   the pass/fail gates the Makefile runs.  Timing of the product paths
   (sweep, generate, fault campaign, serve) lives in perfbench/.

   Run every paper section:  dune exec bench/main.exe
   One section or gate:      dune exec bench/main.exe -- fig5
   Sections: table1 table2 verify fig3 fig4 fig5 fig6 table3 metrics
             tradeoffs ablation-float ablation-span ablation-rewrite
   Gates:    bench-fault bench-obs bench-absint batch-smoke store-smoke
             chaos-smoke bench-resil prog-smoke bench-prog

   The heavy sweeps (fig5, fig6, verify) fan out over a Tl_par domain
   pool (override the width with TL_DOMAINS=n). *)

open Tensorlib

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Table I: reuse-subspace taxonomy.                                   *)

let table1 () =
  section "Table I: dataflow analysis with STT (reuse-subspace taxonomy)";
  let gemm = Workloads.gemm ~m:8 ~n:8 ~k:8 in
  let bg = Workloads.batched_gemv ~m:8 ~n:8 ~k:8 in
  let dw = Workloads.depthwise_conv ~k:8 ~y:8 ~x:8 ~p:3 ~q:3 in
  let conv = Workloads.conv2d ~k:8 ~c:8 ~y:8 ~x:8 ~p:3 ~q:3 in
  let show stmt sel matrix tensor =
    let t = Transform.by_names stmt sel ~matrix in
    let d = Design.analyze t in
    let ti = Design.find_tensor d tensor in
    Printf.printf "  dim %d  %-38s <- %s of %s under %s\n"
      (Dataflow.subspace_dim ti.Design.dataflow)
      (Dataflow.to_string ti.Design.dataflow)
      tensor stmt.Stmt.name
      (Transform.selection_label t)
  in
  print_endline "  rank 0: single point -> unicast";
  show bg [ "m"; "n"; "k" ] [ [ 1; 0; 0 ]; [ 0; 1; 0 ]; [ 0; 0; 1 ] ] "A";
  print_endline "  rank 1: line; classified by its direction (dp, dt)";
  show gemm [ "m"; "n"; "k" ] [ [ 1; 0; 0 ]; [ 0; 1; 0 ]; [ 1; 1; 1 ] ] "C";
  show gemm [ "m"; "n"; "k" ] [ [ 1; 0; 0 ]; [ 0; 1; 0 ]; [ 1; 1; 1 ] ] "A";
  show gemm [ "m"; "n"; "k" ] [ [ 0; 1; 0 ]; [ 0; 0; 1 ]; [ 1; 0; 0 ] ] "A";
  print_endline "  rank 2: plane; classified by its position vs the t axis";
  show dw [ "x"; "y"; "p" ] [ [ 0; 1; 0 ]; [ 1; 0; 0 ]; [ 0; 0; 1 ] ] "B";
  show dw [ "x"; "y"; "p" ] [ [ 0; 1; 1 ]; [ 0; 0; 1 ]; [ 1; 0; 0 ] ] "B";
  show conv [ "x"; "y"; "p" ] [ [ 1; 0; 0 ]; [ 0; 1; 0 ]; [ 0; 1; 1 ] ] "B"

(* ------------------------------------------------------------------ *)
(* Table II: evaluated tensor algebras.                                *)

let table2 () =
  section "Table II: evaluated tensor algebras";
  List.iter
    (fun (name, stmt) -> Format.printf "  %-14s %a@." name Stmt.pp stmt)
    [ ("GEMM", Workloads.gemm ~m:2 ~n:2 ~k:2);
      ("Batched-GEMV", Workloads.batched_gemv ~m:2 ~n:2 ~k:2);
      ("Conv2D", Workloads.conv2d ~k:2 ~c:2 ~y:2 ~x:2 ~p:2 ~q:2);
      ("Depthwise-Conv", Workloads.depthwise_conv ~k:2 ~y:2 ~x:2 ~p:2 ~q:2);
      ("MTTKRP", Workloads.mttkrp ~i:2 ~j:2 ~k:2 ~l:2);
      ("TTMc", Workloads.ttmc ~i:2 ~j:2 ~k:2 ~l:2 ~m:2) ]

(* ------------------------------------------------------------------ *)
(* Figure 3: the PE-internal module templates, as elaborated netlists.  *)

let fig3 () =
  section "Figure 3: PE-internal module templates (elaborated structure)";
  let open Signal in
  let stats name outputs =
    let c = Circuit.create ~name ~outputs in
    let st = Circuit.stats c in
    Printf.printf "  %-28s regs=%2d (%3d bits) adders=%d muxes=%d\n" name
      st.Circuit.regs st.Circuit.reg_bits st.Circuit.adders st.Circuit.muxes
  in
  let din = input "din" 16 in
  let use, dout = Pe_modules.systolic_input ~dt:1 ~din in
  stats "(a) systolic input" [ ("use", use); ("dout", dout) ];
  let psum = input "psum" 32 and contrib = input "contrib" 32 in
  stats "(b) systolic output"
    [ ("out", Pe_modules.systolic_output ~dt:1 ~psum_in:psum ~contribution:contrib) ];
  let load = input "load" 1 and next = input "next" 16 in
  stats "(c) stationary input (2x buf)"
    [ ("held", Pe_modules.stationary_input ~load ~next) ];
  let valid = input "valid" 1 and shadow_in = input "shadow_in" 32 in
  let stage = input "stage" 1 and capture = input "capture" 1 in
  let shift = input "shift" 1 in
  let m =
    Pe_modules.stationary_output ~valid ~stage_start:stage ~capture
      ~drain_shift:shift ~contribution:contrib ~shadow_in
  in
  stats "(d) stationary output (2x buf)"
    [ ("acc", m.Pe_modules.acc); ("shadow", m.Pe_modules.shadow) ];
  let bus = input "bus" 16 in
  stats "(e) multicast/unicast input"
    [ ("use", Pe_modules.direct_input ~bus) ];
  stats "(f) tree contribution"
    [ ("leaf", Pe_modules.tree_contribution ~valid ~contribution:contrib) ];
  print_endline
    "  a complete PE = one module per tensor around the computation cell."

(* ------------------------------------------------------------------ *)
(* Figure 4: interconnection patterns for the GEMM dataflow examples.   *)

let fig4 () =
  section "Figure 4: PE interconnection patterns (4x4 diagrams)";
  let gemm = Workloads.gemm ~m:4 ~n:4 ~k:4 in
  let show title d =
    Format.printf "@.  (%s)@.%a@." title (Topology.pp_diagram ?rows:None ?cols:None) d
  in
  show "a: systolic" (Search.find_design_exn gemm "MNK-SST");
  show "b: multicast input + stationary"
    (Search.find_design_exn gemm "MNK-MMT");
  (* c: Eyeriss-style diagonal multicast: A's reuse direction maps to the
     (1,1) array diagonal *)
  let diag =
    Design.analyze
      (Transform.by_names gemm [ "m"; "n"; "k" ]
         ~matrix:[ [ 0; 1; 1 ]; [ 1; 1; 0 ]; [ 1; 0; 0 ] ])
  in
  show "c: diagonal multicast (Eyeriss-style)" diag;
  show "d: reduction-tree output" (Search.find_design_exn gemm "MNK-MTM")

(* ------------------------------------------------------------------ *)
(* Figure 5: normalized performance of representative dataflows.       *)

let fig5_workloads () =
  [ ("GEMM", Workloads.gemm ~m:256 ~n:256 ~k:256,
     [ "MNK-SST"; "MNK-STS"; "MNK-MTM"; "MNK-MMT"; "MNK-TSM"; "MNK-SSM" ]);
    ("Batched-GEMV", Workloads.batched_gemv ~m:64 ~n:256 ~k:256,
     [ "MNK-UTS"; "MNK-UTM"; "MNK-UST" ]);
    ("Conv2D-ResNet-L2", Workloads.resnet_layer2,
     [ "KCX-SST"; "KCX-STS"; "KCX-MTM"; "XYP-MMT"; "XYP-MST"; "KPX-TMM" ]);
    ("Conv2D-ResNet-L5", Workloads.resnet_layer5,
     [ "KCX-SST"; "KCX-STS"; "KCX-MTM"; "XYP-MMT"; "XYP-MST"; "KPX-TMM" ]);
    ("Depthwise-Conv", Workloads.depthwise_conv ~k:256 ~y:28 ~x:28 ~p:3 ~q:3,
     [ "XYP-MMM"; "KPX-UMM"; "KYP-SMT"; "KXQ-TMS"; "YXP-SBT" ]);
    ("MTTKRP", Workloads.mttkrp ~i:128 ~j:64 ~k:64 ~l:64,
     [ "IKL-UBBB"; "IJK-SSMT"; "IJK-MMBT"; "IJK-SSBT" ]);
    ("TTMc", Workloads.ttmc ~i:64 ~j:32 ~k:32 ~l:64 ~m:64,
     [ "IJK-BBBU"; "IJL-MMBT"; "IJL-SSBT"; "IJM-MBBT" ]) ]

let bar width v =
  let n = int_of_float (v *. float_of_int width) in
  String.make (max 0 (min width n)) '#'

let fig5 () =
  section
    "Figure 5: normalized performance of dataflows (16x16 PEs, 320 MHz, \
     32 GB/s)";
  let csv = Buffer.create 1024 in
  Buffer.add_string csv "workload,dataflow,normalized,cycles,utilization,bw_stall\n";
  let workloads = fig5_workloads () in
  (* evaluate every (workload, dataflow) point on the domain pool, then
     print sequentially in the figure's order *)
  let jobs =
    List.concat_map
      (fun (wname, stmt, dataflows) ->
        List.map (fun df -> (wname, stmt, df)) dataflows)
      workloads
  in
  let evaluated = Hashtbl.create 64 in
  List.iter2
    (fun (wname, _, df) r -> Hashtbl.replace evaluated (wname, df) r)
    jobs
    (Par.map (fun (_, stmt, df) -> Perf.evaluate_name stmt df) jobs);
  List.iter
    (fun (wname, _, dataflows) ->
      Printf.printf "\n  %s\n" wname;
      List.iter
        (fun df ->
          match Hashtbl.find evaluated (wname, df) with
          | Some r ->
            Printf.printf
              "    %-10s %5.3f |%-30s| cycles=%-9.0f util=%4.2f bw=%4.2fx\n"
              df r.Perf.normalized_perf
              (bar 30 r.Perf.normalized_perf)
              r.Perf.cycles r.Perf.utilization r.Perf.bw_stall_factor;
            Buffer.add_string csv
              (Printf.sprintf "%s,%s,%.4f,%.0f,%.4f,%.3f\n" wname df
                 r.Perf.normalized_perf r.Perf.cycles r.Perf.utilization
                 r.Perf.bw_stall_factor)
          | None -> Printf.printf "    %-10s (not realisable)\n" df)
        dataflows)
    workloads;
  let oc = open_out "fig5.csv" in
  Buffer.output_buffer oc csv;
  close_out oc;
  print_endline "\n  (series written to fig5.csv)";
  print_endline "\n  Shape checks vs the paper (section VI-A):";
  let gemm = Workloads.gemm ~m:256 ~n:256 ~k:256 in
  let get stmt n = Option.get (Perf.evaluate_name stmt n) in
  let mtm = get gemm "MNK-MTM" and sts = get gemm "MNK-STS" in
  Printf.printf
    "    multicast beats systolic on GEMM cycles: %s (%.3f vs %.3f)\n"
    (if mtm.Perf.normalized_perf > sts.Perf.normalized_perf then "YES"
     else "NO")
    mtm.Perf.normalized_perf sts.Perf.normalized_perf;
  let mt = Workloads.mttkrp ~i:128 ~j:64 ~k:64 ~l:64 in
  let uni = get mt "IKL-UBBB" and reuse = get mt "IJK-MMBT" in
  Printf.printf
    "    MTTKRP unicast bandwidth-bound (stall %.1fx), reuse %.1fx faster: %s\n"
    uni.Perf.bw_stall_factor
    (uni.Perf.cycles /. reuse.Perf.cycles)
    (if uni.Perf.bw_stall_factor > 2. then "YES" else "NO");
  let l2 = get Workloads.resnet_layer2 "XYP-MMT" in
  let l5 = get Workloads.resnet_layer5 "XYP-MMT" in
  Printf.printf
    "    ResNet-L5 XY dataflows worse than L2 (x=y=7): %s (%.3f vs %.3f)\n"
    (if l5.Perf.normalized_perf < l2.Perf.normalized_perf then "YES" else "NO")
    l5.Perf.normalized_perf l2.Perf.normalized_perf;
  let kcx = get Workloads.resnet_layer2 "KCX-SST" in
  Printf.printf
    "    KCX (GEMM-like) beats XY dataflows on Conv2D: %s (%.3f vs %.3f)\n"
    (if kcx.Perf.normalized_perf > l2.Perf.normalized_perf then "YES"
     else "NO")
    kcx.Perf.normalized_perf l2.Perf.normalized_perf

(* ------------------------------------------------------------------ *)
(* Figure 6: power/area scatter over the design space.                 *)

let scatter points =
  let w = 56 and h = 14 in
  let xs = List.map fst points and ys = List.map snd points in
  let mn l = List.fold_left min (List.hd l) l in
  let mx l = List.fold_left max (List.hd l) l in
  let x0 = mn xs and x1 = mx xs and y0 = mn ys and y1 = mx ys in
  let grid = Array.make_matrix h w ' ' in
  List.iter
    (fun (x, y) ->
      let xi =
        int_of_float ((x -. x0) /. (x1 -. x0 +. 1e-9) *. float_of_int (w - 1))
      in
      let yi =
        int_of_float ((y -. y0) /. (y1 -. y0 +. 1e-9) *. float_of_int (h - 1))
      in
      let row = h - 1 - yi in
      grid.(row).(xi) <-
        (match grid.(row).(xi) with ' ' -> '.' | '.' -> 'o' | _ -> '@'))
    points;
  Printf.printf "    %.1f mW\n" y1;
  Array.iter
    (fun row -> Printf.printf "    |%s|\n" (String.init w (Array.get row)))
    grid;
  Printf.printf "    %.1f mW  area %.0f .. %.0f\n" y0 x0 x1

let fig6_one name points =
  let costed =
    Par.map (fun p -> (p, Asic.evaluate p.Enumerate.design)) points
  in
  let csv = Buffer.create 1024 in
  Buffer.add_string csv "design,area,power_mw\n";
  List.iter
    (fun ((p : Enumerate.point), (r : Asic.report)) ->
      Buffer.add_string csv
        (Printf.sprintf "%s,%.2f,%.2f\n" p.Enumerate.design.Design.name
           r.Asic.area r.Asic.power_mw))
    costed;
  let path = Printf.sprintf "fig6_%s.csv" (String.lowercase_ascii name) in
  let oc = open_out path in
  Buffer.output_buffer oc csv;
  close_out oc;
  let powers = List.map (fun (_, r) -> r.Asic.power_mw) costed in
  let areas = List.map (fun (_, r) -> r.Asic.area) costed in
  let mn l = List.fold_left min (List.hd l) l in
  let mx l = List.fold_left max (List.hd l) l in
  Printf.printf "\n  %s: %d design points\n" name (List.length points);
  Printf.printf
    "    energy spread: %.1f .. %.1f mW  (%.2fx; paper: ~1.8x, 35..63 mW)\n"
    (mn powers) (mx powers)
    (mx powers /. mn powers);
  Printf.printf "    area   spread: %.0f .. %.0f     (%.2fx; paper: ~1.16x)\n"
    (mn areas) (mx areas)
    (mx areas /. mn areas);
  scatter (List.map (fun (_, r) -> (r.Asic.area, r.Asic.power_mw)) costed);
  let by_power =
    List.sort
      (fun (_, (a : Asic.report)) (_, b) -> compare b.Asic.power_mw a.Asic.power_mw)
      costed
  in
  let seen = Hashtbl.create 8 in
  let distinct_hot =
    List.filter
      (fun ((p : Enumerate.point), _) ->
        let n = p.Enumerate.design.Design.name in
        if Hashtbl.mem seen n then false
        else begin
          Hashtbl.add seen n ();
          true
        end)
      by_power
  in
  Printf.printf "    energy-hungriest designs:";
  List.iteri
    (fun i ((p : Enumerate.point), (r : Asic.report)) ->
      if i < 3 then
        Printf.printf " %s (%.1f mW)" p.Enumerate.design.Design.name
          r.Asic.power_mw)
    distinct_hot;
  print_newline ()

let fig6 () =
  section
    "Figure 6: power and area of the dataflow design space (INT16, 16x16, \
     320 MHz)";
  print_endline
    "  note: our enumeration counts distinct architectures up to array\n\
    \  symmetry; the paper reports 148 GEMM / 33 Depthwise points with an\n\
    \  unspecified dedup criterion -- spreads and ordering are the claims.";
  let gemm = Workloads.gemm ~m:256 ~n:256 ~k:256 in
  fig6_one "GEMM" (Enumerate.design_space gemm);
  let dw = Workloads.depthwise_conv ~k:256 ~y:28 ~x:28 ~p:3 ~q:3 in
  fig6_one "Depthwise-Conv2D" (Enumerate.design_space ~exclude_unicast:true dw)

(* ------------------------------------------------------------------ *)
(* Table III: FPGA comparison.                                         *)

let table3 () =
  section "Table III: FPGA comparison on MM / Conv workloads (FP32)";
  let mm = Workloads.gemm ~m:1024 ~n:1024 ~k:1024 in
  let conv = Workloads.conv2d ~k:512 ~c:512 ~y:28 ~x:28 ~p:3 ~q:3 in
  let fpga_cfg =
    { Perf.default_config with rows = 10; cols = 16; bandwidth_gbps = 64.;
      elem_bytes = 4 }
  in
  let tensorlib_row ?(style = Fpga.rtl_style) workload stmt buffer_scale =
    let name = if workload = "Conv" then "KCX-STS" else "MNK-STS" in
    let d = Search.find_design_exn stmt name in
    let perf = Perf.evaluate ~config:fpga_cfg d in
    Fpga.evaluate ~style ~buffer_scale ~device:Fpga.vu9p ~rows:10 ~cols:16
      ~vec:8 ~datatype:Fpga.Fp32 ~efficiency:perf.Perf.pipelined_perf
      ~workload d
  in
  let rows =
    List.concat_map
      (fun b ->
        List.filter_map
          (fun w -> b.Baselines.published ~workload:w)
          [ "MM"; "Conv" ])
      Baselines.all
    @ [ tensorlib_row "MM" mm 1.0; tensorlib_row "Conv" conv 1.45 ]
  in
  Printf.printf "  %-24s %-9s %-5s %6s %6s %6s %7s %9s\n" "generator"
    "device" "wl" "LUT%" "DSP%" "BRAM%" "MHz" "Gop/s";
  List.iter
    (fun (r : Fpga.report) ->
      Printf.printf "  %-24s %-9s %-5s %6.0f %6.0f %6.0f %7.0f %9.0f\n"
        r.Fpga.generator r.Fpga.device r.Fpga.workload r.Fpga.lut_pct
        r.Fpga.dsp_pct r.Fpga.bram_pct r.Fpga.mhz r.Fpga.gops)
    rows;
  let tl = tensorlib_row "MM" mm 1.0 in
  let best_baseline =
    List.fold_left
      (fun acc b ->
        match b.Baselines.published ~workload:"MM" with
        | Some r -> max acc r.Fpga.gops
        | None -> acc)
      0. Baselines.all
  in
  Printf.printf
    "\n  headline: TensorLib MM throughput = %.0f Gop/s, best baseline = %.0f\n"
    tl.Fpga.gops best_baseline;
  Printf.printf "  improvement: %+.0f%%  (paper: +21%%)\n"
    (100. *. ((tl.Fpga.gops /. best_baseline) -. 1.));
  let fp = tensorlib_row ~style:Fpga.rtl_floorplanned "MM" mm 1.0 in
  Printf.printf
    "  with AutoBridge-style floorplanning (sec VI-C): %.0f MHz (paper: 328)\n"
    fp.Fpga.mhz;
  let dw = Workloads.depthwise_conv ~k:64 ~y:14 ~x:14 ~p:3 ~q:3 in
  match Baselines.best_supported_design dw Baselines.polysa with
  | None ->
    print_endline
      "  Depthwise-Conv: baselines have NO design (systolic-only space)"
  | Some (d, r) ->
    let tl_best =
      List.fold_left
        (fun acc name ->
          match Perf.evaluate_name dw name with
          | Some r -> max acc r.Perf.normalized_perf
          | None -> acc)
        0.
        [ "XYP-MMM"; "KPX-UMM"; "KYP-SMT"; "KXQ-TMS" ]
    in
    Printf.printf
      "  Depthwise-Conv generality: best systolic-only design (%s) reaches\n\
      \  %.3f of peak vs TensorLib's %.3f -- multicast/2-D dataflows needed\n"
      d.Design.name r.Perf.normalized_perf tl_best

(* ------------------------------------------------------------------ *)
(* Ablation 1: exact rational analysis vs floating point.              *)

let float_rank_f a eps =
  let rows = Array.length a and cols = Array.length a.(0) in
  let a = Array.map Array.copy a in
  let rank = ref 0 in
  let r = ref 0 in
  for c = 0 to cols - 1 do
    if !r < rows then begin
      let piv = ref (-1) in
      for i = !r to rows - 1 do
        if !piv < 0 && abs_float a.(i).(c) > eps then piv := i
      done;
      if !piv >= 0 then begin
        let tmp = a.(!r) in
        a.(!r) <- a.(!piv);
        a.(!piv) <- tmp;
        for i = 0 to rows - 1 do
          if i <> !r then begin
            let f = a.(i).(c) /. a.(!r).(c) in
            for j = 0 to cols - 1 do
              a.(i).(j) <- a.(i).(j) -. (f *. a.(!r).(j))
            done
          end
        done;
        incr rank;
        incr r
      end
    end
  done;
  !rank

let ablation_float () =
  section "Ablation: exact rational vs floating-point reuse analysis";
  print_endline
    "  A floating-point analysis needs a rank threshold (epsilon).  On the\n\
    \  {-1,0,1} matrix space any sane epsilon works, but large-coefficient\n\
    \  transformations produce T^-1 entries of magnitude ~1/det that fall\n\
    \  below the threshold, collapsing the rank and misclassifying the\n\
    \  dataflow.  Exact rationals need no threshold at all.";
  let gemm = Workloads.gemm ~m:16 ~n:16 ~k:16 in
  Random.init 42;
  let sample () =
    let rec go () =
      let m =
        List.init 3 (fun _ -> List.init 3 (fun _ -> Random.int 399 - 199))
      in
      if Rat.is_zero (Mat.det (Mat.of_int_rows m)) then go () else m
    in
    go ()
  in
  List.iter
    (fun eps ->
      let mismatches = ref 0 and total = ref 0 in
      for _ = 1 to 1500 do
        let m = sample () in
        let t = Transform.by_names gemm [ "m"; "n"; "k" ] ~matrix:m in
        let d = Design.analyze t in
        List.iter
          (fun (ti : Design.tensor_info) ->
            incr total;
            let a_sel = Oracle.restricted_access t ti.Design.access in
            let at = Mat.mul a_sel (Oracle.inverse t) in
            let fm =
              Array.init (Mat.rows at) (fun i ->
                  Array.init (Mat.cols at) (fun j ->
                      Rat.to_float (Mat.get at i j)))
            in
            let fdim = Mat.cols at - float_rank_f fm eps in
            if fdim <> Dataflow.subspace_dim ti.Design.dataflow then
              incr mismatches)
          d.Design.tensors
      done;
      Printf.printf
        "  entries in [-199,199], epsilon = %-8g -> %4d / %4d misclassified\n"
        eps !mismatches !total)
    [ 1e-2; 1e-3; 1e-6; 1e-14; 1e-16 ]

(* ------------------------------------------------------------------ *)
(* Ablation 2: exact time-span model vs naive busy-only model.         *)

let ablation_span () =
  section "Ablation: exact time-span cycle model vs naive (skew-free) model";
  let gemm = Workloads.gemm ~m:256 ~n:256 ~k:256 in
  Printf.printf "  %-10s %14s %14s\n" "dataflow" "exact model" "naive model";
  List.iter
    (fun name ->
      match Perf.evaluate_name gemm name with
      | Some r ->
        let tile_macs = Array.fold_left ( * ) 1 r.Perf.tile in
        let naive =
          float_of_int r.Perf.total_passes
          *. (float_of_int tile_macs /. 256.)
        in
        Printf.printf "  %-10s %10.0f cyc %10.0f cyc\n" name r.Perf.cycles
          naive
      | None -> ())
    [ "MNK-SST"; "MNK-STS"; "MNK-MTM"; "MNK-MMT" ];
  print_endline
    "  the naive model cannot distinguish systolic from multicast designs\n\
    \  (no fill/drain skew), losing the paper's Fig. 5 GEMM ordering."

(* ------------------------------------------------------------------ *)
(* Functional verification: generated netlists vs the golden model.    *)

let verify () =
  section
    "Functional verification: generated netlists vs the golden executor";
  (* each check elaborates and simulates a full accelerator: run them on
     the domain pool and print the reports in order *)
  let check label stmt name rows cols () =
    match Search.find_design stmt name with
    | None -> Printf.sprintf "  %-34s not realisable\n" label
    | Some d -> (
      let env = Exec.alloc_inputs stmt in
      match Accel.generate ~rows ~cols d env with
      | exception Accel.Unsupported msg ->
        Printf.sprintf "  %-34s unsupported: %s\n" label msg
      | acc ->
        let ok = Dense.equal (Exec.run stmt env) (Accel.execute acc) in
        (* batched re-simulation: several fresh input environments through
           one bit-sliced pass, each lane checked against the golden
           executor *)
        let envs = List.init 4 (fun k -> Exec.alloc_inputs ~seed:(k + 1) stmt) in
        let batch_ok =
          List.for_all2
            (fun env out -> Dense.equal (Exec.run stmt env) out)
            envs
            (Accel.execute_batch acc envs)
        in
        let st = Circuit.stats acc.Accel.circuit in
        Printf.sprintf "  %-34s %-5s %4d cycles, %4d regs, %3d rams%s\n" label
          (if ok && batch_ok then "PASS" else "FAIL")
          acc.Accel.total_cycles st.Circuit.regs st.Circuit.rams
          (if batch_ok then "" else "  [batch lanes diverged]"))
  in
  let gemm = Workloads.gemm ~m:4 ~n:4 ~k:5 in
  let conv = Workloads.conv2d ~k:4 ~c:4 ~y:4 ~x:4 ~p:3 ~q:3 in
  let strided = Workloads.conv2d_strided ~stride:2 ~k:3 ~c:3 ~y:3 ~x:3 ~p:3 ~q:3 in
  let dw = Workloads.depthwise_conv ~k:4 ~y:4 ~x:4 ~p:3 ~q:3 in
  let mt = Workloads.mttkrp ~i:4 ~j:4 ~k:4 ~l:4 in
  let tt = Workloads.ttmc ~i:4 ~j:4 ~k:3 ~l:4 ~m:4 in
  let bg = Workloads.batched_gemv ~m:4 ~n:4 ~k:4 in
  let big = Tiling.split (Workloads.gemm ~m:8 ~n:8 ~k:8) [ ("m", 4); ("n", 4) ] in
  let checks =
    [ check "GEMM output-stationary (SST)" gemm "MNK-SST" 8 8;
      check "GEMM weight-stationary (STS)" gemm "MNK-STS" 8 8;
      check "GEMM multicast+tree (MTM)" gemm "MNK-MTM" 8 8;
      check "GEMM wavefront (SSS)" gemm "MNK-SSS" 8 8;
      check "Conv2D KCX-SST" conv "KCX-SST" 8 8;
      check "Conv2D ShiDianNao-style" conv "XYP-MST" 8 8;
      check "Conv2D stride-2" strided "KCX-SST" 8 8;
      check "Depthwise XYP-MMM" dw "XYP-MMM" 8 8;
      check "MTTKRP unicast (3-operand)" mt "IKL-UBBB" 8 8;
      check "MTTKRP systolic" mt "IJK-SSMT" 8 8;
      check "TTMc unicast output" tt "IJK-BBBU" 8 8;
      check "Batched-GEMV" bg "MNK-UTM" 8 8;
      check "GEMM 8x8x8 tiled onto 4x4" big "MNK-SST" 4 4 ]
  in
  List.iter print_string (Par.map (fun f -> f ()) checks)

(* ------------------------------------------------------------------ *)
(* Reuse metrics: the analytic backbone of the Fig. 5 bandwidth story. *)

let metrics () =
  section "Reuse metrics (per-tensor traffic and arithmetic intensity)";
  let show stmt name =
    match Search.find_design stmt name with
    | None -> ()
    | Some d -> Format.printf "%a@.@." Metrics.pp (Metrics.of_design d)
  in
  let gemm = Workloads.gemm ~m:256 ~n:256 ~k:256 in
  show gemm "MNK-SST";
  show gemm "MNK-MTM";
  let bg = Workloads.batched_gemv ~m:64 ~n:256 ~k:256 in
  show bg "MNK-UTS";
  print_endline
    "  unicast tensors have reuse 1.0x: every access is a fetch, which is\n\
    \  why Batched-GEMV and unicast MTTKRP dataflows are bandwidth-bound."

(* ------------------------------------------------------------------ *)
(* Tradeoff exploration: the "rich design space" claim of the abstract. *)

let tradeoffs () =
  section "Design-space tradeoffs: performance x power x area (GEMM, 16x16)";
  let gemm = Workloads.gemm ~m:256 ~n:256 ~k:256 in
  let evaluated = Explore.explore ~limit:19 gemm in
  Printf.printf "  %d designs evaluated with both models\n\n" (List.length evaluated);
  let fastest = Explore.best_performance evaluated in
  let greenest = Explore.best_efficiency evaluated in
  Format.printf "  fastest        : %a@." Explore.pp_evaluated fastest;
  Format.printf "  most efficient : %a@." Explore.pp_evaluated greenest;
  let front = Explore.pareto_perf_power evaluated in
  Format.printf "  perf/power Pareto frontier (%d designs):@."
    (List.length front);
  List.iter
    (fun e -> Format.printf "    %a@." Explore.pp_evaluated e)
    (List.sort
       (fun a b ->
         compare a.Explore.perf.Perf.cycles b.Explore.perf.Perf.cycles)
       front)

(* ------------------------------------------------------------------ *)
(* Ablation 3: netlist optimisation pass.                              *)

let ablation_rewrite () =
  section "Ablation: netlist constant-folding / simplification pass";
  Printf.printf "  %-12s %8s %8s %8s\n" "design" "cells" "opt" "removed";
  List.iter
    (fun name ->
      let stmt = Workloads.gemm ~m:4 ~n:4 ~k:4 in
      match Search.find_design stmt name with
      | None -> ()
      | Some d -> (
        let env = Exec.alloc_inputs stmt in
        match Accel.generate ~rows:8 ~cols:8 d env with
        | exception Accel.Unsupported _ -> ()
        | acc ->
        let before = acc.Accel.circuit in
        let after = Rewrite.circuit before in
        let cells c =
          let st = Circuit.stats c in
          st.Circuit.adders + st.Circuit.multipliers + st.Circuit.muxes
          + st.Circuit.logic_ops + st.Circuit.regs
        in
        Printf.printf "  %-12s %8d %8d %8d\n" name (cells before)
          (cells after)
          (Rewrite.count_removed ~before ~after)))
    [ "MNK-SST"; "MNK-STS"; "MNK-MTM"; "MNK-SSM" ];
  print_endline
    "  the generator emits lean netlists already; the pass mostly removes\n\
    \  boundary muxes against constant-zero neighbours."

(* ------------------------------------------------------------------ *)
(* Gate plumbing shared by the pass/fail sections below.               *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A fresh, empty, uniquely named directory, removed with everything in
   it when the process ends: [exit 1] and uncaught exceptions run
   [at_exit] handlers too. *)
let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  at_exit (fun () -> rm_rf path);
  path

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Named checks: each prints PASS or FAIL; [conclude] exits 1 if any
   check of the process failed. *)
let failures = ref 0

let check name ok =
  Printf.printf "  %-52s %s\n%!" name (if ok then "PASS" else "FAIL");
  if not ok then incr failures

let conclude gate =
  if !failures > 0 then begin
    Printf.printf "%s: %d check(s) FAILED\n" gate !failures;
    exit 1
  end;
  print_endline (gate ^ ": OK")

let cli_binary gate =
  let cli =
    Filename.concat (Sys.getcwd ()) "_build/default/bin/tensorlib_cli.exe"
  in
  if not (Sys.file_exists cli) then begin
    Printf.eprintf "%s: CLI binary not built (%s)\n" gate cli;
    exit 1
  end;
  cli

let int n = Json.Num (float_of_int n)

let write_json path v =
  write_file path (Json.to_string v ^ "\n");
  Printf.printf "\n  (machine-readable results written to %s)\n" path

(* Interrupt a tiny-network sweep by killing its shape 0: the smallest
   seed whose [par:network-sweep] plan kills task 0 but not tasks 1 and 2.
   Injections key on the task index, so the choice holds at any pool
   width. *)
let arm_kill_shape0 () =
  let rate = 0.5 and site = "par:network-sweep" in
  let fires seed key = Resil.Chaos.would_fire ~seed ~rate ~site ~key in
  let rec find s =
    if s > 100_000 then failwith "no seed kills exactly shape 0"
    else if fires s 0 && not (fires s 1 || fires s 2) then s
    else find (s + 1)
  in
  Resil.Chaos.arm
    { Resil.Chaos.seed = find 0; rate;
      sites = [ (site, [ Resil.Chaos.Fail "interrupted" ]) ] }

(* The four tier-1 workloads at netlist size. *)
let tier1 =
  [ ("gemm", Workloads.gemm ~m:4 ~n:4 ~k:5, "MNK-SST");
    ("conv2d", Workloads.conv2d ~k:4 ~c:4 ~y:4 ~x:4 ~p:3 ~q:3, "KCX-SST");
    ("depthwise", Workloads.depthwise_conv ~k:4 ~y:4 ~x:4 ~p:3 ~q:3,
     "XYP-MMM");
    ("mttkrp", Workloads.mttkrp ~i:4 ~j:4 ~k:4 ~l:4, "IKL-UBBB") ]

let tier1_accel (_, stmt, dname) =
  let design = Search.find_design_exn stmt dname in
  Accel.generate ~rows:4 ~cols:4 ~counters:true design (Exec.alloc_inputs stmt)

(* ------------------------------------------------------------------ *)
(* Store gate: sweep a small network through fresh persistent stores
   using fresh CLI processes (cold), then again through the first of them
   (warm); the warm runs must be served entirely from disk, at least 5x
   faster and bit-identical.  Each side is timed as the fastest of three
   runs, since one sub-second run against another varies past 5x on
   timing noise alone.  Then deliberately truncate one entry: the next
   run must still succeed (corruption degrades to a miss) with an
   unchanged digest.  Exit 1 on any violated property — small enough for
   a pre-commit hook.                                                    *)

let store_smoke () =
  section "Store gate: persistent design store (cold/warm/corrupt)";
  let cli = cli_binary "store-smoke" in
  let dir = temp_dir "tlstore" in
  let store i = Filename.concat dir (Printf.sprintf "store%d" i) in
  let root = store 0 in
  let out = Filename.concat dir "sweep.json" in
  let run_sweep ?(root = root) () =
    let cmd =
      Printf.sprintf "%s sweep --network tiny --store %s --json > %s"
        (Filename.quote cli) (Filename.quote root) (Filename.quote out)
    in
    let rc, secs = wall (fun () -> Sys.command cmd) in
    if rc <> 0 then begin
      Printf.eprintf "store-smoke: sweep exited %d\n" rc;
      exit 1
    end;
    match Json.parse (String.trim (read_file out)) with
    | Error msg ->
      Printf.eprintf "store-smoke: bad sweep JSON: %s\n" msg;
      exit 1
    | Ok j ->
      let digest = Option.value (Json.mem_string j "digest") ~default:"" in
      let hit_rate = Option.value (Json.mem_number j "hit_rate") ~default:0. in
      (secs, digest, hit_rate)
  in
  let colds = List.init 3 (fun i -> run_sweep ~root:(store i) ()) in
  let warms = List.init 3 (fun _ -> run_sweep ()) in
  let fastest =
    List.fold_left (fun acc (s, _, _) -> Float.min acc s) infinity
  in
  let cold_s = fastest colds and warm_s = fastest warms in
  let _, cold_digest, cold_rate = List.hd colds in
  let warm_rate =
    List.fold_left (fun acc (_, _, r) -> Float.min acc r) 1. warms
  in
  Printf.printf "  cold %.3fs (hit rate %.0f%%)  warm %.3fs (hit rate \
                 %.0f%%)  %.1fx  (fastest of 3 each)\n"
    cold_s (100. *. cold_rate) warm_s (100. *. warm_rate) (cold_s /. warm_s);
  check "warm run served entirely from the store" (warm_rate = 1.0);
  check "warm run at least 5x faster than cold" (cold_s >= 5. *. warm_s);
  check "warm results bit-identical to cold"
    (List.for_all (fun (_, d, _) -> d = cold_digest) (colds @ warms));
  (* corruption tolerance: truncate one entry file to half its length *)
  let entries = Filename.concat root "entries" in
  (match Sys.readdir entries with
   | [||] -> check "store has persisted entries" false
   | names ->
     let victim = Filename.concat entries names.(0) in
     let content = read_file victim in
     write_file victim (String.sub content 0 (String.length content / 2)));
  let _, corrupt_digest, corrupt_rate = run_sweep () in
  check "truncated entry degrades to a miss" (corrupt_rate < 1.0);
  check "sweep over corrupt store still bit-identical"
    (corrupt_digest = cold_digest);
  let _, healed_digest, healed_rate = run_sweep () in
  check "recomputed entry re-persisted (store healed)"
    (healed_rate = 1.0 && healed_digest = cold_digest);
  conclude "store-smoke"

(* ------------------------------------------------------------------ *)
(* Chaos gate: a seeded software-fault campaign over every probe site —
   store I/O (short/torn writes, injected Sys_error, corrupt payloads),
   Tl_par tasks (kills, delays), and the serve loop's stdin (oversized
   lines, mid-line EOF).  Asserts >= 200 injected faults, zero process
   crashes, every store fault degrading to a miss (never wrong bytes),
   and an interrupted-then-resumed tiny sweep whose digest is
   bit-identical to an uninterrupted run at pool widths 1 and 3.        *)

let chaos_smoke () =
  section "Chaos gate: seeded software-fault campaign (store/pool/serve)";
  let cli = cli_binary "chaos-smoke" in
  Resil.Chaos.reset_injected ();
  (* fast retries: deterministic backoff, no wall-clock sleeping *)
  let retry = { Resil.Retry.default with sleep = ignore } in

  (* -- store campaign: puts and finds under heavy I/O weather -------- *)
  let store = Store.open_store ~retry ~root:(temp_dir "tlchaos") () in
  let payload i = Printf.sprintf "payload-%d-%s" i (String.make 64 'x') in
  Resil.Chaos.arm
    {
      Resil.Chaos.seed = 42;
      rate = 0.7;
      sites =
        [ ("store.write",
           [ Resil.Chaos.Fail "disk weather";
             Resil.Chaos.Truncate 0.5;
             Resil.Chaos.Corrupt ]);
          ("store.read", [ Resil.Chaos.Fail "read weather" ]) ];
    };
  let puts = 150 in
  let exact = ref 0 and missed = ref 0 and wrong = ref 0 in
  for i = 0 to puts - 1 do
    let key = Printf.sprintf "chaos-key-%d" i in
    Store.put store key (payload i);
    match Store.find store key with
    | None -> incr missed
    | Some p when p = payload i -> incr exact
    | Some _ -> incr wrong
  done;
  Resil.Chaos.disarm ();
  Printf.printf "  store campaign: %d puts  %d exact  %d missed  %d wrong\n"
    puts !exact !missed !wrong;
  check "every store fault degraded to a miss (no wrong bytes)" (!wrong = 0);
  check "chaos actually perturbed the store campaign" (!missed > 0);
  let degraded_reads, dropped_writes = Store.io_failures store in
  Printf.printf "  io_failures: %d degraded reads  %d dropped writes\n"
    degraded_reads dropped_writes;
  (* clear weather: the same store must work again *)
  Store.put store "post-chaos" "sunny";
  check "store serves normally once disarmed"
    (Store.find store "post-chaos" = Some "sunny");

  (* -- torn write at every byte offset ------------------------------ *)
  let root2 = temp_dir "tltorn" in
  let store2 = Store.open_store ~root:root2 () in
  Store.put store2 "torn" "torn-entry-payload-0123456789";
  let entries2 = Filename.concat root2 "entries" in
  let victim =
    match Sys.readdir entries2 with
    | [||] -> failwith "chaos-smoke: no entry persisted"
    | names -> Filename.concat entries2 names.(0)
  in
  let full = read_file victim in
  let torn_ok = ref true in
  for cut = 0 to String.length full - 1 do
    write_file victim (String.sub full 0 cut);
    (* fresh handle: no index state, straight to the torn file *)
    let probe_store = Store.open_store ~root:root2 () in
    match Store.find probe_store "torn" with
    | None -> ()
    | Some _ -> torn_ok := false
  done;
  write_file victim full;
  check
    (Printf.sprintf "torn entry degrades to a miss at all %d offsets"
       (String.length full))
    !torn_ok;
  check "restored entry serves again"
    (Store.find (Store.open_store ~root:root2 ()) "torn"
     = Some "torn-entry-payload-0123456789");

  (* -- pool campaign: kills and delays, width-independent ----------- *)
  let items = List.init 100 Fun.id in
  let pattern_at width =
    Resil.Chaos.arm
      {
        Resil.Chaos.seed = 7;
        rate = 0.3;
        sites =
          [ ("par:chaos-par",
             [ Resil.Chaos.Fail "killed"; Resil.Chaos.Delay 5000 ]) ];
      };
    let r =
      Par.try_map ~domains:width ~label:"chaos-par"
        (fun i -> i * i)
        items
    in
    Resil.Chaos.disarm ();
    List.map (function Ok v -> Printf.sprintf "ok:%d" v | Error _ -> "err") r
  in
  let p1 = pattern_at 1 in
  let p3 = pattern_at 3 in
  let p8 = pattern_at 8 in
  check "pool Ok/Error pattern identical at widths 1/3/8"
    (p1 = p3 && p3 = p8);
  check "pool campaign injected both kills and survivals"
    (List.exists (( = ) "err") p1 && List.exists (( <> ) "err") p1);
  (* delays only: map must keep its ordering contract *)
  Resil.Chaos.arm
    {
      Resil.Chaos.seed = 11;
      rate = 0.5;
      sites = [ ("par:chaos-ord", [ Resil.Chaos.Delay 20000 ]) ];
    };
  let ordered =
    Par.map ~domains:8 ~label:"chaos-ord" (fun i -> 2 * i) items
  in
  Resil.Chaos.disarm ();
  check "injected delays never reorder pool results"
    (ordered = List.map (fun i -> 2 * i) items);

  (* -- serve under hostile stdin (subprocess) ------------------------ *)
  let dir = temp_dir "tlserve" in
  let file name = Filename.concat dir name in
  write_file (file "requests")
    (String.concat ""
       [ "{\"id\": 1, \"network\": \"tiny\"}\n";
         String.make 4096 'z' ^ "\n" (* oversized *);
         "this is not json\n";
         "{\"id\": 2, \"expr\": \"bogus\"}\n";
         "\n" (* blank: ignored *);
         "{\"id\": 3, \"network\": \"tiny\"}" (* mid-line EOF *) ]);
  let rc =
    Sys.command
      (Printf.sprintf "%s serve --store %s --max-request-bytes 1024 < %s > %s 2> %s"
         (Filename.quote cli) (Filename.quote (file "store"))
         (Filename.quote (file "requests")) (Filename.quote (file "out"))
         (Filename.quote (file "err")))
  in
  check "serve exits 0 after oversized/malformed/mid-line-EOF input"
    (rc = 0);
  let responses =
    String.split_on_char '\n' (read_file (file "out"))
    |> List.filter (fun l -> String.trim l <> "")
  in
  let parsed = List.map (fun l -> Json.parse l) responses in
  check "serve answered every non-blank request with JSON"
    (List.length responses = 5
     && List.for_all (function Ok _ -> true | Error _ -> false) parsed);
  let ok_of = function
    | Ok j -> (match Json.member "ok" j with Some (Json.Bool b) -> b | _ -> false)
    | Error _ -> false
  in
  check "hostile lines got structured errors, real requests succeeded"
    (List.map ok_of parsed = [ true; false; false; false; true ]);
  let errlog = read_file (file "err") in
  let contains_shutdown =
    let needle = "serve: shutdown after" in
    let n = String.length needle in
    let rec go i =
      i + n <= String.length errlog
      && (String.sub errlog i n = needle || go (i + 1))
    in
    go 0
  in
  check "serve printed the final stats line on stderr" contains_shutdown;

  (* -- interrupted-then-resumed sweep, digest-identical -------------- *)
  let layers = List.assoc "tiny" (Network.networks ()) in
  let sweep ~width ~root ~resume =
    Network.sweep ~domains:width
      ~checkpoint:(Filename.concat root "sweep-tiny.ckpt")
      ~resume ~store:(Store.open_store ~root ()) ~name:"tiny" layers
  in
  List.iter
    (fun width ->
      let cold = sweep ~width ~root:(temp_dir "tlcold") ~resume:false in
      let int_root = temp_dir "tlint" in
      arm_kill_shape0 ();
      let interrupted = sweep ~width ~root:int_root ~resume:false in
      Resil.Chaos.disarm ();
      check
        (Printf.sprintf "width %d: injected kill degrades the sweep" width)
        ((not interrupted.Network.r_complete)
         && interrupted.Network.r_degraded_shapes = 1);
      check
        (Printf.sprintf "width %d: interrupted sweep left a checkpoint" width)
        (Sys.file_exists (Filename.concat int_root "sweep-tiny.ckpt"));
      let resumed = sweep ~width ~root:int_root ~resume:true in
      check
        (Printf.sprintf
           "width %d: resumed digest bit-identical to uninterrupted" width)
        (resumed.Network.r_complete
         && resumed.Network.r_digest = cold.Network.r_digest
         && resumed.Network.r_resumed_shapes = 2);
      check
        (Printf.sprintf "width %d: completed checkpoint removed" width)
        (not (Sys.file_exists (Filename.concat int_root "sweep-tiny.ckpt"))))
    [ 1; 3 ];

  let injected = Resil.Chaos.injected () in
  Printf.printf "  total injected software faults: %d\n" injected;
  check "campaign injected at least 200 software faults" (injected >= 200);
  conclude "chaos-smoke"

(* ------------------------------------------------------------------ *)
(* Benchmark gate: resilience overheads.  Measures what the software
   armour costs and buys — retry counts under injected read weather,
   the latency of a budget-degraded partial sweep vs a full one, and
   the resume-from-checkpoint speedup vs a cold sweep — and writes
   BENCH_resil.json (schema tensorlib-bench-resil/1).                   *)

let bench_resil () =
  section "Benchmark gate: resilience (retries, partial latency, resume)";
  Resil.Chaos.reset_injected ();
  Resil.Retry.reset_counters ();
  (* retry economics under seeded read weather *)
  let retry = { Resil.Retry.default with sleep = ignore } in
  let store = Store.open_store ~retry ~root:(temp_dir "tlresil") () in
  let n_keys = 200 in
  for i = 0 to n_keys - 1 do
    Store.put store (Printf.sprintf "k%d" i) (Printf.sprintf "v%d" i)
  done;
  Resil.Chaos.arm
    {
      Resil.Chaos.seed = 5;
      rate = 0.4;
      sites = [ ("store.read", [ Resil.Chaos.Fail "weather" ]) ];
    };
  let healed = ref 0 and missed = ref 0 in
  for i = 0 to n_keys - 1 do
    match Store.find store (Printf.sprintf "k%d" i) with
    | Some _ -> incr healed
    | None -> incr missed
  done;
  Resil.Chaos.disarm ();
  let retries = Resil.Retry.retries () in
  let giveups = Resil.Retry.giveups () in
  let degraded_reads, dropped_writes = Store.io_failures store in
  Printf.printf
    "  read weather (rate 0.4, %d reads): %d healed  %d missed  %d retries  \
     %d giveups\n"
    n_keys !healed !missed retries giveups;
  if !healed + !missed <> n_keys then failwith "bench-resil: lost reads";
  if !healed = 0 then failwith "bench-resil: retries never healed a read";

  (* partial-result latency: a hard budget answers fast with estimates *)
  let layers = List.assoc "tiny" (Network.networks ()) in
  let sweep ?budget ?checkpoint ?resume store =
    Network.sweep ?budget ?checkpoint ?resume ~store ~name:"tiny" layers
  in
  let fresh_store prefix = Store.open_store ~root:(temp_dir prefix) () in
  let cold, cold_s = wall (fun () -> sweep (fresh_store "tlresilc")) in
  let partial, partial_s =
    wall (fun () ->
        sweep ~budget:(Resil.Budget.of_checks 1000) (fresh_store "tlresilp"))
  in
  Printf.printf
    "  full sweep %.3fs  budget-degraded %.3fs (%.0fx faster, %d/%d shapes \
     estimated)\n"
    cold_s partial_s (cold_s /. partial_s) partial.Network.r_degraded_shapes
    partial.Network.r_unique_shapes;
  if partial.Network.r_complete then
    failwith "bench-resil: budget failed to degrade the sweep";

  (* resume-vs-cold: interrupt by killing shape 0, then resume *)
  let int_root = temp_dir "tlresili" in
  let int_store = Store.open_store ~root:int_root () in
  let checkpoint = Filename.concat int_root "sweep-tiny.ckpt" in
  arm_kill_shape0 ();
  let _interrupted = sweep ~checkpoint int_store in
  Resil.Chaos.disarm ();
  let resumed, resume_s =
    wall (fun () -> sweep ~checkpoint ~resume:true int_store)
  in
  let digest_identical = resumed.Network.r_digest = cold.Network.r_digest in
  Printf.printf
    "  cold sweep %.3fs  resumed %.3fs (%.1fx, %d shapes from checkpoint, \
     digest %s)\n"
    cold_s resume_s (cold_s /. resume_s) resumed.Network.r_resumed_shapes
    (if digest_identical then "identical" else "DIVERGED");
  if not digest_identical then
    failwith "bench-resil: resumed digest diverged from cold";
  write_json "BENCH_resil.json"
    (Json.Obj
       [ ("schema", Json.Str "tensorlib-bench-resil/1");
         ("domains", int (Par.n_domains ()));
         ("retry",
          Json.Obj
            [ ("reads", int n_keys); ("healed", int !healed);
              ("missed", int !missed); ("retries", int retries);
              ("giveups", int giveups);
              ("degraded_reads", int degraded_reads);
              ("dropped_writes", int dropped_writes) ]);
         ("partial",
          Json.Obj
            [ ("cold_s", Json.Num cold_s); ("partial_s", Json.Num partial_s);
              ("speedup", Json.Num (cold_s /. partial_s));
              ("degraded_shapes", int partial.Network.r_degraded_shapes);
              ("unique_shapes", int partial.Network.r_unique_shapes) ]);
         ("resume",
          Json.Obj
            [ ("cold_s", Json.Num cold_s); ("resume_s", Json.Num resume_s);
              ("speedup", Json.Num (cold_s /. resume_s));
              ("resumed_shapes", int resumed.Network.r_resumed_shapes);
              ("digest_identical", Json.Bool digest_identical) ]);
         ("injected_faults", int (Resil.Chaos.injected ())) ])

(* ------------------------------------------------------------------ *)
(* Benchmark gate: fault-injection campaign.  Baseline 4x4 GEMM vs the
   fully hardened (TMR + parity + ABFT) variant of the same dataflow,
   each under a 1000-trial seeded campaign; the hardened design must let
   no silent data corruption through.  A second, throughput-sized
   campaign (8x8 GEMM, 10000 trials) runs the identical fault plan on the
   scalar tape and on the bit-sliced backend to measure the batch
   wall-clock speedup at full lane width.  Writes BENCH_fault.json with
   outcome counts, SDC rates and the ASIC-model hardening overhead.      *)

let bench_fault () =
  section "Benchmark gate: fault campaigns (baseline vs TMR+parity+ABFT)";
  let trials = 1000 in
  let stmt = Workloads.gemm ~m:4 ~n:4 ~k:4 in
  let design = Search.find_design_exn stmt "MNK-SST" in
  let env = Exec.alloc_inputs stmt in
  let base = Accel.generate ~rows:4 ~cols:4 design env in
  let config = { Campaign.default_config with trials } in
  let base_rep, base_s = wall (fun () -> Campaign.run ~config base) in
  let stmt_a, env_a =
    match Abft.augment stmt env with
    | Some x -> x
    | None -> failwith "GEMM must be ABFT-supported"
  in
  let design_a = Search.find_design_exn stmt_a "MNK-SST" in
  let plain_a = Accel.generate ~rows:5 ~cols:5 design_a env_a in
  let hard =
    Accel.generate ~rows:5 ~cols:5 ~harden:Harden.full design_a env_a
  in
  let hconfig = { config with abft = true } in
  let hard_rep, hard_s = wall (fun () -> Campaign.run ~config:hconfig hard) in
  (* throughput campaign: one fault plan, both backends.  62 trials per
     tape pass on the batch side; outcomes must be trial-for-trial
     identical to the scalar run *)
  let perf_trials = 10000 in
  let stmt8 = Workloads.gemm ~m:8 ~n:8 ~k:8 in
  let design8 = Search.find_design_exn stmt8 "MNK-SST" in
  let acc8 = Accel.generate ~rows:8 ~cols:8 design8 (Exec.alloc_inputs stmt8) in
  let pconfig = { Campaign.default_config with trials = perf_trials } in
  let tape_rep, tape_s = wall (fun () -> Campaign.run ~config:pconfig acc8) in
  let batch_rep, batch_s =
    wall (fun () ->
        Campaign.run ~config:{ pconfig with backend = `Batch } acc8)
  in
  let trial_sig (t : Campaign.trial) =
    (Fault.fault_label t.Campaign.fault,
     Campaign.outcome_label t.Campaign.outcome)
  in
  if
    List.map trial_sig batch_rep.Campaign.results
    <> List.map trial_sig tape_rep.Campaign.results
  then failwith "batch campaign diverged from the scalar tape";
  let show tag (r : Campaign.report) s =
    Printf.printf
      "  %-9s %-10s trials=%d pruned=%d masked=%d detected=%d hang=%d \
       sdc=%d  (SDC %.4f)  %.2fs\n"
      tag r.Campaign.hardening r.Campaign.trials r.Campaign.pruned
      r.Campaign.masked r.Campaign.detected r.Campaign.hang r.Campaign.sdc
      r.Campaign.sdc_rate s
  in
  show "baseline" base_rep base_s;
  show "tape-8x8" tape_rep tape_s;
  show "batch-8x8" batch_rep batch_s;
  Printf.printf "  batch backend: %.2fx faster than the scalar tape\n"
    (tape_s /. batch_s);
  show "hardened" hard_rep hard_s;
  let unclassified (r : Campaign.report) =
    r.Campaign.trials
    - (r.Campaign.masked + r.Campaign.sdc + r.Campaign.detected
       + r.Campaign.hang)
  in
  if unclassified base_rep <> 0 || unclassified hard_rep <> 0 then
    failwith "fault campaign left unclassified trials";
  let cb = Asic.evaluate_netlist base.Accel.circuit in
  let ca = Asic.evaluate_netlist plain_a.Accel.circuit in
  let ch = Asic.evaluate_netlist hard.Accel.circuit in
  let pct f b = 100. *. (f -. b) /. b in
  let tmr_area = pct ch.Asic.area ca.Asic.area in
  let tmr_power = pct ch.Asic.power_mw ca.Asic.power_mw in
  let abft_area = pct ca.Asic.area cb.Asic.area in
  let abft_cycles =
    pct
      (float_of_int hard.Accel.total_cycles)
      (float_of_int base.Accel.total_cycles)
  in
  Printf.printf
    "  TMR+parity overhead (same array):  area %+.2f%%  power %+.2f%%\n"
    tmr_area tmr_power;
  Printf.printf
    "  ABFT problem overhead (5x5 array): area %+.2f%%  cycles %+.2f%%\n"
    abft_area abft_cycles;
  write_json "BENCH_fault.json"
    (Json.Obj
       [ ("schema", Json.Str "tensorlib-bench-fault/1");
         ("domains", int (Par.n_domains ()));
         ("baseline", Campaign.to_json base_rep);
         ("hardened", Campaign.to_json hard_rep);
         ("overhead",
          Json.Obj
            [ ("tmr_parity_area_pct", Json.Num tmr_area);
              ("tmr_parity_power_pct", Json.Num tmr_power);
              ("abft_area_pct", Json.Num abft_area);
              ("abft_cycles_pct", Json.Num abft_cycles) ]);
         ("wall_s",
          Json.Obj
            [ ("baseline", Json.Num base_s); ("hardened", Json.Num hard_s);
              ("campaign_8x8_tape", Json.Num tape_s);
              ("campaign_8x8_batch", Json.Num batch_s) ]);
         ("batch_trials", int perf_trials);
         ("batch_speedup", Json.Num (tape_s /. batch_s)) ]);
  check "hardened design: zero silent data corruptions"
    (hard_rep.Campaign.sdc = 0);
  conclude "fault-smoke"

(* ------------------------------------------------------------------ *)
(* Fast batch-backend gate: lane-differential correctness plus a quick
   throughput sanity check, small enough for a pre-commit hook.  Exits
   non-zero (via [failwith]) on any lane divergence.                    *)

let batch_smoke () =
  section "Batch backend smoke: lane differential + throughput sanity";
  let stmt = Workloads.gemm ~m:4 ~n:4 ~k:4 in
  let design = Search.find_design_exn stmt "MNK-SST" in
  let env = Exec.alloc_inputs stmt in
  let acc = Accel.generate ~rows:4 ~cols:4 design env in
  (* every lane of a full-width broadcast run must match the golden *)
  let envs =
    List.init Sim.max_lanes (fun k -> Exec.alloc_inputs ~seed:(k + 1) stmt)
  in
  let outs, batch_s = wall (fun () -> Accel.execute_batch acc envs) in
  List.iteri
    (fun lane (env, out) ->
      if not (Dense.equal (Exec.run stmt env) out) then
        failwith (Printf.sprintf "batch-smoke: lane %d diverged" lane))
    (List.combine envs outs);
  let _, scalar_s =
    wall (fun () -> List.map (fun env -> Accel.execute_with acc env) envs)
  in
  (* a 150-trial stuck-at campaign exercises per-lane forces *)
  let config =
    { Campaign.default_config with
      trials = 150;
      kinds = [ Fault.Stuck_at ];
      backend = `Batch }
  in
  let golden = Accel.execute acc in
  let rb = Campaign.run ~config ~golden acc in
  let rt = Campaign.run ~config:{ config with backend = `Tape } ~golden acc in
  let sig_of (t : Campaign.trial) =
    (Fault.fault_label t.Campaign.fault,
     Campaign.outcome_label t.Campaign.outcome)
  in
  if
    List.map sig_of rb.Campaign.results <> List.map sig_of rt.Campaign.results
  then failwith "batch-smoke: campaign outcomes diverged from the tape";
  Printf.printf
    "  %d lanes vs golden: PASS   stuck-at campaign vs tape: PASS\n"
    Sim.max_lanes;
  Printf.printf
    "  execute_batch %d envs: %.3fs  scalar execute_with x%d: %.3fs  \
     (%.1fx)\n"
    Sim.max_lanes batch_s Sim.max_lanes scalar_s (scalar_s /. batch_s)

(* ------------------------------------------------------------------ *)
(* Benchmark gate: observability.  Counter-vs-model validation and the
   assumed-vs-measured power comparison over the four tier-1 workloads,
   plus a traced DSE sweep and fault campaign with the Tl_par pool
   observer installed; writes BENCH_obs.json and TRACE_obs.json.        *)

let bench_obs () =
  section "Benchmark gate: observability (counters vs model, traced pools)";
  let results =
    List.map
      (fun ((tag, _, dname) as case) ->
        let acc = tier1_accel case in
        let v, v_s = wall (fun () -> Obs.Counters.validate acc) in
        let p, p_s = wall (fun () -> Obs.Power.measure acc) in
        Printf.printf
          "  %-10s %-9s counters %-8s power modeled=%.2f mW measured=%.2f \
           mW  (%.2fs + %.2fs)\n"
          tag dname
          (if v.Obs.Counters.v_ok then "OK" else "MISMATCH")
          p.Obs.Power.modeled.Asic.power_mw
          p.Obs.Power.measured.Asic.power_mw v_s p_s;
        (tag, v, p, v_s, p_s))
      tier1
  in
  List.iter
    (fun (tag, v, _, _, _) ->
      if not v.Obs.Counters.v_ok then
        failwith (Printf.sprintf "counter validation failed for %s" tag))
    results;
  (* Traced pool work: a DSE sweep and a small fault campaign run under
     the trace_event pool observer, attributing every task to its
     worker.  The wrapper is uninstalled before writing the files. *)
  let trace = Obs.Trace.create () in
  let clock = Unix.gettimeofday in
  Par.set_wrapper (Some (Obs.Trace.pool_wrapper trace ~clock));
  let stmt = Workloads.gemm ~m:4 ~n:4 ~k:4 in
  let explored, dse_s =
    wall (fun () ->
        Obs.Trace.span trace ~clock ~name:"dse-explore" (fun () ->
            List.length (Explore.explore ~limit:16 stmt)))
  in
  let campaign_rep, fault_s =
    wall (fun () ->
        Obs.Trace.span trace ~clock ~name:"fault-campaign" (fun () ->
            let design = Search.find_design_exn stmt "MNK-SST" in
            let env = Exec.alloc_inputs stmt in
            let acc = Accel.generate ~rows:4 ~cols:4 design env in
            Campaign.run
              ~config:{ Campaign.default_config with trials = 100 }
              acc))
  in
  Par.set_wrapper None;
  Printf.printf
    "  traced: %d DSE designs (%.2fs), %d fault trials (%.2fs), %d spans\n"
    explored dse_s campaign_rep.Campaign.trials fault_s
    (Obs.Trace.length trace);
  Obs.Trace.write_file "TRACE_obs.json" trace;
  write_json "BENCH_obs.json"
    (Json.Obj
       [ ("schema", Json.Str "tensorlib-bench-obs/1");
         ("domains", int (Par.n_domains ()));
         ("workloads",
          Json.List
            (List.map
               (fun (tag, v, p, v_s, p_s) ->
                 Json.Obj
                   [ ("workload", Json.Str tag);
                     ("counters", Obs.Counters.to_json v);
                     ("power", Obs.Power.to_json p);
                     ("wall_s",
                      Json.Obj
                        [ ("validate", Json.Num v_s); ("power", Json.Num p_s) ])
                   ])
               results));
         ("traced",
          Json.Obj
            [ ("dse_designs", int explored);
              ("fault_trials", int campaign_rep.Campaign.trials);
              ("spans", int (Obs.Trace.length trace));
              ("trace_file", Json.Str "TRACE_obs.json");
              ("wall_s",
               Json.Obj
                 [ ("dse", Json.Num dse_s); ("fault", Json.Num fault_s) ]) ])
       ])

(* ------------------------------------------------------------------ *)
(* Benchmark gate: abstract interpretation.  Runs the Tl_absint proof
   campaign over the four tier-1 workloads — every safety rule (L200
   overflow, L201 addresses, L202 write schedules) must be proven without
   simulation — and prices the analysis-driven width narrowing; writes
   BENCH_absint.json.                                                   *)

let bench_absint () =
  section "Benchmark gate: abstract interpretation (proofs + narrowing)";
  let results =
    List.map
      (fun ((tag, _, dname) as case) ->
        let acc = tier1_accel case in
        let r, a_s = wall (fun () -> Absint.Report.of_accel acc) in
        let open Absint.Report in
        let sv = r.savings in
        Printf.printf
          "  %-10s %-9s %-6s %3d proofs  reg bits %4d -> %4d  area %6.1f \
           -> %6.1f (%.2fs)\n"
          tag dname
          (if r.safe then "SAFE" else "UNSAFE")
          (List.length r.proofs) sv.Absint.Narrow.reg_bits_before
          sv.Absint.Narrow.reg_bits_after r.area_before r.area_after a_s;
        (tag, r, a_s))
      tier1
  in
  List.iter
    (fun (tag, (r : Absint.Report.t), _) ->
      if not r.Absint.Report.safe then
        failwith
          (Printf.sprintf
             "absint gate failed for %s: unproven safety rule\n%s" tag
             (Format.asprintf "%a" Lint.Finding.pp_report
                r.Absint.Report.findings)))
    results;
  let workload (tag, (r : Absint.Report.t), a_s) =
    let sv = r.Absint.Report.savings in
    Json.Obj
      [ ("workload", Json.Str tag);
        ("target", Json.Str r.Absint.Report.target);
        ("safe", Json.Bool r.Absint.Report.safe);
        ("cycles", int r.Absint.Report.cycles);
        ("proofs", int (List.length r.Absint.Report.proofs));
        ("findings", int (List.length r.Absint.Report.findings));
        ("reg_bits_before", int sv.Absint.Narrow.reg_bits_before);
        ("reg_bits_after", int sv.Absint.Narrow.reg_bits_after);
        ("cells_before", int sv.Absint.Narrow.cells_before);
        ("cells_after", int sv.Absint.Narrow.cells_after);
        ("area_before", Json.Num r.Absint.Report.area_before);
        ("area_after", Json.Num r.Absint.Report.area_after);
        ("wall_s", Json.Num a_s) ]
  in
  write_json "BENCH_absint.json"
    (Json.Obj
       [ ("schema", Json.Str "tensorlib-bench-absint/1");
         ("workloads", Json.List (List.map workload results)) ])

(* ------------------------------------------------------------------ *)
(* prog-smoke: one programmable 4x4 netlist serves three einsum shapes
   via Tl_compile, each bit-identical to the golden executor and to a
   freshly generated per-shape ROM accelerator, and the reference
   interpreter (test/refsim.ml) started from the loaded memories ends in
   the tape's state; lint and the abstract interpreter must report
   nothing new on the programmable variant.                              *)

let prog_headroom = 4

let prog_target () =
  let stmt = Workloads.gemm ~m:4 ~n:4 ~k:4 in
  let design = design_of_name stmt "MNK-SST" in
  let envelope =
    Layout.envelope ~headroom:prog_headroom
      (Layout.build design ~rows:4 ~cols:4)
  in
  let env = Exec.alloc_inputs stmt in
  Accel.generate ~rows:4 ~cols:4 ~programmable:envelope design env

let prog_shapes = [ 6; 10; 14 ]

let prog_smoke () =
  section "prog-smoke: one programmable netlist, three shapes";
  let target = prog_target () in
  let plan_stats () =
    List.find
      (fun (s : Par.Cache.stats) -> s.Par.Cache.name = "stt.search_plan")
      (Par.Cache.all_stats ())
  in
  (* empty memo tables, so the first shape builds the plan even when an
     earlier command in this process (bench-prog) searched the same GEMM *)
  Par.Cache.clear_all ();
  let plan_before = plan_stats () in
  let found =
    List.map
      (fun k ->
        let stmt = Workloads.gemm ~m:4 ~n:4 ~k in
        (k, stmt, Compile.find_design ~target stmt))
      prog_shapes
  in
  (* the three shapes differ only in extents: one plan serves them all *)
  let plan_after = plan_stats () in
  check "one search plan for the three shapes"
    (plan_after.Par.Cache.entries = plan_before.Par.Cache.entries + 1
     && plan_after.Par.Cache.hits >= plan_before.Par.Cache.hits + 2);
  List.iter
    (fun (k, stmt, found) ->
      match found with
      | Error rejections ->
        List.iter
          (fun (n, e) ->
            Printf.printf "    %s: %s\n" n (Compile.error_to_string e))
          rejections;
        check (Printf.sprintf "gemm k=%d compiles" k) false
      | Ok (design, program) ->
        let env = Exec.alloc_inputs stmt in
        let golden = Exec.run stmt env in
        let rom = Accel.generate ~rows:4 ~cols:4 design env in
        let got = Accel.execute_program target program env in
        check
          (Printf.sprintf "gemm k=%d tape = golden = ROM build" k)
          (Dense.equal got golden && Dense.equal got (Accel.execute rom));
        let sim = Sim.create target.Accel.circuit in
        Accel.load_program target sim program env;
        check
          (Printf.sprintf "gemm k=%d reference interpreter = tape" k)
          (Oracle.Refsim.run_against target.Accel.circuit sim
             (program.Layout.p_total + 1)
          = []);
        check
          (Printf.sprintf "gemm k=%d program codec roundtrip" k)
          (Compile.program_of_json (Compile.program_to_json program)
           = Ok program))
    found;
  (* the programmable variant must introduce no new static findings *)
  let stmt = Workloads.gemm ~m:4 ~n:4 ~k:4 in
  let design = design_of_name stmt "MNK-SST" in
  let env = Exec.alloc_inputs stmt in
  let rom = Accel.generate ~rows:4 ~cols:4 design env in
  let cfg = { Lint.Netlist.suppress = []; fanout_threshold = 64 } in
  let rules fs =
    List.sort_uniq compare
      (List.map (fun (f : Lint.Finding.t) -> f.Lint.Finding.rule) fs)
  in
  let rom_rules = rules (Lint.Netlist.check_circuit ~config:cfg rom.Accel.circuit) in
  let prog_rules =
    rules (Lint.Netlist.check_circuit ~config:cfg target.Accel.circuit)
  in
  check "lint: no new rules on programmable variant"
    (List.for_all (fun r -> List.mem r rom_rules) prog_rules);
  let ar = Absint.Report.of_accel rom in
  let ap = Absint.Report.of_accel target in
  check "absint: programmable variant proven safe" ap.Absint.Report.safe;
  check "absint: no new rules on programmable variant"
    (List.for_all
       (fun r -> List.mem r (rules ar.Absint.Report.findings))
       (rules ap.Absint.Report.findings));
  conclude "prog-smoke"

(* ------------------------------------------------------------------ *)
(* bench-prog: latency to retarget the array to a new shape —
   software compile + descriptor load on the standing netlist versus a
   fresh ROM elaboration + simulator build.  Execution cost is identical
   in both paths (same netlist shape), so the figure isolates the
   per-new-shape setup cost serving actually pays.                       *)

let bench_prog () =
  section "bench-prog: reprogram vs regenerate latency per new shape";
  let target = prog_target () in
  let sim = Sim.create target.Accel.circuit in
  let time reps f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do f () done;
    (Unix.gettimeofday () -. t0) *. 1000. /. float_of_int reps
  in
  let reps = 30 in
  let rows =
    List.map
      (fun k ->
        let stmt = Workloads.gemm ~m:4 ~n:4 ~k in
        let env = Exec.alloc_inputs stmt in
        let golden = Exec.run stmt env in
        let design, program =
          match Compile.find_design ~target stmt with
          | Ok dp -> dp
          | Error _ -> failwith "bench-prog: shape does not compile"
        in
        (* correctness first: the timed paths must agree bit-for-bit *)
        let got = Accel.execute_program ~sim target program env in
        let verified = Dense.equal got golden in
        (* reprogram = loading a compiled program into the standing array
           (descriptor + data memory writes).  Programs are serialisable
           artifacts (Compile.program_to_json), so a deployment compiles a
           shape once and reloads the cached program thereafter; the
           one-time software cost is reported separately as compile_ms.
           Execution cost is identical in both paths and excluded. *)
        let reprog_ms =
          time reps (fun () -> Accel.load_program target sim program env)
        in
        let compile_ms =
          time reps (fun () ->
              match Compile.compile ~target design with
              | Ok _ -> ()
              | Error _ -> failwith "bench-prog: recompile failed")
        in
        let regen_ms =
          time reps (fun () ->
              let rom = Accel.generate ~rows:4 ~cols:4 design env in
              ignore (Sim.create rom.Accel.circuit))
        in
        let speedup = regen_ms /. reprog_ms in
        Printf.printf
          "  gemm k=%-3d regenerate %7.3f ms   reprogram %7.3f ms   \
           (compile %7.3f ms)   %6.1fx %s\n%!"
          k regen_ms reprog_ms compile_ms speedup
          (if verified then "" else "UNVERIFIED");
        (k, regen_ms, reprog_ms, compile_ms, speedup, verified))
      prog_shapes
  in
  let min_speedup =
    List.fold_left (fun a (_, _, _, _, s, _) -> min a s) infinity rows
  in
  let all_verified = List.for_all (fun (_, _, _, _, _, v) -> v) rows in
  let shape (k, regen, reprog, compile, speedup, verified) =
    Json.Obj
      [ ("k", int k); ("regenerate_ms", Json.Num regen);
        ("reprogram_ms", Json.Num reprog); ("compile_ms", Json.Num compile);
        ("speedup", Json.Num speedup); ("verified", Json.Bool verified) ]
  in
  write_json "BENCH_prog.json"
    (Json.Obj
       [ ("schema", Json.Str "tensorlib-bench-prog/1");
         ("target", Json.Str target.Accel.design.Design.name);
         ("rows", int 4); ("cols", int 4);
         ("headroom", int prog_headroom);
         ("shapes", Json.List (List.map shape rows));
         ("min_speedup", Json.Num min_speedup) ]);
  if not all_verified then begin
    print_endline "bench-prog: programmed output diverged";
    exit 1
  end;
  if min_speedup < 10. then begin
    Printf.printf "bench-prog: reprogramming only %.1fx faster (< 10x gate)\n"
      min_speedup;
    exit 1
  end

(* ------------------------------------------------------------------ *)

let all_sections =
  [ ("table1", table1); ("table2", table2); ("verify", verify);
    ("fig3", fig3); ("fig4", fig4);
    ("fig5", fig5); ("fig6", fig6); ("table3", table3);
    ("metrics", metrics); ("tradeoffs", tradeoffs);
    ("ablation-float", ablation_float);
    ("ablation-span", ablation_span); ("ablation-rewrite", ablation_rewrite) ]

let dispatch =
  all_sections
  @ [ ("bench-fault", bench_fault);
      ("bench-obs", bench_obs); ("bench-absint", bench_absint);
      ("batch-smoke", batch_smoke); ("store-smoke", store_smoke);
      ("chaos-smoke", chaos_smoke); ("bench-resil", bench_resil);
      ("prog-smoke", prog_smoke); ("bench-prog", bench_prog) ]

let () =
  match Array.to_list Sys.argv with
  | _ :: (_ :: _ as picked) ->
    List.iter
      (fun name ->
        match List.assoc_opt name dispatch with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown section %s; available: %s\n" name
            (String.concat " " (List.map fst dispatch));
          exit 1)
      picked
  | _ ->
    print_endline "TensorLib reproduction: all tables and figures";
    List.iter (fun (_, f) -> f ()) all_sections
