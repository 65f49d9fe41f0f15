(* TensorLib command-line interface.

   tensorlib analyze  -w gemm -d MNK-SST          dataflow analysis report
   tensorlib generate -w gemm -d MNK-SST -o f.v   emit Verilog
   tensorlib simulate -w gemm -d MNK-SST          netlist sim vs golden
   tensorlib perf     -w conv2d -d KCX-SST        Fig.5-style cycle model
   tensorlib explore  -w gemm                     design-space sweep + cost
   tensorlib list     -w mttkrp                   letter-distinct dataflows
   tensorlib lint     -w gemm-small               static analysis gate
                                                  (exit 1 on any error)
   tensorlib fault    -w gemm-small -d MNK-SST    fault-injection campaign
                                                  (--harden / --abft)
   tensorlib profile  -w gemm-small -d MNK-SST    hardware counters vs model
                                                  + measured-activity power
                                                  (--trace chrome.json) *)

open Tensorlib

let workloads =
  [ ("gemm", fun () -> Workloads.gemm ~m:64 ~n:64 ~k:64);
    ("gemm-small", fun () -> Workloads.gemm ~m:4 ~n:4 ~k:4);
    ("batched-gemv", fun () -> Workloads.batched_gemv ~m:16 ~n:64 ~k:64);
    ("conv2d", fun () -> Workloads.conv2d ~k:16 ~c:16 ~y:14 ~x:14 ~p:3 ~q:3);
    ("conv2d-small",
     fun () -> Workloads.conv2d ~k:4 ~c:4 ~y:4 ~x:4 ~p:3 ~q:3);
    ("conv2d-strided",
     fun () -> Workloads.conv2d_strided ~stride:2 ~k:8 ~c:8 ~y:7 ~x:7 ~p:3 ~q:3);
    ("pointwise", fun () -> Workloads.pointwise_conv ~k:16 ~c:16 ~y:14 ~x:14);
    ("resnet-l2", fun () -> Workloads.resnet_layer2);
    ("resnet-l5", fun () -> Workloads.resnet_layer5);
    ("depthwise", fun () -> Workloads.depthwise_conv ~k:32 ~y:14 ~x:14 ~p:3 ~q:3);
    ("depthwise-small",
     fun () -> Workloads.depthwise_conv ~k:4 ~y:4 ~x:4 ~p:3 ~q:3);
    ("mttkrp", fun () -> Workloads.mttkrp ~i:32 ~j:16 ~k:16 ~l:16);
    ("mttkrp-small", fun () -> Workloads.mttkrp ~i:4 ~j:4 ~k:4 ~l:4);
    ("ttmc", fun () -> Workloads.ttmc ~i:16 ~j:8 ~k:8 ~l:16 ~m:16);
    ("ttmc-small", fun () -> Workloads.ttmc ~i:4 ~j:4 ~k:3 ~l:4 ~m:4) ]

let workload_of_string s =
  match List.assoc_opt s workloads with
  | Some f -> f ()
  | None ->
    failwith
      (Printf.sprintf "unknown workload %S; valid names: %s" s
         (String.concat ", " (List.map fst workloads)))

(* Argument validation: fail with an actionable message (and exit code 2,
   via [guard]) instead of a backtrace or a confusing elaboration error. *)

(* One validator for every numeric flag that must be strictly positive —
   identical message shape (and exit code 2, via [guard]) across commands,
   so scripts can match on it regardless of which flag they got wrong. *)
let require_positive flag v =
  if v < 1 then failwith (Printf.sprintf "%s must be >= 1; got %d" flag v)

let require_positive_opt flag = Option.iter (require_positive flag)

let validate_grid ~rows ~cols =
  if rows < 1 || cols < 1 then
    failwith
      (Printf.sprintf "PE array must be at least 1x1; got --rows %d --cols %d"
         rows cols)

let validate_widths ~data_width ~acc_width =
  let check flag w =
    if w < 1 || w > 62 then
      failwith
        (Printf.sprintf
           "%s must be between 1 and 62 bits (the simulator models signals \
            in 63-bit native ints); got %d"
           flag w)
  in
  check "--data-width" data_width;
  check "--acc-width" acc_width

(* Run a command body, turning [Failure] (our validation / lookup errors),
   [Sys_error] (a file that cannot be read or written),
   [Accel.Unsupported] (a design with no netlist on the requested array)
   and [Reuse.Overflow] (a statement or matrix whose classification does
   not fit native ints) into a one-line message on stderr and exit
   code 2. *)
let guard f =
  try f () with
  | Failure msg
  | Parse.Parse_error msg
  | Sys_error msg
  | Accel.Unsupported msg
  | Reuse.Overflow msg ->
    Printf.eprintf "tensorlib: error: %s\n" msg;
    exit 2

(* Write every [(path, text)] or none of them: every path is opened before
   any text is written, and on a [Sys_error] the paths this call created
   are removed before the error propagates.  Paths are written through, so
   a device or a pipe stays one; a path that already existed is left
   truncated, not removed, when another path fails. *)
let write_all files =
  let opened = ref [] in
  try
    List.iter
      (fun (path, text) ->
        let created = not (Sys.file_exists path) in
        opened := (path, created, open_out path, text) :: !opened)
      files;
    List.iter
      (fun (_, _, oc, text) ->
        output_string oc text;
        close_out oc)
      (List.rev !opened)
  with Sys_error _ as e ->
    List.iter
      (fun (path, created, oc, _) ->
        close_out_noerr oc;
        if created then try Sys.remove path with Sys_error _ -> ())
      !opened;
    raise e

open Cmdliner

let workload_arg =
  let doc =
    "Workload: gemm, batched-gemv, conv2d, resnet-l2, resnet-l5, depthwise, \
     mttkrp, ttmc (append -small for netlist-sized instances)."
  in
  Arg.(value & opt string "gemm" & info [ "w"; "workload" ] ~doc)

let dataflow_arg =
  let doc = "Dataflow name, e.g. MNK-SST or KCX-STS." in
  Arg.(value & opt string "MNK-SST" & info [ "d"; "dataflow" ] ~doc)

let rows_arg =
  Arg.(value & opt int 8 & info [ "rows" ] ~doc:"PE array rows.")

let cols_arg =
  Arg.(value & opt int 8 & info [ "cols" ] ~doc:"PE array columns.")

let data_width_arg =
  Arg.(value & opt int 16
       & info [ "data-width" ] ~doc:"Input operand width in bits (1-62).")

let acc_width_arg =
  Arg.(value & opt int 32
       & info [ "acc-width" ] ~doc:"Accumulator width in bits (1-62).")

let backend_arg =
  Arg.(value & opt string "tape"
       & info [ "backend" ]
           ~doc:"Simulator backend: tape, or batch (bit-sliced, 62 trials \
                 per pass; fault campaigns and simulate only).")

let out_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~doc:"Output file (default stdout).")

let expr_arg =
  Arg.(value & opt (some string) None
       & info [ "e"; "expr" ]
           ~doc:"Custom einsum formula, e.g. \"C[m,n] += A[m,k] * B[n,k]\" \
                 (requires --extents).")

let extents_arg =
  Arg.(value & opt (some string) None
       & info [ "extents" ]
           ~doc:"Iterator extents for --expr as m=64,n=64,k=64 (nest order).")

let workload_of expr extents w =
  match expr with
  | None -> workload_of_string w
  | Some formula ->
    let extents =
      match extents with
      | None -> failwith "--expr requires --extents"
      | Some s -> Parse.extents s
    in
    Parse.stmt formula ~extents

let select_arg =
  Arg.(value & opt (some string) None
       & info [ "select" ]
           ~doc:"Explicit loop selection (comma-separated iterator names) \
                 used with --matrix instead of a dataflow name.")

let matrix_arg =
  Arg.(value & opt (some string) None
       & info [ "matrix" ]
           ~doc:"Explicit STT matrix rows, e.g. \"1,0,0;0,1,0;1,1,1\".")

(* The design a dataflow name resolves to on workload [w].  A malformed
   name (no [-], a selection that is not 2 or 3 distinct iterators) is
   the caller's error, raised by [Search] before any sweep; it ends, like
   an unrealisable name, in the exit-2 validation error. *)
let design_of_name stmt w d =
  match Search.find_design stmt d with
  | Some design -> design
  | None -> failwith (Printf.sprintf "dataflow %s not realisable for %s" d w)
  | exception Invalid_argument msg -> failwith msg

(* [--select] as iterator indices and [--matrix] as integer rows; an
   unknown iterator or a malformed entry is a validation error *)
let selection_arg stmt sel =
  let iters = stmt.Stmt.iters in
  Array.of_list
    (List.map
       (fun name ->
         let name = String.trim name in
         match Iter.index_of iters name with
         | i -> i
         | exception Not_found ->
           failwith
             (Printf.sprintf "unknown iterator %S in --select %s; %s has %s"
                name sel stmt.Stmt.name
                (String.concat ", " (List.map (fun i -> i.Iter.name) iters))))
       (String.split_on_char ',' sel))

let matrix_rows m =
  List.map
    (fun row ->
      List.map
        (fun c ->
          match Parse.decimal (String.trim c) with
          | Some v -> v
          | None -> failwith (Printf.sprintf "bad entry %S in --matrix %s" c m))
        (String.split_on_char ',' row))
    (String.split_on_char ';' m)

let resolve ?expr ?extents ?select ?matrix w d =
  let stmt = workload_of expr extents w in
  match (select, matrix) with
  | Some sel, Some m -> (
    let selected = selection_arg stmt sel in
    match Transform.v stmt ~selected ~matrix:(matrix_rows m) with
    | t -> (stmt, Design.analyze t)
    | exception Invalid_argument msg ->
      failwith (Printf.sprintf "--select %s --matrix %s: %s" sel m msg))
  | Some _, None | None, Some _ ->
    failwith "--select and --matrix must be given together"
  | None, None -> (stmt, design_of_name stmt w d)

(* The input tensors of [stmt] with their sample data, after checking
   that every tensor of it fits [Dense.max_elements]: [Exec.alloc_inputs]
   and [Exec.run] would otherwise fail in [Dense.create]. *)
let alloc_inputs stmt =
  List.iter
    (fun (a : Access.t) ->
      let shape = Access.shape a stmt.Stmt.iters in
      if not (Dense.fits shape) then
        failwith
          (Printf.sprintf
             "tensor %s of shape %s has more elements than a tensor may hold \
              (%d)"
             a.Access.tensor
             (String.concat "x" (Array.to_list (Array.map string_of_int shape)))
             Dense.max_elements))
    (Stmt.tensors stmt);
  Exec.alloc_inputs stmt

let json_arg =
  Arg.(value & flag
       & info [ "json" ] ~doc:"Emit findings as JSON instead of text.")

let sarif_arg =
  Arg.(value & opt (some string) None
       & info [ "sarif" ]
           ~doc:"Also write the findings as a SARIF 2.1.0 document to FILE."
           ~docv:"FILE")

let write_sarif ~tool path findings =
  let oc = open_out path in
  output_string oc (Lint.Finding.to_sarif ~tool findings);
  close_out oc

let netlist_arg =
  Arg.(value & flag
       & info [ "netlist" ]
           ~doc:"Run the abstract-interpretation proof engine over the \
                 generated netlist (overflow / address / write-schedule \
                 proofs and a width-narrowing estimate) instead of the \
                 dataflow report; exits 1 if any safety rule is unproven.")

let data_bound_arg =
  Arg.(value & opt (some int) None
       & info [ "data-bound" ]
           ~doc:"With --netlist: assume input elements lie in [-N, N] \
                 instead of using the pre-loaded data memories, so proofs \
                 transfer to any DMA-loaded data within that bound.")

let analyze_cmd =
  let run w d expr extents select matrix netlist rows cols dw aw data_bound
      json sarif =
    guard @@ fun () ->
    let stmt, design = resolve ?expr ?extents ?select ?matrix w d in
    if netlist then begin
      validate_grid ~rows ~cols;
      validate_widths ~data_width:dw ~acc_width:aw;
      let env = alloc_inputs stmt in
      let acc =
        Accel.generate ~rows ~cols ~data_width:dw ~acc_width:aw design env
      in
      let r = Absint.Report.of_accel ?data_bound acc in
      if json then print_string (Absint.Report.to_json r)
      else Format.printf "%a@." Absint.Report.pp r;
      Option.iter
        (fun path ->
          write_sarif ~tool:"tensorlib-analyze" path
            r.Absint.Report.findings)
        sarif;
      if not r.Absint.Report.safe then exit 1
    end
    else begin
      Format.printf "%a@." Design.pp_report design;
      let inv = Inventory.of_design design in
      Format.printf "inventory (16x16): %a@.@." Inventory.pp inv;
      Format.printf "%a@." Topology.pp (Topology.describe design)
    end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Dataflow analysis report for a design; with --netlist, an \
             abstract-interpretation proof report over the generated \
             accelerator")
    Term.(const run $ workload_arg $ dataflow_arg $ expr_arg $ extents_arg
          $ select_arg $ matrix_arg $ netlist_arg $ rows_arg $ cols_arg
          $ data_width_arg $ acc_width_arg $ data_bound_arg $ json_arg
          $ sarif_arg)

let testbench_arg =
  Arg.(value & flag
       & info [ "testbench" ]
           ~doc:"Also emit a self-checking testbench (<output>_tb.v).")

let generate_cmd =
  let run w d rows cols dw aw out testbench expr extents =
    guard @@ fun () ->
    validate_grid ~rows ~cols;
    validate_widths ~data_width:dw ~acc_width:aw;
    let stmt, design = resolve ?expr ?extents w d in
    let env = alloc_inputs stmt in
    let acc =
      Accel.generate ~rows ~cols ~data_width:dw ~acc_width:aw design env
    in
    let v = Accel.verilog acc in
    (match out with
     | Some path ->
       let tb =
         if testbench then
           let expected = Exec.run stmt env in
           let tb_path =
             (try Filename.chop_extension path with Invalid_argument _ -> path)
             ^ "_tb.v"
           in
           [ (tb_path, Accel.verilog_testbench acc ~expected) ]
         else []
       in
       write_all ((path, v) :: tb);
       Printf.printf "wrote %s (%d bytes, %d cycles schedule, %d banks)\n"
         path (String.length v) acc.Accel.total_cycles
         (List.length acc.Accel.banks);
       List.iter
         (fun (tb_path, _) ->
           Printf.printf "wrote %s (self-checking testbench)\n" tb_path)
         tb
     | None ->
       print_string v;
       if testbench then begin
         let expected = Exec.run stmt env in
         print_string (Accel.verilog_testbench acc ~expected)
       end)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate the accelerator and emit Verilog")
    Term.(const run $ workload_arg $ dataflow_arg $ rows_arg $ cols_arg
          $ data_width_arg $ acc_width_arg $ out_arg $ testbench_arg
          $ expr_arg $ extents_arg)

let vcd_arg =
  Arg.(value & opt (some string) None
       & info [ "vcd" ] ~doc:"Dump a VCD waveform of the run to this file.")

let simulate_cmd =
  let run w d rows cols dw aw vcd_out backend_s expr extents select matrix =
    guard @@ fun () ->
    validate_grid ~rows ~cols;
    validate_widths ~data_width:dw ~acc_width:aw;
    let backend = Cli_backend.of_string backend_s in
    let stmt, design = resolve ?expr ?extents ?select ?matrix w d in
    let env = alloc_inputs stmt in
    let golden = Exec.run stmt env in
    let acc =
      Accel.generate ~rows ~cols ~data_width:dw ~acc_width:aw design env
    in
    (match vcd_out with
     | None -> ()
     | Some path ->
       let sim = Sim.create acc.Accel.circuit in
       let vcd = Vcd.create sim acc.Accel.circuit in
       Vcd.cycles vcd (acc.Accel.total_cycles + 1);
       Vcd.write_file path vcd;
       Format.printf "vcd       : %s@." path);
    let got = Accel.execute ~backend acc in
    let st = Circuit.stats acc.Accel.circuit in
    Format.printf "design    : %s@." design.Design.name;
    Format.printf "netlist   : %a@." Circuit.pp_stats st;
    Format.printf "crit path : %d delay units@."
      (Circuit.critical_path acc.Accel.circuit);
    Format.printf "cycles    : %d@." acc.Accel.total_cycles;
    Format.printf "result    : %s@."
      (if Dense.equal golden got then "MATCHES golden model"
       else "MISMATCH vs golden model");
    if not (Dense.equal golden got) then exit 1
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Cycle-accurate simulation checked against the golden executor")
    Term.(const run $ workload_arg $ dataflow_arg $ rows_arg $ cols_arg
          $ data_width_arg $ acc_width_arg $ vcd_arg $ backend_arg
          $ expr_arg $ extents_arg $ select_arg $ matrix_arg)

let perf_cmd =
  let run w d expr extents =
    guard @@ fun () ->
    let stmt = workload_of expr extents w in
    (* validates the name; [evaluate_name] then hits the memoised match *)
    ignore (design_of_name stmt w d);
    match Perf.evaluate_name stmt d with
    | Some r ->
      Format.printf "%a@." Perf.pp_result r;
      Format.printf "  pipelined: %.0f cycles (%.3f of peak)@."
        r.Perf.pipelined_cycles r.Perf.pipelined_perf
    | None -> failwith ("not realisable: " ^ d)
  in
  Cmd.v
    (Cmd.info "perf" ~doc:"Cycle model on the paper's 16x16 / 320MHz setup")
    Term.(const run $ workload_arg $ dataflow_arg $ expr_arg $ extents_arg)

let list_cmd =
  let run w =
    guard @@ fun () ->
    let stmt = workload_of_string w in
    let all = Search.all_designs stmt in
    Printf.printf "%d letter-distinct dataflows for %s:\n" (List.length all) w;
    List.iter (fun (name, _) -> Printf.printf "  %s\n" name) all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"Enumerate letter-distinct dataflow names")
    Term.(const run $ workload_arg)

let explore_cmd =
  let run w =
    guard @@ fun () ->
    let stmt = workload_of_string w in
    let points = Enumerate.design_space stmt in
    Printf.printf "%d distinct architectures\n" (List.length points);
    Printf.printf "%-14s %10s %10s\n" "design" "area" "power(mW)";
    let costed =
      List.map
        (fun p ->
          let r = Asic.evaluate p.Enumerate.design in
          (p, r))
        points
    in
    let front =
      Enumerate.pareto_min
        (fun (_, r) -> (r.Asic.area, r.Asic.power_mw))
        costed
    in
    List.iter
      (fun ((p : Enumerate.point), (r : Asic.report)) ->
        Printf.printf "%-14s %10.1f %10.1f%s\n" p.Enumerate.design.Design.name
          r.Asic.area r.Asic.power_mw
          (if List.exists (fun (q, _) -> q == p) front then "  *pareto*"
           else ""))
      (List.filteri (fun i _ -> i < 40) costed);
    if List.length costed > 40 then
      Printf.printf "... (%d more)\n" (List.length costed - 40)
  in
  Cmd.v
    (Cmd.info "explore" ~doc:"Design-space exploration with the ASIC model")
    Term.(const run $ workload_arg)

(* ---------------- lint ---------------- *)

let all_designs_arg =
  Arg.(value & flag
       & info [ "all" ]
           ~doc:"Also lint designs the netlist backend cannot realise \
                 (their L103/L105 findings are otherwise skipped along \
                 with generation).")

let suppress_arg =
  Arg.(value & opt string ""
       & info [ "suppress" ]
           ~doc:"Comma-separated rule IDs to suppress, e.g. L012,L104.")

let fanout_arg =
  Arg.(value & opt int 64
       & info [ "fanout-threshold" ]
           ~doc:"Fanout above which L012 reports a hotspot.")

let lint_dataflow_arg =
  Arg.(value & opt (some string) None
       & info [ "d"; "dataflow" ]
           ~doc:"Lint a single dataflow instead of every supported one.")

let lint_rows_arg =
  Arg.(value & opt int 16 & info [ "rows" ] ~doc:"PE array rows.")

let lint_cols_arg =
  Arg.(value & opt int 16 & info [ "cols" ] ~doc:"PE array columns.")

let hardened_arg =
  Arg.(value & flag
       & info [ "hardened" ]
           ~doc:"Lint the hardened (TMR + parity) variant of each design \
                 and check every writable memory bank has a parity \
                 companion (rule L015).")

let lint_cmd =
  let run w rows cols json sarif all suppress fanout d select matrix hardened
      =
    guard @@ fun () ->
    validate_grid ~rows ~cols;
    let stmt = workload_of_string w in
    let suppress =
      if suppress = "" then []
      else List.map String.trim (String.split_on_char ',' suppress)
    in
    let nconfig = { Lint.Netlist.suppress; fanout_threshold = fanout } in
    let findings = ref [] and checked = ref 0 and generated = ref 0 in
    let add fs = findings := !findings @ fs in
    let env = Exec.alloc_inputs stmt in
    let harden = if hardened then Harden.full else Harden.none in
    let lint_netlist (design : Design.t) =
      if Design.netlist_supported design then begin
        match Accel.generate ~rows ~cols ~harden design env with
        | exception Accel.Unsupported msg ->
          add
            (Lint.Finding.suppress ~rules:suppress
               [ Lint.Finding.v ~rule:"L106" ~target:design.Design.name
                   ~subject:"generator" msg ])
        | acc ->
          incr generated;
          add (Lint.Netlist.check_circuit ~config:nconfig acc.Accel.circuit);
          let table = Fault.table acc.Accel.circuit in
          add
            (Lint.Netlist.check_fault_surface ~config:nconfig
               ~injectable:(Fault.injectable_reg table) acc.Accel.circuit);
          if hardened then begin
            let pairs = acc.Accel.hardening.Harden.parity_pairs in
            let protected (r : Signal.ram) =
              List.exists
                (fun ((d : Signal.ram), (p : Signal.ram)) ->
                  d.Signal.ram_id = r.Signal.ram_id
                  || p.Signal.ram_id = r.Signal.ram_id)
                pairs
            in
            add
              (Lint.Netlist.check_hardening ~config:nconfig ~protected
                 acc.Accel.circuit)
          end
      end
    in
    let lint_design design =
      incr checked;
      add (Lint.Design.check_design ~rows ~cols ~suppress design);
      lint_netlist design
    in
    (match (select, matrix) with
     | Some sel, Some m ->
       let selected = selection_arg stmt sel in
       incr checked;
       let fs, design =
         Lint.Design.check_matrix ~rows ~cols ~suppress stmt ~selected
           ~matrix:(matrix_rows m)
       in
       add fs;
       Option.iter lint_netlist design
     | Some _, None | None, Some _ ->
       failwith "--select and --matrix must be given together"
     | None, None -> (
       match d with
       | Some name -> lint_design (design_of_name stmt w name)
       | None ->
         let designs = Search.all_designs stmt in
         let designs =
           if all then designs
           else
             List.filter
               (fun (_, dd) -> Design.netlist_supported dd)
               designs
         in
         List.iter (fun (_, dd) -> lint_design dd) designs));
    if json then print_string (Lint.Finding.to_json !findings)
    else begin
      Format.printf "%a@." Lint.Finding.pp_report !findings;
      Printf.printf "lint: %d design(s) checked, %d netlist(s) generated\n"
        !checked !generated
    end;
    Option.iter
      (fun path -> write_sarif ~tool:"tensorlib-lint" path !findings)
      sarif;
    if Lint.Finding.has_errors !findings then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static analysis over every supported design of a workload: \
             STT validity rules plus netlist rules on the generated \
             accelerators; exits non-zero on any error-severity finding")
    Term.(const run $ workload_arg $ lint_rows_arg $ lint_cols_arg
          $ json_arg $ sarif_arg $ all_designs_arg $ suppress_arg
          $ fanout_arg $ lint_dataflow_arg $ select_arg $ matrix_arg
          $ hardened_arg)

(* ---------------- fault ---------------- *)

let harden_of_string = function
  | "none" -> Harden.none
  | "tmr" -> Harden.tmr_only
  | "parity" -> Harden.parity_only
  | "full" -> Harden.full
  | s ->
    failwith
      (Printf.sprintf
         "unknown hardening level %S; valid: none, tmr, parity, full" s)

let trials_arg =
  Arg.(value & opt int 1000
       & info [ "trials" ] ~doc:"Number of fault injections.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign RNG seed.")

let harden_arg =
  Arg.(value & opt string "none"
       & info [ "harden" ]
           ~doc:"Hardening level: none, tmr, parity or full (tmr+parity).")

let abft_arg =
  Arg.(value & flag
       & info [ "abft" ]
           ~doc:"Run the checksum-augmented (ABFT) problem and verify \
                 row/column checksums of faulty outputs (GEMM-class \
                 workloads only).")

let fault_cmd =
  let run w d rows cols dw aw trials seed harden_s abft backend_s json =
    guard @@ fun () ->
    validate_grid ~rows ~cols;
    validate_widths ~data_width:dw ~acc_width:aw;
    require_positive "--trials" trials;
    let harden = harden_of_string harden_s in
    let backend = Cli_backend.of_string backend_s in
    let stmt = workload_of_string w in
    let env = Exec.alloc_inputs stmt in
    let stmt, env =
      if not abft then (stmt, env)
      else
        match Abft.augment stmt env with
        | Some (s, e) -> (s, e)
        | None ->
          failwith
            (Printf.sprintf
               "--abft: workload %s is not a GEMM-class statement \
                (C[m,n] += A[m,k] * B[n,k])"
               w)
    in
    let design = design_of_name stmt w d in
    let generate harden =
      Accel.generate ~rows ~cols ~data_width:dw ~acc_width:aw ~harden design
        env
    in
    let acc = generate harden in
    let config =
      { Campaign.default_config with trials; seed; backend; abft }
    in
    let report = Campaign.run ~config acc in
    let overhead =
      if Harden.is_none harden then None
      else begin
        let base = generate Harden.none in
        let cb = Asic.evaluate_netlist base.Accel.circuit in
        let ch = Asic.evaluate_netlist acc.Accel.circuit in
        let pct f b = 100.0 *. (f -. b) /. b in
        Some (pct ch.Asic.area cb.Asic.area, pct ch.Asic.power_mw cb.Asic.power_mw)
      end
    in
    if json then begin
      let extra =
        match overhead with
        | None -> []
        | Some (area, power) ->
          [ ("hardening_overhead",
             Json.Obj
               [ ("area_pct", Json.Num area); ("power_pct", Json.Num power) ])
          ]
      in
      print_endline (Json.to_string (Campaign.to_json ~extra report))
    end
    else begin
      Format.printf "%a" Campaign.pp report;
      match overhead with
      | None -> ()
      | Some (area, power) ->
        Format.printf "hardening overhead vs baseline: area %+.2f%%, \
                       power %+.2f%%@."
          area power
    end
  in
  Cmd.v
    (Cmd.info "fault"
       ~doc:"Fault-injection campaign: inject seeded bit-flips / stuck-at \
             faults into the simulated accelerator, classify each trial \
             as masked, detected, hang or SDC, and report per-module \
             vulnerability (plus ASIC-model overhead when hardened)")
    Term.(const run $ workload_arg $ dataflow_arg $ rows_arg $ cols_arg
          $ data_width_arg $ acc_width_arg $ trials_arg $ seed_arg
          $ harden_arg $ abft_arg $ backend_arg $ json_arg)

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ]
           ~doc:"Write a Chrome trace_event JSON file (chrome://tracing / \
                 Perfetto) spanning the generate / simulate / probe phases.")

let profile_cmd =
  let run w d rows cols dw aw backend_s json trace_file =
    guard @@ fun () ->
    validate_grid ~rows ~cols;
    validate_widths ~data_width:dw ~acc_width:aw;
    (* the counter cross-check and activity-measured power probe scalar
       tape state; the flag stays so scripts passing --backend tape work *)
    ignore (Cli_backend.of_string ~allowed:[ "tape" ] backend_s);
    let stmt = workload_of_string w in
    let env = Exec.alloc_inputs stmt in
    let design = design_of_name stmt w d in
    let trace = Obs.Trace.create () in
    let clock = Unix.gettimeofday in
    let span name f = Obs.Trace.span trace ~clock ~cat:"profile" ~name f in
    let acc =
      span "generate" @@ fun () ->
      Accel.generate ~rows ~cols ~data_width:dw ~acc_width:aw ~counters:true
        design env
    in
    let validation =
      span "validate-counters" @@ fun () -> Obs.Counters.validate acc
    in
    let power =
      span "measure-power" @@ fun () -> Obs.Power.measure acc
    in
    (match trace_file with
     | None -> ()
     | Some path -> Obs.Trace.write_file path trace);
    if json then
      print_endline
        (Json.to_string
           (Json.Obj
              [ ("schema", Json.Str "tensorlib-profile/1");
                ("counters", Obs.Counters.to_json validation);
                ("power", Obs.Power.to_json power) ]))
    else begin
      Format.printf "%a@." Obs.Counters.pp validation;
      Format.printf "%a@." Obs.Power.pp power
    end;
    if not validation.Obs.Counters.v_ok then exit 1
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Observability run: generate with hardware performance counters, \
             simulate to completion, cross-check every counter read-out \
             against the analytic performance model, and report power under \
             assumed vs measured activity (exit 1 on any counter mismatch)")
    Term.(const run $ workload_arg $ dataflow_arg $ rows_arg $ cols_arg
          $ data_width_arg $ acc_width_arg $ backend_arg $ json_arg
          $ trace_arg)

(* ---------------- compile ---------------- *)

let headroom_arg =
  Arg.(value & opt int 4
       & info [ "headroom" ]
           ~doc:"Capacity envelope multiplier: descriptor memories are \
                 sized to N times the target design's natural schedule.")

let run_check_arg =
  Arg.(value & flag
       & info [ "run" ]
           ~doc:"Also execute the program on the programmable netlist and \
                 check the output bit-identical against both the golden \
                 executor and a freshly generated ROM accelerator (exit 1 \
                 on mismatch).")

let compile_cmd =
  let run w d rows cols dw aw headroom expr extents out run_check backend_s =
    guard @@ fun () ->
    validate_grid ~rows ~cols;
    validate_widths ~data_width:dw ~acc_width:aw;
    require_positive "--headroom" headroom;
    ignore (Cli_backend.of_string ~allowed:[ "tape" ] backend_s);
    (* the target netlist comes from the named workload + dataflow; the
       request einsum from --expr/--extents (default: the target itself) *)
    let _, tdesign = resolve w d in
    let target, envelope =
      Compile.target ~rows ~cols ~data_width:dw ~acc_width:aw ~headroom
        tdesign
    in
    let rstmt = workload_of expr extents w in
    match Compile.find_design ~target rstmt with
    | Error rejections ->
      List.iter
        (fun (name, e) ->
          Printf.eprintf "  %-14s %s\n" name (Compile.error_to_string e))
        rejections;
      failwith
        (Printf.sprintf
           "no dataflow of %s compiles onto the %s target (%d candidates \
            rejected, reasons above)"
           rstmt.Stmt.name tdesign.Design.name
           (List.length rejections))
    | Ok (rdesign, program) ->
      let doc = Compile.program_to_json program in
      let est =
        Perf.estimate_program ~rows ~cols program
      in
      (match out with
       | Some path ->
         let oc = open_out path in
         output_string oc doc;
         output_char oc '\n';
         close_out oc;
         Printf.printf "wrote %s (%d bytes)\n" path (String.length doc)
       | None -> print_endline doc);
      Printf.eprintf
        "compiled %s as %s onto %s (envelope %d cycles / %d passes); %d \
         descriptor words, %d cycles, %d macs\n"
        rstmt.Stmt.name rdesign.Design.name tdesign.Design.name
        envelope.Layout.env_cycles envelope.Layout.env_passes
        est.Perf.pe_program_words est.Perf.pe_cycles est.Perf.pe_macs;
      if run_check then begin
        let renv = Exec.alloc_inputs rstmt in
        let golden = Exec.run rstmt renv in
        let got = Accel.execute_program target program renv in
        let rom =
          Accel.generate ~rows ~cols ~data_width:dw ~acc_width:aw rdesign
            renv
        in
        let rom_out = Accel.execute rom in
        let ok_golden = Dense.equal got golden in
        let ok_rom = Dense.equal got rom_out in
        Printf.printf "programmed run : %s golden model\n"
          (if ok_golden then "MATCHES" else "MISMATCH vs");
        Printf.printf "ROM differential: %s per-shape ROM build\n"
          (if ok_rom then "MATCHES" else "MISMATCH vs");
        if not (ok_golden && ok_rom) then exit 1
      end
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile an einsum onto an already-generated programmable \
             netlist: generate the target (workload + dataflow, schedule \
             tables in writable descriptor memories sized by --headroom), \
             re-run scheduling in software for the request (--expr / \
             --extents), and emit the descriptor program as JSON; with \
             --run, execute it and differential-check against the golden \
             executor and a per-shape ROM build.")
    Term.(const run $ workload_arg $ dataflow_arg $ rows_arg $ cols_arg
          $ data_width_arg $ acc_width_arg $ headroom_arg $ expr_arg
          $ extents_arg $ out_arg $ run_check_arg $ backend_arg)

(* ---------------- sweep / serve ---------------- *)

let store_of_path = function
  | None -> Store.open_store ()
  | Some dir ->
    let parent = Filename.dirname dir in
    if not (Sys.file_exists parent && Sys.is_directory parent) then
      failwith
        (Printf.sprintf
           "--store: parent directory %S does not exist (create it first)"
           parent);
    Store.open_store ~root:dir ()

let print_report_text (r : Network.report) =
  List.iter
    (fun (l : Network.layer) ->
      match l.Network.l_best with
      | None when l.Network.l_degraded ->
        Printf.printf "%-12s DEGRADED  estimate only: %10.0f cyc\n"
          l.Network.l_name
          (Option.value l.Network.l_est_cycles ~default:0.)
      | None ->
        Printf.printf "%-12s %s  no evaluable design point\n" l.Network.l_name
          (if l.Network.l_hit then "hit " else "miss")
      | Some p ->
        Printf.printf
          "%-12s %s  %6d pts  %3d pareto  best %-12s %10.0f cyc %8.1f mW\n"
          l.Network.l_name
          (if l.Network.l_hit then "hit " else "miss")
          l.Network.l_points
          (List.length l.Network.l_frontier)
          p.Network.p_perf.Perf.design_name p.Network.p_perf.Perf.cycles
          p.Network.p_power)
    r.Network.r_layers;
  Printf.printf
    "network %s: %d layers, %d unique shapes, %d points, store hit rate \
     %.0f%%\n"
    r.Network.r_network
    (List.length r.Network.r_layers)
    r.Network.r_unique_shapes r.Network.r_points
    (100. *. r.Network.r_hit_rate);
  Printf.printf
    "totals (per-layer winners): %.0f cycles, %.1f us, area %.0f, %.1f mW\n"
    r.Network.r_total_cycles r.Network.r_total_runtime_us
    r.Network.r_total_area r.Network.r_total_power;
  if not r.Network.r_complete then
    Printf.printf
      "PARTIAL result: %d of %d unique shapes degraded to estimates (budget \
       expired or fault injected); totals include per-layer estimates\n"
      r.Network.r_degraded_shapes r.Network.r_unique_shapes;
  Printf.printf "result digest: %s\n" r.Network.r_digest

let network_arg =
  let doc = "Network to sweep: resnet18, bert-base or tiny." in
  Arg.(value & opt string "resnet18" & info [ "n"; "network" ] ~doc)

let store_arg =
  Arg.(value & opt (some string) None
       & info [ "store" ]
           ~doc:"Persistent design-store directory (created on first use; \
                 parent must exist).  Omit for an in-memory store."
           ~docv:"DIR")

let limit_arg =
  Arg.(value & opt (some int) None
       & info [ "limit" ]
           ~doc:"Evaluate at most N design points per unique shape (the cap \
                 is part of the store key).")

let deadline_ms_arg =
  Arg.(value & opt (some int) None
       & info [ "deadline-ms" ]
           ~doc:"Wall-clock budget in milliseconds.  On expiry the sweep \
                 returns a PARTIAL result: Pareto frontiers for completed \
                 shapes, estimate-only fallbacks (flagged degraded) for the \
                 rest."
           ~docv:"MS")

let budget_checks_arg =
  Arg.(value & opt (some int) None
       & info [ "budget-checks" ]
           ~doc:"Deterministic work budget: the sweep stops after N \
                 cooperative budget polls (useful for reproducible partial \
                 results in tests; deterministic at pool width 1)."
           ~docv:"N")

let budget_of ~deadline_ms ~budget_checks =
  require_positive_opt "--deadline-ms" deadline_ms;
  require_positive_opt "--budget-checks" budget_checks;
  match (deadline_ms, budget_checks) with
  | Some _, Some _ -> failwith "--deadline-ms and --budget-checks conflict"
  | Some ms, None ->
    Tensorlib.Resil.Budget.of_seconds (float_of_int ms /. 1000.)
  | None, Some n -> Tensorlib.Resil.Budget.of_checks n
  | None, None -> Tensorlib.Resil.Budget.unlimited

let sweep_cmd =
  let run name store_dir limit json deadline_ms budget_checks =
    guard @@ fun () ->
    require_positive_opt "--limit" limit;
    let budget = budget_of ~deadline_ms ~budget_checks in
    let layers = Network.find name in
    let store = store_of_path store_dir in
    let progress =
      if json then None
      else
        Some
          (fun (p : Network.progress) ->
            Printf.eprintf "[%d/%d] %-12s %s\n%!" p.Network.pr_done
              p.Network.pr_total p.Network.pr_layer
              (if p.Network.pr_hit then
                 Printf.sprintf "hit  (%d points)" p.Network.pr_points
               else Printf.sprintf "computed %d points" p.Network.pr_points))
    in
    let r =
      Network.sweep ?per_shape_limit:limit ?progress ~budget ~store ~name
        layers
    in
    if json then print_endline (Json.to_string (Network.to_json r))
    else print_report_text r
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Whole-network design-space sweep through the persistent design \
             store: dedup layers by canonical shape, enumerate + evaluate \
             each unique shape once (or load it from the store), report \
             per-layer Pareto winners and network totals.  Budgets \
             (--deadline-ms / --budget-checks) degrade gracefully to \
             PARTIAL results; running the same sweep again with the same \
             --store resumes an interrupted one, its finished shapes \
             served from the store.")
    Term.(const run $ network_arg $ store_arg $ limit_arg $ json_arg
          $ deadline_ms_arg $ budget_checks_arg)

(* serve: one JSON request per stdin line ({!Serve.handle}), one answer
   line per request on stdout, and a stats line on stderr at EOF. *)

(* Bounded request reader: the server never buffers more than the cap no
   matter what arrives on stdin. *)
type bounded_line =
  | Line of string  (* complete newline-terminated line *)
  | Last of string  (* final line, terminated by EOF instead of '\n' *)
  | Oversized  (* line exceeded the cap; the rest was drained *)
  | Eof  (* clean EOF at a line boundary (or stdin I/O error) *)

let read_bounded_line ~max_bytes ic =
  let buf = Buffer.create 256 in
  let rec drain () =
    match input_char ic with
    | exception (End_of_file | Sys_error _) -> ()
    | '\n' -> ()
    | _ -> drain ()
  in
  let rec go n =
    match input_char ic with
    | exception End_of_file ->
      if Buffer.length buf = 0 then Eof else Last (Buffer.contents buf)
    | exception Sys_error _ -> Eof (* stdin broke: shut down cleanly *)
    | '\n' -> Line (Buffer.contents buf)
    | _ when n >= max_bytes -> drain (); Oversized
    | c ->
      Buffer.add_char buf c;
      go (n + 1)
  in
  go 0

let serve_cmd =
  let run store_dir limit max_request_bytes deadline_ms accel_w accel_d
      accel_rows accel_cols headroom =
    guard @@ fun () ->
    require_positive_opt "--limit" limit;
    require_positive "--max-request-bytes" max_request_bytes;
    require_positive_opt "--deadline-ms" deadline_ms;
    require_positive "--headroom" headroom;
    let target =
      Option.map
        (fun w ->
          validate_grid ~rows:accel_rows ~cols:accel_cols;
          let _, design = resolve w accel_d in
          fst
            (Compile.target ~rows:accel_rows ~cols:accel_cols ~data_width:16
               ~acc_width:32 ~headroom design))
        accel_w
    in
    let server =
      Serve.create ?limit ?deadline_ms ?target (store_of_path store_dir)
    in
    let served = ref 0 in
    let errors = ref 0 in
    let respond (a : Serve.answer) =
      incr served;
      if not a.Serve.ok then incr errors;
      a.Serve.write stdout;
      print_newline ()
    in
    let oversized =
      Serve.refuse
        (Printf.sprintf "request exceeds --max-request-bytes=%d"
           max_request_bytes)
    in
    let shutdown () =
      let hits, misses = Serve.compile_cache server in
      Printf.eprintf
        "serve: shutdown after %d responses (%d errors; compile cache %d \
         hits, %d misses)\n%!"
        !served !errors hits misses
    in
    let handle line = respond (Serve.handle server line) in
    let rec loop () =
      match read_bounded_line ~max_bytes:max_request_bytes stdin with
      | Eof -> shutdown ()
      | Oversized -> respond oversized; loop ()
      | Line line when String.trim line = "" -> loop ()
      | Line line -> handle line; loop ()
      | Last line ->
        (* mid-line EOF: answer the partial line, then shut down *)
        if String.trim line <> "" then handle line;
        shutdown ()
    in
    loop ()
  in
  let max_request_bytes_arg =
    Arg.(value & opt int 65536
         & info [ "max-request-bytes" ]
             ~doc:"Cap on one request line; longer lines are drained and \
                   answered with a structured error without stopping the \
                   server."
             ~docv:"BYTES")
  in
  let serve_deadline_arg =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ]
             ~doc:"Per-request budget in milliseconds; a request that \
                   cannot finish in time answers {\"ok\": false, \
                   \"error\": \"deadline\"} and the server keeps serving."
             ~docv:"MS")
  in
  let accel_workload_arg =
    Arg.(value & opt (some string) None
         & info [ "accel-workload" ]
             ~doc:"Stand up one programmable netlist at startup (generated \
                   from this workload and --accel-dataflow) and serve \
                   {\"einsum\", \"extents\"} requests against it: each is \
                   compiled to a descriptor program, run on the standing \
                   simulator, golden-verified and answered with the \
                   program document.")
  in
  let accel_dataflow_arg =
    Arg.(value & opt string "MNK-SST"
         & info [ "accel-dataflow" ]
             ~doc:"Dataflow of the standing programmable netlist.")
  in
  let accel_rows_arg =
    Arg.(value & opt int 4
         & info [ "accel-rows" ]
             ~doc:"Rows of the standing programmable netlist.")
  in
  let accel_cols_arg =
    Arg.(value & opt int 4
         & info [ "accel-cols" ]
             ~doc:"Columns of the standing programmable netlist.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-running sweep server: read one JSON request per stdin \
             line ({\"id\", \"network\"} or {\"id\", \"expr\", \
             \"extents\"}), answer each with the sweep roll-up from the \
             warm store plus per-request hit counts; with \
             --accel-workload, {\"id\", \"einsum\", \"extents\"} requests \
             are compiled onto a standing programmable netlist and \
             answered with a golden-verified descriptor program.  \
             Malformed or oversized requests get {\"ok\": false} \
             responses and the loop continues.  EOF (even mid-line) shuts \
             down cleanly with a final stats line on stderr and exit \
             status 0.")
    Term.(const run $ store_arg $ limit_arg $ max_request_bytes_arg
          $ serve_deadline_arg $ accel_workload_arg $ accel_dataflow_arg
          $ accel_rows_arg $ accel_cols_arg $ headroom_arg)

let () =
  let info =
    Cmd.info "tensorlib" ~version:Tensorlib.version
      ~doc:"Spatial accelerator generation for tensor algebra (DAC'21)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ analyze_cmd; generate_cmd; simulate_cmd; perf_cmd; list_cmd;
            explore_cmd; lint_cmd; fault_cmd; profile_cmd; compile_cmd;
            sweep_cmd; serve_cmd ]))
