(* Rule-based static analysis: finding core, netlist rules, design rules.

   Every rule gets at least one positive (fires) and one negative (stays
   quiet) case; the suite ends with the acceptance gate — every supported
   design of the fast small workloads elaborates lint-clean — and an
   exit-code check on the CLI. *)

open Tensorlib
open Signal

let rules fs = List.map (fun (f : Lint.Finding.t) -> f.Lint.Finding.rule) fs
let has_rule r fs = List.mem r (rules fs)

let count_rule r fs =
  List.length (List.filter (fun (f : Lint.Finding.t) -> f.Lint.Finding.rule = r) fs)

let check outs =
  Lint.Netlist.check_circuit (Circuit.create ~name:"t" ~outputs:outs)

let check_src ?config ?roots ?declared_inputs outs =
  Lint.Netlist.check_source ?config
    (Lint.Netlist.source ?roots ?declared_inputs ~name:"t" outs)

(* ---------------- finding core ---------------- *)

let test_finding_defaults () =
  let f = Lint.Finding.v ~rule:"L009" ~target:"c" ~subject:"s" "m" in
  Alcotest.(check bool) "catalog severity" true
    (f.Lint.Finding.severity = Lint.Finding.Error);
  let f2 = Lint.Finding.v ~rule:"L003" ~target:"c" ~subject:"s" "m" in
  Alcotest.(check bool) "warning default" true
    (f2.Lint.Finding.severity = Lint.Finding.Warning);
  let f3 =
    Lint.Finding.v ~rule:"L003" ~severity:Lint.Finding.Info ~target:"c"
      ~subject:"s" "m"
  in
  Alcotest.(check bool) "override wins" true
    (f3.Lint.Finding.severity = Lint.Finding.Info);
  (* the catalog is complete and in ID order *)
  let ids = List.map (fun r -> r.Lint.Finding.id) Lint.Finding.catalog in
  Alcotest.(check bool) "sorted ids" true (List.sort compare ids = ids);
  Alcotest.(check bool) "l001 catalogued" true
    (Lint.Finding.rule_info "L001" <> None);
  Alcotest.(check bool) "unknown rule" true
    (Lint.Finding.rule_info "L999" = None)

let test_finding_suppress_count () =
  let f r = Lint.Finding.v ~rule:r ~target:"c" ~subject:"s" "m" in
  let fs = [ f "L009"; f "L003"; f "L012" ] in
  Alcotest.(check bool) "has errors" true (Lint.Finding.has_errors fs);
  let e, w, i = Lint.Finding.count fs in
  Alcotest.(check (list int)) "counts" [ 1; 1; 1 ] [ e; w; i ];
  let kept = Lint.Finding.suppress ~rules:[ "L009"; "L012" ] fs in
  Alcotest.(check (list string)) "suppressed" [ "L003" ] (rules kept);
  Alcotest.(check bool) "errors gone" false (Lint.Finding.has_errors kept)

let contains hay sub =
  let n = String.length sub and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = sub || go (i + 1)) in
  go 0

let test_finding_report_json () =
  let f r s = Lint.Finding.v ~rule:r ~target:"c" ~subject:s "say \"hi\"" in
  let fs = [ f "L012" "a"; f "L009" "b" ] in
  let report = Format.asprintf "%a" Lint.Finding.pp_report fs in
  Alcotest.(check bool) "summary line" true
    (contains report "1 error, 0 warnings, 1 info");
  let j = Lint.Finding.to_json fs in
  Alcotest.(check bool) "escaped quotes" true (contains j "say \\\"hi\\\"");
  Alcotest.(check bool) "error count" true (contains j "\"errors\":1");
  (* errors sort first *)
  let sorted = List.sort Lint.Finding.compare fs in
  Alcotest.(check string) "errors first" "L009"
    (List.hd sorted).Lint.Finding.rule

(* ---------------- netlist rules ---------------- *)

let test_l001_unassigned_wire () =
  let x = input "x" 8 in
  let dangling = wire 8 in
  let fs, c = check_src [ ("o", x +: dangling) ] in
  Alcotest.(check bool) "fires" true (has_rule "L001" fs);
  Alcotest.(check bool) "error severity" true (Lint.Finding.has_errors fs);
  Alcotest.(check bool) "no circuit" true (c = None);
  let ok = wire 8 in
  assign ok x;
  let fs, c = check_src [ ("o", x +: ok) ] in
  Alcotest.(check bool) "quiet" false (has_rule "L001" fs);
  Alcotest.(check bool) "circuit built" true (c <> None)

let test_l002_comb_cycle () =
  let x = input "x" 8 in
  let loop = wire 8 in
  assign loop (x +: loop);
  let fs, c = check_src [ ("o", loop) ] in
  Alcotest.(check bool) "fires" true (has_rule "L002" fs);
  Alcotest.(check bool) "no circuit" true (c = None);
  (* a register breaks the cycle *)
  let w = wire 8 in
  let q = reg w in
  assign w (q +: x);
  let fs, c = check_src [ ("o", q) ] in
  Alcotest.(check bool) "quiet" false (has_rule "L002" fs);
  Alcotest.(check bool) "circuit built" true (c <> None)

let test_l003_frozen_register () =
  let fs = check [ ("q", reg ~init:7 (const ~width:8 7)) ] in
  Alcotest.(check int) "fires" 1 (count_rule "L003" fs);
  (* init differs: the register changes value once, not frozen *)
  let fs = check [ ("q", reg ~init:0 (const ~width:8 7)) ] in
  Alcotest.(check bool) "quiet on init mismatch" false (has_rule "L003" fs);
  (* a clear to a different value can still change the register *)
  let clr = input "clr" 1 in
  let fs =
    check [ ("q", reg ~clear:clr ~clear_to:3 ~init:7 (const ~width:8 7)) ]
  in
  Alcotest.(check bool) "quiet when clear differs" false (has_rule "L003" fs)

let test_l004_mux_identical_branches () =
  let x = input "x" 8 and y = input "y" 8 in
  let fs = check [ ("o", mux2 (bit x 0) y y) ] in
  Alcotest.(check int) "fires" 1 (count_rule "L004" fs);
  (* identical through a wire alias *)
  let w = wire 8 in
  assign w y;
  let fs = check [ ("o", mux2 (bit x 0) w y) ] in
  Alcotest.(check int) "fires through alias" 1 (count_rule "L004" fs);
  let fs = check [ ("o", mux2 (bit x 0) x y) ] in
  Alcotest.(check bool) "quiet" false (has_rule "L004" fs)

let test_l005_mux_constant_select () =
  let x = input "x" 8 and y = input "y" 8 in
  let fs = check [ ("o", mux2 vdd x y) ] in
  Alcotest.(check int) "fires" 1 (count_rule "L005" fs);
  let fs = check [ ("o", mux2 (bit x 0) x y) ] in
  Alcotest.(check bool) "quiet" false (has_rule "L005" fs)

let test_l006_constant_enable () =
  let x = input "x" 8 in
  let fs =
    check [ ("a", reg ~enable:gnd x); ("b", reg ~enable:vdd x) ]
  in
  Alcotest.(check int) "both fire" 2 (count_rule "L006" fs);
  let fs = check [ ("q", reg ~enable:(bit x 0) x) ] in
  Alcotest.(check bool) "quiet" false (has_rule "L006" fs)

let test_l007_constant_clear () =
  let x = input "x" 8 in
  let fs = check [ ("q", reg ~clear:vdd ~clear_to:3 x) ] in
  Alcotest.(check int) "fires" 1 (count_rule "L007" fs);
  let fs = check [ ("q", reg ~clear:(bit x 0) ~clear_to:3 x) ] in
  Alcotest.(check bool) "quiet" false (has_rule "L007" fs)

let test_l008_writeless_ram () =
  let a = input "a" 2 in
  let r = ram ~size:4 ~width:8 ~init:(Array.make 4 0) () in
  let fs = check [ ("o", ram_read r a) ] in
  Alcotest.(check int) "fires" 1 (count_rule "L008" fs);
  (* a rom is read-only by construction *)
  let fs = check [ ("o", ram_read (rom ~width:8 [| 1; 2; 3; 4 |]) a) ] in
  Alcotest.(check bool) "rom quiet" false (has_rule "L008" fs);
  (* a written ram is fine *)
  let r = ram ~size:4 ~width:8 ~init:(Array.make 4 0) () in
  ram_write r ~we:(bit a 0) ~addr:a ~data:(uresize a 8);
  let fs = check [ ("o", ram_read r a) ] in
  Alcotest.(check bool) "written quiet" false (has_rule "L008" fs)

let test_l009_ram_address_out_of_range () =
  let x = input "x" 8 in
  let r = rom ~width:8 [| 1; 2; 3 |] in
  let fs = check [ ("o", ram_read r (const ~width:2 3)) ] in
  Alcotest.(check int) "read fires" 1 (count_rule "L009" fs);
  Alcotest.(check bool) "error severity" true (Lint.Finding.has_errors fs);
  (* constant write address *)
  let rw = ram ~size:3 ~width:8 ~init:(Array.make 3 0) () in
  ram_write rw ~we:(bit x 0) ~addr:(const ~width:2 3) ~data:x;
  let fs = check [ ("o", ram_read rw (select x ~hi:1 ~lo:0)) ] in
  Alcotest.(check int) "write fires" 1 (count_rule "L009" fs);
  let fs = check [ ("o", ram_read r (const ~width:2 2)) ] in
  Alcotest.(check bool) "in range quiet" false (has_rule "L009" fs)

let test_l010_l011_unreachable () =
  let x = input "x" 8 and y = input "y" 8 in
  let stray_reg = reg (x *: y) -- "orphan_acc" in
  let fs, _ = check_src ~roots:[ stray_reg ] [ ("o", x +: y) ] in
  Alcotest.(check int) "cone reported" 1 (count_rule "L010" fs);
  Alcotest.(check int) "register reported" 1 (count_rule "L011" fs);
  (* a root inside the output cone is quiet *)
  let shared = x +: y in
  let fs, _ = check_src ~roots:[ shared ] [ ("o", shared) ] in
  Alcotest.(check bool) "quiet" false
    (has_rule "L010" fs || has_rule "L011" fs)

let test_l012_fanout_hotspot () =
  let x = input "x" 8 and y = input "y" 8 in
  let outs =
    List.init 4 (fun i -> (Printf.sprintf "o%d" i, x +: uresize (bit y i) 8))
  in
  let config = { Lint.Netlist.default_config with fanout_threshold = 2 } in
  let fs, _ = check_src ~config outs in
  Alcotest.(check bool) "fires above threshold" true (has_rule "L012" fs);
  let fs, _ = check_src outs in
  Alcotest.(check bool) "default threshold quiet" false (has_rule "L012" fs)

let test_l013_unused_input () =
  let x = input "x" 8 in
  let fs, _ =
    check_src ~declared_inputs:[ ("x", 8); ("spare", 4) ] [ ("o", x) ]
  in
  Alcotest.(check int) "unused fires" 1 (count_rule "L013" fs);
  let fs, _ = check_src ~declared_inputs:[ ("x", 16) ] [ ("o", x) ] in
  Alcotest.(check int) "width mismatch fires" 1 (count_rule "L013" fs);
  let fs, _ = check_src ~declared_inputs:[ ("x", 8) ] [ ("o", x) ] in
  Alcotest.(check bool) "quiet" false (has_rule "L013" fs)

(* ---------------- design rules ---------------- *)

let gemm = Workloads.gemm ~m:4 ~n:4 ~k:4
let identity = [ [ 1; 0; 0 ]; [ 0; 1; 0 ]; [ 0; 0; 1 ] ]

let test_l100_malformed () =
  let fs, d =
    Lint.Design.check_matrix gemm ~selected:[| 0; 0; 1 |] ~matrix:identity
  in
  Alcotest.(check bool) "duplicate selection" true (has_rule "L100" fs);
  Alcotest.(check bool) "no design" true (d = None);
  let fs, _ =
    Lint.Design.check_matrix gemm ~selected:[| 0; 1; 2 |]
      ~matrix:[ [ 1; 0 ]; [ 0; 1 ] ]
  in
  Alcotest.(check bool) "shape mismatch" true (has_rule "L100" fs);
  let fs, _ =
    Lint.Design.check_matrix gemm ~selected:[| 0; 1; 7 |] ~matrix:identity
  in
  Alcotest.(check bool) "out of range" true (has_rule "L100" fs);
  let fs, d =
    Lint.Design.check_matrix gemm ~selected:[| 0; 1; 2 |] ~matrix:identity
  in
  Alcotest.(check bool) "quiet" false (has_rule "L100" fs);
  Alcotest.(check bool) "design built" true (d <> None)

let test_l101_singular () =
  let fs, d =
    Lint.Design.check_matrix gemm ~selected:[| 0; 1; 2 |]
      ~matrix:[ [ 1; 0; 0 ]; [ 0; 1; 0 ]; [ 1; 1; 0 ] ]
  in
  Alcotest.(check bool) "fires" true (has_rule "L101" fs);
  Alcotest.(check bool) "error severity" true (Lint.Finding.has_errors fs);
  Alcotest.(check bool) "no design" true (d = None);
  (* det 2^63 wraps to 0; its rank is not decided, not called singular *)
  let fs, d =
    Lint.Design.check_matrix gemm ~selected:[| 0; 1; 2 |]
      ~matrix:[ [ 1 lsl 31; 0; 0 ]; [ 0; 1 lsl 32; 0 ]; [ 0; 0; 1 ] ]
  in
  Alcotest.(check (list string)) "determinant overflow"
    [ "L101: the determinant of the STT matrix overflows a native int" ]
    (List.map
       (fun f -> f.Lint.Finding.rule ^ ": " ^ f.Lint.Finding.message)
       fs);
  Alcotest.(check bool) "no design either" true (d = None);
  let fs, _ =
    Lint.Design.check_matrix gemm ~selected:[| 0; 1; 2 |] ~matrix:identity
  in
  Alcotest.(check bool) "quiet" false (has_rule "L101" fs)

let identity_design =
  Design.analyze (Transform.v gemm ~selected:[| 0; 1; 2 |] ~matrix:identity)

let test_l102_pe_bounds () =
  let fs = Lint.Design.check_design ~rows:2 ~cols:2 identity_design in
  Alcotest.(check bool) "fires on 2x2" true (has_rule "L102" fs);
  let fs = Lint.Design.check_design ~rows:16 ~cols:16 identity_design in
  Alcotest.(check bool) "quiet on 16x16" false (has_rule "L102" fs);
  (* (2^63 + 1) / 3 times 3 wraps to 1: a wrapped footprint read 2 wide *)
  let wide =
    Design.analyze
      (Transform.v gemm ~selected:[| 0; 1; 2 |]
         ~matrix:[ [ 3074457345618258603; 0; 0 ]; [ 0; 1; 0 ]; [ 1; 1; 1 ] ])
  in
  Alcotest.(check bool) "fires past max_int" true
    (has_rule "L102" (Lint.Design.check_design wide))

(* O[i] += A[i,j] * B[j,k]: the output ignores j and k, so a transform
   sending both to pure space makes every PE hit the same element in the
   same cycle (output 2-D broadcast). *)
let reduction_stmt =
  let iters = [ Iter.v "i" 3; Iter.v "j" 3; Iter.v "k" 3 ] in
  Stmt.v "redout" ~iters
    ~output:(Access.of_terms "O" ~depth:3 [ [ 0 ] ])
    ~inputs:
      [ Access.of_terms "A" ~depth:3 [ [ 0 ]; [ 1 ] ];
        Access.of_terms "B" ~depth:3 [ [ 1 ]; [ 2 ] ] ]

let broadcast_out_design =
  Design.analyze
    (Transform.v reduction_stmt ~selected:[| 0; 1; 2 |]
       ~matrix:[ [ 0; 1; 0 ]; [ 0; 0; 1 ]; [ 1; 0; 0 ] ])

let test_l103_schedule_causality () =
  let fs = Lint.Design.check_design broadcast_out_design in
  Alcotest.(check bool) "fires" true (has_rule "L103" fs);
  Alcotest.(check bool) "error severity" true (Lint.Finding.has_errors fs);
  let fs = Lint.Design.check_design identity_design in
  Alcotest.(check bool) "quiet" false (has_rule "L103" fs)

let test_l104_reuse_negative_dt () =
  (* C ignores k; this transform maps e_k to (1, 0, -1): the raw reuse
     direction runs backwards in time *)
  let d =
    Design.analyze
      (Transform.v gemm ~selected:[| 0; 1; 2 |]
         ~matrix:[ [ 1; 0; 1 ]; [ 0; 1; 0 ]; [ 0; 0; -1 ] ])
  in
  let fs = Lint.Design.check_design d in
  Alcotest.(check bool) "fires" true (has_rule "L104" fs);
  let fs = Lint.Design.check_design identity_design in
  Alcotest.(check bool) "quiet" false (has_rule "L104" fs)

let test_l105_netlist_unsupported () =
  Alcotest.(check bool) "design is unsupported" false
    (Design.netlist_supported broadcast_out_design);
  let fs = Lint.Design.check_design broadcast_out_design in
  Alcotest.(check bool) "fires" true (has_rule "L105" fs);
  let fs = Lint.Design.check_design identity_design in
  Alcotest.(check bool) "quiet" false (has_rule "L105" fs)

let test_l106_generation_rejected () =
  (* a 2-iterator selection builds a 1-D array; the generator wants
     cols = 1 and rejects a 2-D request *)
  let d =
    Design.analyze
      (Transform.v gemm ~selected:[| 0; 1 |]
         ~matrix:[ [ 1; 0 ]; [ 0; 1 ] ])
  in
  Alcotest.(check bool) "classified as supported" true
    (Design.netlist_supported d);
  let env = Exec.alloc_inputs gemm in
  (match Accel.generate ~rows:4 ~cols:4 d env with
   | exception Accel.Unsupported msg ->
     let f =
       Lint.Finding.v ~rule:"L106" ~target:d.Design.name ~subject:"generator"
         msg
     in
     Alcotest.(check bool) "warning severity" true
       (f.Lint.Finding.severity = Lint.Finding.Warning)
   | _ -> Alcotest.fail "expected Accel.Unsupported");
  (* a full 3-iterator design generates fine *)
  let acc = Accel.generate ~rows:4 ~cols:4 identity_design env in
  Alcotest.(check bool) "generated" true (acc.Accel.total_cycles > 0)

(* ---------------- acceptance gate ---------------- *)

(* Every supported design of the fast small workloads must elaborate
   lint-clean: zero error-severity findings from both front ends.  The
   slower conv2d-small / depthwise-small sweeps run under `make lint`. *)
let test_small_workloads_lint_clean () =
  List.iter
    (fun (wname, stmt) ->
      let env = Exec.alloc_inputs stmt in
      List.iter
        (fun (_, d) ->
          if Design.netlist_supported d then begin
            let dfs = Lint.Design.check_design ~rows:16 ~cols:16 d in
            (match Lint.Finding.errors dfs with
             | [] -> ()
             | errs ->
               Alcotest.failf "%s %s design lint errors:@.%a" wname
                 d.Design.name Lint.Finding.pp_report errs);
            match Accel.generate ~rows:16 ~cols:16 d env with
            | exception Accel.Unsupported _ -> ()
            | acc -> (
              let nfs = Lint.Netlist.check_circuit acc.Accel.circuit in
              match Lint.Finding.errors nfs with
              | [] -> ()
              | errs ->
                Alcotest.failf "%s %s netlist lint errors:@.%a" wname
                  d.Design.name Lint.Finding.pp_report errs)
          end)
        (Search.all_designs stmt))
    [ ("gemm-small", Workloads.gemm ~m:4 ~n:4 ~k:4);
      ("mttkrp-small", Workloads.mttkrp ~i:4 ~j:4 ~k:4 ~l:4) ]

let cli path args =
  Sys.command
    (Filename.quote_command path args ^ " < /dev/null > /dev/null 2>&1")

let test_cli_exit_codes () =
  let exe = "../bin/tensorlib_cli.exe" in
  if Sys.file_exists exe then begin
    Alcotest.(check int) "clean workload exits 0" 0
      (cli exe [ "lint"; "-w"; "gemm-small" ]);
    (* a singular matrix is an L101 error: exit 1 *)
    Alcotest.(check int) "error exits 1" 1
      (cli exe
         [ "lint"; "-w"; "gemm-small"; "--select"; "m,n,k"; "--matrix";
           "1,0,0;0,1,0;1,1,0" ]);
    (* a design with no netlist on the array is a validation error: the
       full-size gemm (generate's default) does not fit 8x8, and reading
       one tensor with two shapes leaves its data memory *)
    List.iter
      (fun args ->
        Alcotest.(check int) (String.concat " " args ^ " exits 2") 2
          (cli exe args))
      [ [ "generate" ];
        [ "simulate"; "-w"; "gemm" ];
        [ "profile"; "-w"; "gemm" ];
        [ "fault"; "-w"; "gemm" ];
        [ "analyze"; "-w"; "gemm"; "--netlist" ];
        [ "compile"; "-w"; "gemm" ];
        [ "serve"; "--accel-workload"; "gemm" ];
        [ "generate"; "-e"; "C[m,n]+=A[m,k]*A[k,n]"; "--extents";
          "m=2,n=3,k=4"; "--rows"; "4"; "--cols"; "4" ] ];
    (* a malformed dataflow name is refused before any sweep, in every
       command that takes one: no dash, a repeated iterator, and a
       4-letter selection (whose sweep would be 3^16 matrices) *)
    List.iter
      (fun args ->
        Alcotest.(check int) (String.concat " " args ^ " exits 2") 2
          (cli exe args))
      [ [ "generate"; "-w"; "gemm-small"; "-d"; "MNK" ];
        [ "generate"; "-w"; "gemm-small"; "-d"; "MMK-SST" ];
        [ "simulate"; "-w"; "gemm-small"; "-d"; "MMK-SST" ];
        [ "perf"; "-w"; "gemm-small"; "-d"; "MNKK-SSTT" ];
        [ "perf"; "-w"; "gemm-small"; "-d"; "MNK" ];
        [ "fault"; "-w"; "gemm-small"; "-d"; "MNK" ];
        [ "lint"; "-w"; "gemm-small"; "-d"; "MMK-SST" ];
        [ "compile"; "-w"; "gemm-small"; "-d"; "MNKK-SSTT" ];
        [ "analyze"; "-w"; "gemm-small"; "-d"; "M-S" ];
        [ "serve"; "--accel-workload"; "gemm-small"; "--accel-dataflow";
          "MNKK-SSTT" ] ];
    (* an explicit --select/--matrix that names no design is a validation
       error: an unknown or repeated iterator, a matrix of the wrong size,
       a singular matrix.  lint reports the last three as L100/L101
       findings instead *)
    let explicit cmd (sel, m) =
      [ cmd; "-w"; "gemm-small"; "--select"; sel; "--matrix"; m ]
    in
    let unknown = ("m,x,k", "1,0,0;0,1,0;1,1,1") in
    let malformed =
      [ ("m,m,k", "1,0,0;0,1,0;1,1,1"); ("m,n,k", "1,0;0,1");
        ("m,n,k", "1,0,0;0,1,0;1,1,0") ]
    in
    List.iter
      (fun (args, code) ->
        Alcotest.(check int)
          (String.concat " " args ^ Printf.sprintf " exits %d" code)
          code (cli exe args))
      (List.concat_map
         (fun cmd ->
           List.map (fun x -> (explicit cmd x, 2)) (unknown :: malformed))
         [ "analyze"; "simulate" ]
      @ (explicit "lint" unknown, 2)
        :: List.map (fun x -> (explicit "lint" x, 1)) malformed);
    (* an output path is written through: a device stays a device *)
    Alcotest.(check int) "generate -o /dev/null exits 0" 0
      (cli exe [ "generate"; "-w"; "gemm-small"; "-o"; "/dev/null" ]);
    Alcotest.(check string) "/dev/null still reads empty" ""
      (In_channel.with_open_bin "/dev/null" In_channel.input_all);
    let dir = Filename.temp_dir "tl_cli" "" in
    Fun.protect ~finally:(fun () -> Test_dse_fast.remove_tree dir) @@ fun () ->
    (* an output path that cannot be written is a validation error *)
    let missing = Filename.concat (Filename.concat dir "missing") in
    List.iter
      (fun args ->
        Alcotest.(check int) (List.hd args ^ " unwritable output exits 2") 2
          (cli exe (args @ [ "-w"; "gemm-small" ])))
      [ [ "generate"; "-o"; missing "x.v" ];
        [ "simulate"; "--vcd"; missing "x.vcd" ];
        [ "profile"; "--trace"; missing "t.json" ] ];
    (* generate writes the netlist and its testbench together or not at
       all, and removes only a file it created *)
    let h = Filename.concat dir "h.v" in
    let generate_h () =
      cli exe [ "generate"; "-w"; "gemm-small"; "-o"; h; "--testbench" ]
    in
    Sys.mkdir (Filename.concat dir "h_tb.v") 0o755;
    Alcotest.(check int) "unwritable testbench exits 2" 2 (generate_h ());
    Alcotest.(check (list string)) "no file written" [ "h_tb.v" ]
      (Array.to_list (Sys.readdir dir));
    Out_channel.with_open_bin h (fun oc -> output_string oc "old");
    Alcotest.(check int) "unwritable testbench exits 2 again" 2 (generate_h ());
    Alcotest.(check bool) "existing netlist kept" true (Sys.file_exists h)
  end

(* Fast deterministic slice of the fuzz harness: the lint differential
   oracle (Rewrite never introduces findings) over 200 random netlists. *)
let test_fuzz_oracle_smoke () =
  let exe = "../bin/fuzz.exe" in
  if Sys.file_exists exe then
    Alcotest.(check int) "no oracle violations" 0 (cli exe [ "200"; "7" ])

(* A malformed iteration count or seed, or a count below 1 (which would
   check nothing), is a usage error: one line on stderr, exit 2. *)
let test_fuzz_usage () =
  let exe = "../bin/fuzz.exe" in
  if Sys.file_exists exe then
    List.iter
      (fun args ->
        let err = Filename.temp_file "fuzz" ".err" in
        let rc =
          Sys.command
            (Filename.quote_command exe args ^ " < /dev/null > /dev/null 2> "
            ^ Filename.quote err)
        in
        let msg = In_channel.with_open_bin err In_channel.input_all in
        Sys.remove err;
        let what = String.concat " " args in
        Alcotest.(check int) (what ^ " exits 2") 2 rc;
        Alcotest.(check bool)
          (what ^ " prints the usage line") true
          (String.length msg > 6 && String.sub msg 0 6 = "usage:"))
      [ [ "many" ]; [ "10"; "seven" ]; [ "0" ]; [ "-4"; "7" ];
        [ "1"; "2"; "3" ] ]

let suite =
  [ Alcotest.test_case "finding severity defaults" `Quick test_finding_defaults;
    Alcotest.test_case "finding suppress + count" `Quick
      test_finding_suppress_count;
    Alcotest.test_case "finding report + json" `Quick test_finding_report_json;
    Alcotest.test_case "L001 unassigned wire" `Quick test_l001_unassigned_wire;
    Alcotest.test_case "L002 combinational cycle" `Quick test_l002_comb_cycle;
    Alcotest.test_case "L003 frozen register" `Quick test_l003_frozen_register;
    Alcotest.test_case "L004 mux identical branches" `Quick
      test_l004_mux_identical_branches;
    Alcotest.test_case "L005 mux constant select" `Quick
      test_l005_mux_constant_select;
    Alcotest.test_case "L006 constant enable" `Quick test_l006_constant_enable;
    Alcotest.test_case "L007 constant clear" `Quick test_l007_constant_clear;
    Alcotest.test_case "L008 writeless ram" `Quick test_l008_writeless_ram;
    Alcotest.test_case "L009 ram address range" `Quick
      test_l009_ram_address_out_of_range;
    Alcotest.test_case "L010/L011 unreachable" `Quick
      test_l010_l011_unreachable;
    Alcotest.test_case "L012 fanout hotspot" `Quick test_l012_fanout_hotspot;
    Alcotest.test_case "L013 unused input" `Quick test_l013_unused_input;
    Alcotest.test_case "L100 malformed stt" `Quick test_l100_malformed;
    Alcotest.test_case "L101 singular stt" `Quick test_l101_singular;
    Alcotest.test_case "L102 pe bounds" `Quick test_l102_pe_bounds;
    Alcotest.test_case "L103 schedule causality" `Quick
      test_l103_schedule_causality;
    Alcotest.test_case "L104 reuse negative dt" `Quick
      test_l104_reuse_negative_dt;
    Alcotest.test_case "L105 netlist unsupported" `Quick
      test_l105_netlist_unsupported;
    Alcotest.test_case "L106 generation rejected" `Quick
      test_l106_generation_rejected;
    Alcotest.test_case "small workloads lint clean" `Slow
      test_small_workloads_lint_clean;
    Alcotest.test_case "cli exit codes" `Slow test_cli_exit_codes;
    Alcotest.test_case "fuzz oracle smoke" `Slow test_fuzz_oracle_smoke;
    Alcotest.test_case "fuzz usage errors exit 2" `Quick test_fuzz_usage ]
