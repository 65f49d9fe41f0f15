(* Netlist identity record: one line per (tier-1 workload, STT candidate,
   option combo) on a 4x4 array, giving the first 12 hex digits of the md5
   of the normalised Verilog, or the [Unsupported] message; and one
   "program" line per supported candidate, the md5 of its compiled program
   document (table images, counter tallies, data-memory layout, output map
   and structure string); and, per combo, one "absint" line for the design
   [make analyze-smoke] proves, the md5 of its netlist analysis report as
   JSON.  The runtest alias diffs the output against
   netlist_digests.expected, so any change to what the templates emit shows
   up as a diff; accept an intended one with [dune promote]. *)

open Tensorlib

(* (workload, statement, the dataflow name [make analyze-smoke] gives) *)
let cases =
  [ ("gemm", Workloads.gemm ~m:4 ~n:4 ~k:5, "MNK-SST");
    ("conv2d", Workloads.conv2d ~k:4 ~c:4 ~y:4 ~x:4 ~p:3 ~q:3, "KCX-SST");
    ("depthwise", Workloads.depthwise_conv ~k:4 ~y:4 ~x:4 ~p:3 ~q:3,
     "XYP-MMM");
    ("mttkrp", Workloads.mttkrp ~i:4 ~j:4 ~k:4 ~l:4, "IKL-UBBB") ]

let rom design env = Accel.generate ~rows:4 ~cols:4 design env

let prog design env =
  let envelope =
    Layout.envelope ~headroom:2 (Layout.build design ~rows:4 ~cols:4)
  in
  Accel.generate ~rows:4 ~cols:4 ~counters:true ~harden:Harden.full
    ~programmable:envelope design env

let combos = [ ("rom", rom); ("prog2+ctr+full", prog) ]

let md5_12 s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let digest gen design env =
  match gen design env with
  | exception Accel.Unsupported msg -> "unsupported: " ^ msg
  | acc -> md5_12 (Netlist_text.normalize (Accel.verilog acc))

let absint gen design env =
  md5_12 (Absint.Report.to_json (Absint.Report.of_accel (gen design env)))

let () =
  List.iter
    (fun (wname, stmt, smoke) ->
      let env = Exec.alloc_inputs stmt in
      List.iter
        (fun (dname, design) ->
          List.iter
            (fun (cname, gen) ->
              Printf.printf "%s %s %s %s\n" wname dname cname
                (digest gen design env))
            combos;
          match Layout.build design ~rows:4 ~cols:4 with
          | exception Layout.Unsupported _ -> ()
          | l ->
            Printf.printf "%s %s program %s\n" wname dname
              (md5_12 (Compile.program_to_json (Layout.to_program l))))
        (Search.all_designs stmt);
      (* resolved as the CLI resolves it: XYP-MMM names XYP-MBM *)
      let design = Search.find_design_exn stmt smoke in
      List.iter
        (fun (cname, gen) ->
          Printf.printf "%s %s absint %s %s\n" wname design.Design.name cname
            (absint gen design env))
        combos)
    cases
