(* Runtime-programmable accelerators: writable schedule memories
   (Accel.generate ~programmable) and the einsum-to-descriptor compiler
   (Tl_compile).  The contract under test: one generated netlist serves
   every compatible shape bit-identically to a freshly generated
   per-shape ROM build, every compiler rejection is a typed error, and a
   compile success is a load guarantee. *)

open Tensorlib

let programmable ?(headroom = 4) ?harden ?counters ?(rows = 4) ?(cols = 4)
    stmt name =
  let design = Search.find_design_exn stmt name in
  let env = Exec.alloc_inputs stmt in
  let envelope = Layout.envelope ~headroom (Layout.build design ~rows ~cols) in
  (Accel.generate ~rows ~cols ?harden ?counters ~programmable:envelope design
     env,
   env)

let compile_exn ~target design =
  match Compile.compile ~target design with
  | Ok p -> p
  | Error e -> Alcotest.failf "compile failed: %s" (Compile.error_to_string e)

(* ---------------- generation parity ---------------- *)

(* the programmable variant must power on configured for its generating
   shape and compute exactly what the ROM variant computes *)
let test_programmable_matches_rom () =
  List.iter
    (fun (stmt, name) ->
      let design = Search.find_design_exn stmt name in
      let env = Exec.alloc_inputs stmt in
      let golden = Exec.run stmt env in
      let rom = Accel.generate ~rows:4 ~cols:4 design env in
      let prog, _ = programmable stmt name in
      Alcotest.(check bool)
        (name ^ " ROM output = golden")
        true
        (Dense.equal (Accel.execute rom) golden);
      Alcotest.(check bool)
        (name ^ " programmable output = golden")
        true
        (Dense.equal (Accel.execute prog) golden))
    [ (Workloads.gemm ~m:4 ~n:4 ~k:5, "MNK-SST");
      (Workloads.gemm ~m:4 ~n:4 ~k:4, "MNK-STS");
      (Workloads.conv2d ~k:4 ~c:4 ~y:4 ~x:4 ~p:3 ~q:3, "KCX-SST") ]

(* ---------------- serving many shapes ---------------- *)

(* the tentpole scenario: ONE programmable 4x4 netlist serves three
   distinct GEMM shapes, each bit-identical to the golden executor AND
   to a freshly generated per-shape ROM accelerator, and the reference
   interpreter, started from the loaded memories, ends in the tape's
   state *)
let test_one_netlist_three_shapes () =
  let target, _ = programmable (Workloads.gemm ~m:4 ~n:4 ~k:4) "MNK-SST" in
  let sim = Sim.create target.Accel.circuit in
  List.iter
    (fun k ->
      let stmt = Workloads.gemm ~m:4 ~n:4 ~k in
      let env = Exec.alloc_inputs stmt in
      let golden = Exec.run stmt env in
      let design, program =
        match Compile.find_design ~target stmt with
        | Ok dp -> dp
        | Error errs ->
          Alcotest.failf "k=%d: no candidate compiled (%d rejected)" k
            (List.length errs)
      in
      let rom_out =
        Accel.execute (Accel.generate ~rows:4 ~cols:4 design env)
      in
      let got_tape = Accel.execute_program ~sim target program env in
      let reloaded = Sim.create target.Accel.circuit in
      Accel.load_program target reloaded program env;
      Alcotest.(check bool)
        (Printf.sprintf "k=%d tape = golden" k)
        true
        (Dense.equal got_tape golden);
      Alcotest.(check (list string))
        (Printf.sprintf "k=%d reference = tape" k)
        []
        (Oracle.Refsim.run_against target.Accel.circuit reloaded
           (program.Layout.p_total + 1));
      Alcotest.(check bool)
        (Printf.sprintf "k=%d programmed = per-shape ROM" k)
        true
        (Dense.equal got_tape rom_out))
    [ 6; 10; 14 ]

(* reprogramming must also survive hardening: parity companions are
   kept coherent, so a hardened programmable netlist detects nothing on
   a clean run and still matches the golden model *)
let test_reprogram_hardened () =
  let target, _ =
    programmable ~harden:Harden.parity_only
      (Workloads.gemm ~m:4 ~n:4 ~k:4)
      "MNK-SST"
  in
  let stmt = Workloads.gemm ~m:4 ~n:4 ~k:9 in
  let golden_env = Exec.alloc_inputs stmt in
  let golden = Exec.run stmt golden_env in
  let design = Search.find_design_exn stmt "MNK-SST" in
  let p = compile_exn ~target design in
  Alcotest.(check bool)
    "hardened reprogrammed run = golden" true
    (Dense.equal (Accel.execute_program target p golden_env) golden)

(* load_env on a programmable target prefix-loads the envelope-sized
   data memories, so the plain execute/execute_with/execute_batch paths
   keep working *)
let test_programmable_execute_with () =
  let target, _ = programmable (Workloads.gemm ~m:4 ~n:4 ~k:4) "MNK-SST" in
  let stmt = Workloads.gemm ~m:4 ~n:4 ~k:4 in
  let env = Exec.alloc_inputs stmt in
  let golden = Exec.run stmt env in
  Alcotest.(check bool)
    "execute_with on programmable target" true
    (Dense.equal (Accel.execute_with target env) golden);
  match Accel.execute_batch target [ env; env ] with
  | [ a; b ] ->
    Alcotest.(check bool)
      "execute_batch lane 0" true (Dense.equal a golden);
    Alcotest.(check bool)
      "execute_batch lane 1" true (Dense.equal b golden)
  | _ -> Alcotest.fail "execute_batch arity"

(* ---------------- degenerate schedules ---------------- *)

(* size-1 memories: every address port is bits_for-sized, and bits_for
   must keep 1-entry memories addressable (a 0-width address port would
   be illegal); the 1x1x1 GEMM on a 1x1 array makes every table and data
   memory a single entry *)
let test_size_one_memories () =
  let stmt = Workloads.gemm ~m:1 ~n:1 ~k:1 in
  let design = Search.find_design_exn stmt "MNK-SST" in
  let env = Exec.alloc_inputs stmt in
  let golden = Exec.run stmt env in
  let rom = Accel.generate ~rows:1 ~cols:1 design env in
  Alcotest.(check bool)
    "1x1x1 ROM = golden" true
    (Dense.equal (Accel.execute rom) golden);
  let prog, _ = programmable ~rows:1 ~cols:1 stmt "MNK-SST" in
  Alcotest.(check bool)
    "1x1x1 programmable = golden" true
    (Dense.equal (Accel.execute prog) golden)

(* single-pass schedules: the pass-domain tables have exactly two
   entries (pass 0 plus the terminal sentinel) and the controller must
   still terminate cleanly; k=1 additionally shrinks the reduction to a
   single cycle per pass *)
let test_single_pass_and_k1 () =
  let stmt = Workloads.gemm ~m:4 ~n:4 ~k:1 in
  let design = Search.find_design_exn stmt "MNK-SST" in
  let env = Exec.alloc_inputs stmt in
  let golden = Exec.run stmt env in
  let rom = Accel.generate ~rows:4 ~cols:4 design env in
  Alcotest.(check int) "k=1 is a single pass" 1 rom.Accel.schedule.Schedule.passes;
  Alcotest.(check bool)
    "k=1 ROM = golden" true
    (Dense.equal (Accel.execute rom) golden);
  (* and a standing programmable netlist can be reprogrammed down to the
     k=1 degenerate and back up without rebuilding *)
  let target, _ = programmable (Workloads.gemm ~m:4 ~n:4 ~k:4) "MNK-SST" in
  let sim = Sim.create target.Accel.circuit in
  List.iter
    (fun k ->
      let stmt = Workloads.gemm ~m:4 ~n:4 ~k in
      let env = Exec.alloc_inputs stmt in
      let golden = Exec.run stmt env in
      let p = compile_exn ~target (Search.find_design_exn stmt "MNK-SST") in
      Alcotest.(check bool)
        (Printf.sprintf "reprogram k=%d" k)
        true
        (Dense.equal (Accel.execute_program ~sim target p env) golden))
    [ 1; 7; 1 ]

(* ---------------- compiler rejection paths ---------------- *)

let target_and_request () =
  let target, _ = programmable (Workloads.gemm ~m:4 ~n:4 ~k:8) "MNK-SST" in
  let request =
    Search.find_design_exn (Workloads.gemm ~m:4 ~n:4 ~k:12) "MNK-SST"
  in
  (target, request)

let test_reject_not_programmable () =
  let stmt = Workloads.gemm ~m:4 ~n:4 ~k:8 in
  let design = Search.find_design_exn stmt "MNK-SST" in
  let rom = Accel.generate ~rows:4 ~cols:4 design (Exec.alloc_inputs stmt) in
  match Compile.compile ~target:rom design with
  | Error Compile.Not_programmable -> ()
  | Error e ->
    Alcotest.failf "expected Not_programmable, got %s"
      (Compile.error_to_string e)
  | Ok _ -> Alcotest.fail "ROM target must not accept programs"

let test_reject_dataflow_mismatch () =
  let target, _ = target_and_request () in
  let request =
    Search.find_design_exn (Workloads.gemm ~m:4 ~n:4 ~k:12) "MNK-STS"
  in
  match Compile.compile ~target request with
  | Error (Compile.Dataflow_mismatch { position; target = t; requested = r })
    ->
    Alcotest.(check bool) "positions a tensor" true (position >= 0);
    Alcotest.(check bool) "classes differ" true (t <> r)
  | Error e ->
    Alcotest.failf "expected Dataflow_mismatch, got %s"
      (Compile.error_to_string e)
  | Ok _ -> Alcotest.fail "incompatible dataflow must be rejected"

let test_reject_capacity_exceeded () =
  let target, _ = target_and_request () in
  let request =
    Search.find_design_exn (Workloads.gemm ~m:4 ~n:4 ~k:500) "MNK-SST"
  in
  match Compile.compile ~target request with
  | Error (Compile.Capacity_exceeded { need; capacity; _ }) ->
    Alcotest.(check bool) "need exceeds capacity" true (need > capacity)
  | Error e ->
    Alcotest.failf "expected Capacity_exceeded, got %s"
      (Compile.error_to_string e)
  | Ok _ -> Alcotest.fail "oversized shape must be rejected"

(* the width check is the load guarantee: against a target whose ports
   were (hypothetically) narrower than the envelope demands, compile
   must refuse rather than emit a program the loader would truncate *)
let test_reject_width_overflow () =
  let target, request = target_and_request () in
  let pi =
    match target.Accel.prog with Some pi -> pi | None -> assert false
  in
  let narrowed =
    { pi with
      Accel.pi_mems =
        List.map
          (fun (n, (r : Signal.ram)) -> (n, { r with Signal.ram_width = 1 }))
          pi.Accel.pi_mems }
  in
  match
    Compile.compile ~target:{ target with Accel.prog = Some narrowed } request
  with
  | Error (Compile.Width_overflow { value; width; _ }) ->
    Alcotest.(check int) "reports the narrowed width" 1 width;
    Alcotest.(check bool) "offending value out of range" true (value >= 2)
  | Error e ->
    Alcotest.failf "expected Width_overflow, got %s"
      (Compile.error_to_string e)
  | Ok _ -> Alcotest.fail "overflowing image must be rejected"

let test_find_design_reports_all_rejections () =
  let target, _ = target_and_request () in
  (* a 3-tensor einsum can never match a GEMM target: every candidate
     must come back with its own typed rejection *)
  let stmt = Workloads.mttkrp ~i:4 ~j:4 ~k:3 ~l:3 in
  match Compile.find_design ~target stmt with
  | Ok (d, _) -> Alcotest.failf "mttkrp compiled as %s?" d.Design.name
  | Error errs ->
    Alcotest.(check bool) "every candidate rejected" true (errs <> []);
    List.iter
      (fun (name, e) ->
        if String.trim (Compile.error_to_string e) = "" then
          Alcotest.failf "%s: empty rejection message" name)
      errs

(* The pre-check runs before scheduling, so it may only move a rejection
   forward: the schedule figures it reads equal the ones the layout
   records, and every capacity rejection names a figure that the layout
   the full compile would build really has.  The statements include an
   iterator that indexes no input ([b]), whose extent multiplies the
   passes without growing any input. *)
let test_precheck_sound () =
  let target, _ = target_and_request () in
  let gemms =
    List.map
      (fun (m, n, k) ->
        (Printf.sprintf "gemm %dx%dx%d" m n k, Workloads.gemm ~m ~n ~k))
      [ (4, 4, 1); (4, 4, 8); (4, 4, 32); (4, 4, 33); (4, 4, 48); (3, 4, 40);
        (4, 5, 40); (5, 5, 64); (4, 4, 200) ]
  in
  let with_b =
    List.concat_map
      (fun formula ->
        List.map
          (fun b ->
            (Printf.sprintf "%s b=%d" formula b,
             Parse.stmt formula
               ~extents:[ ("m", 4); ("n", 4); ("k", 4); ("b", b) ]))
          [ 3; 5; 40 ])
      [ "C[m,n] += A[m,k] * B[n,k]"; "C[m,n,b] += A[m,k] * B[n,k]" ]
  in
  let fired = ref [] and accepted = ref 0 in
  List.iter
    (fun (label, stmt) ->
      List.iter
        (fun (name, d) ->
          let what s = Printf.sprintf "%s %s: %s" label name s in
          let layout =
            match Layout.build d ~rows:4 ~cols:4 with
            | exception Layout.Unsupported _ -> None
            | l ->
              Alcotest.(check (pair int int))
                (what "schedule_size = layout")
                (l.Layout.l_total, l.Layout.l_passes)
                (Layout.schedule_size d ~rows:4 ~cols:4);
              Some l
          in
          match (Compile.compile ~target d, layout) with
          | Ok _, _ -> incr accepted
          | Error (Compile.Capacity_exceeded { what = w; need; capacity }),
            Some l ->
            let recorded =
              match w with
              | "schedule cycles" -> l.Layout.l_total = need
              | "schedule passes" -> l.Layout.l_passes = need
              | _ when String.starts_with ~prefix:"tensor " w ->
                List.exists
                  (fun (i : Layout.input) -> i.Layout.in_elems = need)
                  l.Layout.l_inputs
              | _ -> true
            in
            Alcotest.(check bool) (what w) true (recorded && need > capacity);
            if not (List.mem w !fired) then fired := w :: !fired
          | Error _, _ -> ())
        (Search.all_designs stmt))
    (gemms @ with_b);
  Alcotest.(check bool) "in-envelope shapes accepted" true (!accepted > 0);
  List.iter
    (fun w ->
      Alcotest.(check bool) ("rejections on " ^ w) true (List.mem w !fired))
    [ "schedule cycles"; "schedule passes"; "tensor A elements" ];
  (* the domain fits an int, the schedule length does not: a typed
     rejection, not a negative need that passes the capacity check *)
  let huge =
    Search.find_design_exn (Workloads.gemm ~m:1 ~n:1 ~k:(max_int - 3))
      "MNK-SST"
  in
  Alcotest.(check bool) "overflowing schedule_size raises" true
    (match Layout.schedule_size huge ~rows:4 ~cols:4 with
     | exception Layout.Unsupported _ -> true
     | _ -> false);
  Alcotest.(check bool) "overflowing schedule rejected" true
    (match Compile.compile ~target huge with
     | Error (Compile.Unsupported_design _) -> true
     | _ -> false)

(* ---------------- loader validation ---------------- *)

(* Every rejection must leave the standing simulator as it was: the
   last run's output still reads back and every descriptor memory keeps
   its contents.  The bad images fail only at their last entry, after the
   loader has accepted every other image. *)
let test_load_rejects_bad_programs () =
  let target, request = target_and_request () in
  let pi =
    match target.Accel.prog with Some pi -> pi | None -> assert false
  in
  let p = compile_exn ~target request in
  let stmt = Workloads.gemm ~m:4 ~n:4 ~k:12 in
  let env = Exec.alloc_inputs stmt in
  let golden = Exec.run stmt env in
  let sim = Sim.create target.Accel.circuit in
  let run p' env' = Accel.execute_program ~sim target p' env' in
  Alcotest.(check bool) "clean program = golden" true
    (Dense.equal (run p env) golden);
  let descriptors () =
    List.map (fun (_, ram) -> Sim.ram_contents_lane sim 0 ram) pi.Accel.pi_mems
  in
  let before = descriptors () in
  let unchanged name =
    Alcotest.(check bool) (name ^ ": output unchanged") true
      (Dense.equal (Accel.read_program_output target sim p) golden);
    Alcotest.(check bool) (name ^ ": descriptors unchanged") true
      (descriptors () = before)
  in
  let expect_bad name p' =
    (match run p' env with
     | exception Accel.Bad_program _ -> ()
     | _ -> Alcotest.failf "%s: loader accepted a bad program" name);
    unchanged name
  in
  let expect_invalid name env' =
    (match run p env' with
     | exception Invalid_argument _ -> ()
     | _ -> Alcotest.failf "%s: loader accepted a bad env" name);
    unchanged name
  in
  (* the image of the target's last descriptor memory *)
  let last_image f =
    let last, _ = List.nth pi.Accel.pi_mems (List.length pi.Accel.pi_mems - 1) in
    { p with
      Layout.p_images =
        List.map
          (fun (name, (d, img)) -> (name, (d, if name = last then f img else img)))
          p.Layout.p_images }
  in
  expect_bad "structure mismatch"
    { p with Layout.p_structure = p.Layout.p_structure ^ "x" };
  expect_bad "missing image" { p with Layout.p_images = [] };
  expect_bad "width overflow"
    { p with
      Layout.p_images =
        List.map
          (fun (n, (d, img)) -> (n, (d, Array.map (fun _ -> max_int) img)))
          p.Layout.p_images };
  expect_bad "last image overflows its port"
    (last_image (fun img ->
         let img = Array.copy img in
         img.(Array.length img - 1) <- max_int;
         img));
  expect_bad "last image over capacity"
    (last_image (fun _ -> Array.make (target.Accel.total_cycles * 8) 0));
  expect_bad "unknown data memory"
    { p with
      Layout.p_inputs =
        List.map
          (fun (i : Layout.input) -> { i with Layout.in_mem = "nowhere" })
          p.Layout.p_inputs };
  (* the output map, checked before the reset as the images are *)
  expect_bad "zero out extent" { p with Layout.p_out_shape = [| 0; 4 |] };
  expect_bad "index at an extent" { p with Layout.p_out_shape = [| 3; 4 |] };
  expect_bad "out_shape past an array"
    { p with Layout.p_out_shape = [| 4; 1 lsl 53 |] };
  expect_bad "out_shape past Dense.max_elements"
    { p with Layout.p_out_shape = [| 4; (Dense.max_elements / 4) + 1 |] };
  let first_out f =
    { p with
      Layout.p_out =
        (match p.Layout.p_out with e :: rest -> f e :: rest | [] -> []) }
  in
  expect_bad "index of the wrong rank"
    (first_out (fun (idx, loc) -> (idx @ [ 0 ], loc)));
  expect_bad "unknown bank"
    (first_out (fun (idx, (_, addr)) -> (idx, ("nowhere", addr))));
  expect_bad "bank address out of range"
    (first_out (fun (idx, (bank, _)) -> (idx, (bank, 1 lsl 40))));
  expect_invalid "missing tensor" (List.tl env);
  expect_invalid "shape mismatch"
    (Exec.alloc_inputs (Workloads.gemm ~m:4 ~n:4 ~k:11));
  (* a valid program still runs after all those rejections *)
  Alcotest.(check bool)
    "clean program still loads" true
    (Dense.equal (run p env) golden)

(* ---------------- program codec ---------------- *)

let test_codec_roundtrip () =
  let target, request = target_and_request () in
  let p = compile_exn ~target request in
  let s = Compile.program_to_json p in
  match Compile.program_of_json s with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok p' ->
    Alcotest.(check bool) "roundtrip is structural identity" true (p' = p);
    let env = Exec.alloc_inputs (Workloads.gemm ~m:4 ~n:4 ~k:12) in
    let golden = Exec.run (Workloads.gemm ~m:4 ~n:4 ~k:12) env in
    Alcotest.(check bool)
      "decoded program runs bit-identically" true
      (Dense.equal (Accel.execute_program target p' env) golden)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* replace the first occurrence of [pat] in [s] with [rep] *)
let replace_first s pat rep =
  let ls = String.length s and lp = String.length pat in
  let rec find i = if i + lp > ls then None
    else if String.sub s i lp = pat then Some i else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "test bug: pattern %S not in document" pat
  | Some i ->
    String.sub s 0 i ^ rep ^ String.sub s (i + lp) (ls - i - lp)

let test_codec_rejects_malformed () =
  let target, request = target_and_request () in
  let p = compile_exn ~target request in
  let s = Compile.program_to_json p in
  let expect_err name doc needle =
    match Compile.program_of_json doc with
    | Ok _ -> Alcotest.failf "%s: malformed document decoded" name
    | Error e ->
      Alcotest.(check bool) (name ^ " names the defect") true (contains e needle)
  in
  expect_err "not JSON" "nonsense" "";
  expect_err "wrong schema"
    (replace_first s Compile.schema "tensorlib-program/999")
    "schema";
  expect_err "digest mismatch"
    (replace_first s "\"structure\": \"" "\"structure\": \"x")
    "digest";
  expect_err "missing field" (replace_first s "\"total\"" "\"totally\"") "total";
  expect_err "negative value"
    (replace_first s "\"passes\": " "\"passes\": -")
    "passes";
  (* an output map that does not fit out_shape is a decode error, not an
     exception from the output tensor after the run *)
  expect_err "zero out extent"
    (replace_first s "\"out_shape\": [4, 4]" "\"out_shape\": [0, 4]")
    "out_shape";
  expect_err "index at an extent"
    (replace_first s "\"out_shape\": [4, 4]" "\"out_shape\": [3, 4]")
    "outside out_shape";
  expect_err "index of the wrong rank"
    (replace_first s "\"index\": [3, 3]" "\"index\": [3, 3, 0]")
    "rank";
  expect_err "out_shape past an array"
    (replace_first s "\"out_shape\": [4, 4]"
       "\"out_shape\": [4, 9007199254740992]")
    "a tensor may hold"

(* ---------------- CLI validation sweep ---------------- *)

let cli =
  if Sys.file_exists "../bin/tensorlib_cli.exe" then "../bin/tensorlib_cli.exe"
  else "_build/default/bin/tensorlib_cli.exe"

(* [max_kb] caps the child's virtual memory (ulimit -v), so a command
   that should refuse an oversized tensor fails fast if it allocates *)
let run_cli ?(stdin = "/dev/null") ?max_kb args =
  let out = Filename.temp_file "tlcli" ".out" in
  let err = Filename.temp_file "tlcli" ".err" in
  let limit =
    match max_kb with
    | Some kb -> Printf.sprintf "ulimit -v %d; " kb
    | None -> ""
  in
  let rc =
    Sys.command
      (Printf.sprintf "%s%s %s < %s > %s 2> %s" limit (Filename.quote cli) args
         (Filename.quote stdin) (Filename.quote out) (Filename.quote err))
  in
  let read path =
    let ic = open_in path in
    let c = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    c
  in
  (rc, read out, read err)

(* every numeric resource flag shares one validator: non-positive values
   exit 2 with the same "must be >= 1; got N" stderr shape, whichever
   command carries the flag *)
let test_cli_positive_flag_validation () =
  List.iter
    (fun (args, flag, got) ->
      let rc, _, err = run_cli args in
      Alcotest.(check int) (args ^ " exits 2") 2 rc;
      let expected = Printf.sprintf "%s must be >= 1; got %d" flag got in
      Alcotest.(check bool)
        (Printf.sprintf "%s says %S" args expected)
        true (contains err expected))
    [ ("fault -w gemm-small -d MNK-SST --trials 0", "--trials", 0);
      ("fault -w gemm-small -d MNK-SST --trials=-7", "--trials", -7);
      ("sweep --network tiny --limit 0", "--limit", 0);
      ("sweep --network tiny --deadline-ms 0", "--deadline-ms", 0);
      ("sweep --network tiny --budget-checks=-1", "--budget-checks", -1);
      ("serve --limit 0", "--limit", 0);
      ("serve --max-request-bytes 0", "--max-request-bytes", 0);
      ("serve --deadline-ms=-3", "--deadline-ms", -3);
      ("compile -w gemm-small -d MNK-SST --rows 4 --cols 4 --headroom 0",
       "--headroom", 0) ]

(* --backend matching is case-insensitive for suggestions and never
   guesses from empty/whitespace input *)
let test_cli_backend_suggestions () =
  let rc, _, err = run_cli "simulate -w gemm-small -d MNK-SST --backend TAPE" in
  Alcotest.(check int) "unknown backend exits 2" 2 rc;
  Alcotest.(check bool)
    "TAPE suggests canonical tape" true
    (contains err "did you mean \"tape\"");
  let rc, _, err = run_cli "simulate -w gemm-small -d MNK-SST --backend Batc" in
  Alcotest.(check int) "typo exits 2" 2 rc;
  Alcotest.(check bool)
    "Batc suggests batch" true
    (contains err "did you mean \"batch\"");
  (* "closure" names no backend: a validation error listing the valid
     ones *)
  List.iter
    (fun (cmd, valid) ->
      let rc, _, err = run_cli (cmd ^ " --backend closure") in
      Alcotest.(check int) (cmd ^ ": closure exits 2") 2 rc;
      Alcotest.(check bool)
        (cmd ^ ": lists the valid backends") true
        (contains err ("valid: " ^ valid)))
    [ ("simulate -w gemm-small -d MNK-SST", "tape, batch");
      ("fault -w gemm-small -d MNK-SST --trials 1", "tape, batch");
      ("profile -w gemm-small -d MNK-SST --rows 4 --cols 4", "tape");
      ("compile -w gemm-small -d MNK-SST --rows 4 --cols 4", "tape") ];
  let rc, _, _ =
    run_cli "profile -w gemm-small -d MNK-SST --rows 4 --cols 4 --backend tape"
  in
  Alcotest.(check int) "profile still accepts --backend tape" 0 rc;
  let rc, _, err = run_cli "simulate -w gemm-small -d MNK-SST --backend '   '" in
  Alcotest.(check int) "whitespace backend exits 2" 2 rc;
  Alcotest.(check bool)
    "whitespace gets no suggestion" false
    (contains err "did you mean")

(* the compile subcommand end-to-end: emit a program for a new shape and
   differential-check it (--run) against golden and per-shape ROM *)
let test_cli_compile_run () =
  let rc, out, err =
    run_cli
      "compile -w gemm-small -d MNK-SST --rows 4 --cols 4 -e 'C[m,n] += \
       A[m,k] * B[n,k]' --extents m=4,n=4,k=10 --run -o /dev/null"
  in
  Alcotest.(check int) "compile --run exits 0" 0 rc;
  Alcotest.(check bool)
    "golden differential reported" true
    (contains out "MATCHES golden model");
  Alcotest.(check bool)
    "ROM differential reported" true
    (contains out "MATCHES per-shape ROM build");
  Alcotest.(check bool)
    "summary names the envelope" true
    (contains err "envelope");
  (* an incompatible request fails with the typed rejections on stderr *)
  let rc, _, err =
    run_cli
      "compile -w gemm-small -d MNK-SST --rows 4 --cols 4 -e 'C[m,n] += \
       A[m,k] * B[n,k]' --extents m=4,n=4,k=900 -o /dev/null"
  in
  Alcotest.(check int) "oversized request exits 2" 2 rc;
  Alcotest.(check bool)
    "rejection names the envelope" true
    (contains err "envelope")

(* serve with a standing programmable accelerator answers einsum
   requests with a verified program *)
let test_cli_serve_einsum () =
  let requests = Filename.temp_file "tlreq" ".jsonl" in
  let oc = open_out requests in
  output_string oc
    "{\"id\": 1, \"einsum\": \"C[m,n] += A[m,k] * B[n,k]\", \"extents\": \
     \"m=4,n=4,k=9\"}\n";
  (* incompatible einsum: structured error, not a crash *)
  output_string oc
    "{\"id\": 2, \"einsum\": \"C[m,n] += A[m,k] * B[n,k]\", \"extents\": \
     \"m=4,n=4,k=900\"}\n";
  close_out oc;
  let rc, out, _ =
    run_cli ~stdin:requests
      "serve --limit 2 --accel-workload gemm-small --accel-dataflow MNK-SST \
       --accel-rows 4 --accel-cols 4"
  in
  Sys.remove requests;
  Alcotest.(check int) "serve exits 0" 0 rc;
  let lines =
    String.split_on_char '\n' out |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "two responses" 2 (List.length lines);
  match List.map Json.parse lines with
  | [ Ok j1; Ok j2 ] ->
    Alcotest.(check bool)
      "compatible shape served" true
      (Json.member "ok" j1 = Some (Json.Bool true));
    Alcotest.(check bool)
      "served program verified" true
      (Json.member "verified" j1 = Some (Json.Bool true));
    Alcotest.(check bool)
      "program document attached" true
      (match Json.member "program" j1 with
      | Some (Json.Obj _) -> true
      | _ -> false);
    Alcotest.(check bool)
      "incompatible shape rejected in-band" true
      (Json.member "ok" j2 = Some (Json.Bool false))
  | _ -> Alcotest.fail "responses must all be JSON"

let gemm_einsum = "C[m,n] += A[m,k] * B[n,k]"

(* serve's answers to request lines, one per line, parsed *)
let serve_lines ?(flags = "") lines =
  let path = Filename.temp_file "tlreq" ".jsonl" in
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  let rc, out, _ =
    run_cli ~stdin:path
      ("serve --accel-workload gemm-small --headroom 16 " ^ flags)
  in
  Sys.remove path;
  Alcotest.(check int) "serve exits 0" 0 rc;
  String.split_on_char '\n' out
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
      match Json.parse l with
      | Ok j -> j
      | Error e -> Alcotest.failf "unparsable answer %S: %s" l e)

(* serve answers on one line per (id, einsum, extents) request, parsed *)
let serve_answers ?flags requests =
  serve_lines ?flags
    (List.map
       (fun (id, einsum, extents) ->
         Printf.sprintf "{\"id\": %d, \"einsum\": %S, \"extents\": %S}" id
           einsum extents)
       requests)

let check_rejected ~id ~error j =
  Alcotest.(check (option int)) "answer keeps the id" (Some id)
    (Option.bind (Json.member "id" j) Json.int_opt);
  Alcotest.(check bool) "not ok" true
    (Json.member "ok" j = Some (Json.Bool false));
  let msg = Option.value ~default:"" (Json.mem_string j "error") in
  Alcotest.(check bool) (Printf.sprintf "%S in %S" error msg) true
    (contains msg error)

(* parse errors and bad extents are the client's: answered with its id,
   at once, and the request behind them is served *)
let test_cli_serve_bad_einsum_keeps_id () =
  let line id extents =
    Printf.sprintf "{\"id\":%d,\"einsum\":%S,\"extents\":%s}" id gemm_einsum
      extents
  in
  let t0 = Unix.gettimeofday () in
  let answers =
    serve_lines
      [ line 7 "\"m=4,n=4\""; line 8 "\"m=4,n=4,k=0\"";
        line 9 "\"m=4,n=4,k=-3\"";
        (* 4 * 4 * k points overflow an int *)
        line 1 "\"m=4,n=4,k=4611686018427387903\""; line 10 "7";
        (* B's coefficient of k sums to max_int + 1 *)
        Printf.sprintf "{\"id\":11,\"einsum\":%S,\"extents\":\"m=1,n=1,k=3\"}"
          "C[m,n] += A[m,k] * B[n,4611686018427387903k+1k]";
        line 2 "\"m=4,n=4,k=4\"" ]
  in
  let wall = Unix.gettimeofday () -. t0 in
  (match answers with
   | [ a; b; c; d; e; f; g ] ->
     check_rejected ~id:7 ~error:"bad request: iterator k is not declared" a;
     check_rejected ~id:8 ~error:"bad request: extent of k must be positive" b;
     check_rejected ~id:9 ~error:"bad request: extent of k must be positive" c;
     check_rejected ~id:1 ~error:"bad request: Stmt.v: the iteration domain" d;
     check_rejected ~id:10
       ~error:"\"extents\" must be a string such as \"m=64,n=64,k=64\"" e;
     check_rejected ~id:11
       ~error:"bad request: the coefficient of k in B does not fit in an int"
       f;
     Alcotest.(check bool) "the request behind them is served" true
       (Json.member "ok" g = Some (Json.Bool true))
   | l -> Alcotest.failf "expected 7 answers, got %d" (List.length l));
  Alcotest.(check bool)
    (Printf.sprintf "server answered within 1 s (took %.2f s)" wall)
    true (wall < 1.)

let test_cli_duplicate_extent_rejected () =
  (match serve_answers [ (3, gemm_einsum, "m=4,n=4,k=4,k=8") ] with
   | [ a ] -> check_rejected ~id:3 ~error:"k is declared twice" a
   | l -> Alcotest.failf "expected 1 answer, got %d" (List.length l));
  let rc, _, err =
    run_cli
      "compile -w gemm-small -d MNK-SST --rows 4 --cols 4 -e 'C[m,n] += \
       A[m,k] * B[n,k]' --extents m=4,n=4,k=4,k=8 -o /dev/null"
  in
  Alcotest.(check int) "compile exits 2" 2 rc;
  Alcotest.(check bool) "compile names the duplicate" true
    (contains err "k is declared twice")

(* a malformed --extents binding, extents whose iteration domain
   overflows an int, or an index that would wrap one, is the exit-2
   error naming the fault, in every command that takes --expr: one
   parser serves them and serve's "extents".  So is a tensor past
   [Dense.max_elements] where a command allocates the tensors. *)
let test_cli_bad_extent_binding () =
  let every =
    [ "perf -d MNK-SST"; "analyze -d MNK-SST"; "generate -d MNK-SST";
      "simulate -d MNK-SST";
      "compile -w gemm-small -d MNK-SST --rows 4 --cols 4" ]
  in
  List.iter
    (fun (b, extents, error, cmds) ->
      List.iter
        (fun cmd ->
          let rc, out, err =
            run_cli ~max_kb:2_000_000
              (cmd ^ " -e 'C[m,n]+=A[m,k]*B[n," ^ b ^ "]' --extents "
             ^ extents)
          in
          Alcotest.(check int) (cmd ^ " " ^ extents ^ " exits 2") 2 rc;
          Alcotest.(check string) (cmd ^ " prints no result") "" out;
          Alcotest.(check bool) (cmd ^ " says " ^ error) true
            (contains err error))
        cmds)
    [ ("k", "m=4,n=4,k=x", "bad extent binding: k=x", every);
      ("k", "m=4,n=4,k=4611686018427387903",
       "the iteration domain (the product of the extents) does not fit",
       every);
      (* B's largest index, 2^61 (k - 1), passes max_int *)
      ("2305843009213693952k", "m=4,n=4,k=3",
       "an index of B does not fit in an int", every);
      (* the domain fits an int, but a tensor has more elements than
         Dense.max_elements: the commands that allocate the tensors,
         before they allocate (B is 4 x 2^32, 128 GiB of words) *)
      ("k", "m=1,n=1,k=4611686018427387900",
       "tensor A of shape 1x4611686018427387900 has more elements than a \
        tensor may hold",
       [ "analyze --netlist -d MNK-SST"; "generate -d MNK-SST";
         "simulate -d MNK-SST" ]);
      ("4294967295k", "m=4,n=4,k=2",
       "tensor B of shape 4x4294967296 has more elements than a tensor may \
        hold",
       [ "analyze --netlist -d MNK-SST"; "generate -d MNK-SST";
         "simulate -d MNK-SST" ]) ]

(* requests far over the envelope are rejected before any scheduling:
   one with an input too large, and two whose iterator [b] indexes no
   input (only the output, in the second) and multiplies the passes *)
let test_cli_oversized_rejected_fast () =
  let t0 = Unix.gettimeofday () in
  let answers =
    serve_answers
      [ (5, gemm_einsum, "m=4,n=4,k=100000");
        (6, gemm_einsum, "m=4,n=4,k=4,b=100000");
        (7, "C[m,n,b] += A[m,k] * B[n,k]", "m=4,n=4,k=4,b=100000") ]
  in
  let wall = Unix.gettimeofday () -. t0 in
  (match answers with
   | [ a; b; c ] ->
     List.iter2
       (fun id j -> check_rejected ~id ~error:"no dataflow of C compiles" j)
       [ 5; 6; 7 ] [ a; b; c ]
   | l -> Alcotest.failf "expected 3 answers, got %d" (List.length l));
  Alcotest.(check bool)
    (Printf.sprintf "server answered within 1 s (took %.2f s)" wall)
    true (wall < 1.)

(* a 1 ms budget cannot cover the first plan of the einsum *)
let test_cli_serve_einsum_deadline () =
  match
    serve_answers ~flags:"--deadline-ms 1" [ (4, gemm_einsum, "m=4,n=4,k=4") ]
  with
  | [ a ] ->
    check_rejected ~id:4 ~error:"deadline" a;
    Alcotest.(check (option string)) "plain deadline answer" (Some "deadline")
      (Json.mem_string a "error")
  | l -> Alcotest.failf "expected 1 answer, got %d" (List.length l)

(* A statement whose reuse analysis does not fit native ints (the null
   vector of [A] under [k, j] is (2^62 - 2, -(2^62 - 1))): every command
   that takes --expr exits 2 with one error line naming the tensor,
   explicit matrix or dataflow name alike. *)
let overflow_einsum =
  "C[m,n] += A[m,4611686018427387903k+4611686018427387902j] * B[n,k,j]"

let test_cli_classifier_overflow () =
  List.iter
    (fun cmd ->
      let rc, out, err =
        run_cli
          (Printf.sprintf "%s -e '%s' --extents m=2,n=2,k=1,j=1" cmd
             overflow_einsum)
      in
      Alcotest.(check int) (cmd ^ " exits 2") 2 rc;
      Alcotest.(check string) (cmd ^ " prints no result") "" out;
      Alcotest.(check string) (cmd ^ " prints one error line")
        "tensorlib: error: the reuse analysis of tensor A overflows a \
         native int\n"
        err)
    [ "analyze --select k,j,m --matrix '1,1,0;1,-1,0;1,1,1'";
      "simulate --select k,j,m --matrix '1,1,0;1,-1,0;1,1,1'";
      "analyze -d KJM-SSS"; "perf -d KJM-SSS"; "generate -d KJM-SSS";
      "compile -w gemm-small -d MNK-SST --rows 4 --cols 4" ]

(* STT entries at the edges of native ints.  (2^63 + 1) / 3 times 3
   wraps to 1, so a wrapping footprint read 2 wide; 2^31 · 2^32 wraps to
   0, so a wrapping determinant read singular.  Each is a typed refusal:
   an L102 or L101 error finding in lint, exit 2 with one error line
   naming the overflow elsewhere. *)
let test_cli_matrix_overflow () =
  let contains hay sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length hay && (String.sub hay i n = sub || go (i + 1))
    in
    go 0
  in
  let wide = "3074457345618258603,0,0;0,1,0;1,1,1" in
  let det3 = "2147483648,0,0;0,4294967296,0;0,0,1" in
  let det4 = "2147483648,0,0,0;0,4294967296,0,0;0,0,1,0;0,0,0,1" in
  let flags w sel m =
    Printf.sprintf "-w %s --select %s --matrix '%s'" w sel m
  in
  let gemm_small = flags "gemm-small" "m,n,k" wide in
  let gemm = flags "gemm" "m,n,k" det3 in
  let mttkrp = flags "mttkrp-small" "i,j,k,l" det4 in
  let span =
    "the span of STT row 0 over the iteration domain overflows a native int"
  in
  let det = "the determinant of the STT matrix overflows a native int" in
  let refused sel m =
    Printf.sprintf "--select %s --matrix %s: Transform.v: %s" sel m det
  in
  List.iter
    (fun (cmd, args, code, expected) ->
      let what = cmd ^ " " ^ args in
      let rc, out, err = run_cli what in
      Alcotest.(check int) (Printf.sprintf "%s exits %d" what code) code rc;
      if code = 2 then begin
        Alcotest.(check string) (what ^ " prints no result") "" out;
        Alcotest.(check string) (what ^ " prints one error line")
          ("tensorlib: error: " ^ expected ^ "\n") err
      end
      else
        Alcotest.(check bool) (what ^ " reports " ^ expected) true
          (contains out expected))
    [ ("lint", gemm_small, 1, "L102 error   [MNK-SST] space footprint: "
                               ^ span);
      ("simulate", gemm_small, 2, "Schedule.build: " ^ span);
      ("analyze --netlist", gemm_small, 2, "Schedule.build: " ^ span);
      ("analyze", gemm, 2, refused "m,n,k" det3);
      ("lint", gemm, 1, "L101 error   [stt[0,1,2]] matrix: " ^ det);
      ("analyze", mttkrp, 2, refused "i,j,k,l" det4);
      ("lint", mttkrp, 1, "L101 error   [stt[0,1,2,3]] matrix: " ^ det);
      ("simulate", mttkrp, 2, refused "i,j,k,l" det4) ];
  (* the footprint is refused only where an array needs it *)
  let rc, out, _ = run_cli ("analyze " ^ gemm_small) in
  Alcotest.(check int) "analyze without --netlist exits 0" 0 rc;
  Alcotest.(check bool) "and prints the design" true
    (contains out "design MNK-SST on GEMM")

(* The classification costs the same whatever the coefficients: the
   100 000 reduction is answered at once, the 2^62 - 1 one refused on
   overflow inside a 100 ms budget (not as a deadline), and an "expr"
   sweep refuses it too instead of degrading to an estimate.  The
   server keeps serving behind them. *)
let test_cli_serve_classifier_bounded () =
  let overflow = "the reuse analysis of tensor A overflows a native int" in
  let t0 = Unix.gettimeofday () in
  let answers =
    serve_lines
      [ Printf.sprintf "{\"id\": 1, \"einsum\": %S, \"extents\": %S}"
          "C[m,n] += A[m,100000k+99999j] * B[n,k,j]" "m=2,n=2,k=2,j=2";
        Printf.sprintf "{\"id\": 2, \"expr\": %S, \"extents\": %S}"
          overflow_einsum "m=2,n=2,k=1,j=1";
        Printf.sprintf "{\"id\": 3, \"einsum\": %S, \"extents\": %S}"
          gemm_einsum "m=4,n=4,k=4" ]
  in
  let wall = Unix.gettimeofday () -. t0 in
  (match answers with
   | [ a; b; c ] ->
     check_rejected ~id:1 ~error:"no dataflow of C compiles" a;
     check_rejected ~id:2 ~error:overflow b;
     Alcotest.(check bool) "the request behind them is served" true
       (Json.member "ok" c = Some (Json.Bool true))
   | l -> Alcotest.failf "expected 3 answers, got %d" (List.length l));
  Alcotest.(check bool)
    (Printf.sprintf "server answered within 1 s (took %.2f s)" wall)
    true (wall < 1.);
  match
    serve_answers ~flags:"--deadline-ms 100"
      [ (4, overflow_einsum, "m=2,n=2,k=1,j=1") ]
  with
  | [ a ] -> check_rejected ~id:4 ~error:overflow a
  | l -> Alcotest.failf "expected 1 answer, got %d" (List.length l)

let suite =
  [ Alcotest.test_case "programmable = ROM as generated" `Quick
      test_programmable_matches_rom;
    Alcotest.test_case "one netlist, three shapes" `Quick
      test_one_netlist_three_shapes;
    Alcotest.test_case "reprogram hardened variant" `Quick
      test_reprogram_hardened;
    Alcotest.test_case "execute paths on programmable target" `Quick
      test_programmable_execute_with;
    Alcotest.test_case "size-1 memories" `Quick test_size_one_memories;
    Alcotest.test_case "single-pass and k=1 schedules" `Quick
      test_single_pass_and_k1;
    Alcotest.test_case "reject: not programmable" `Quick
      test_reject_not_programmable;
    Alcotest.test_case "reject: dataflow mismatch" `Quick
      test_reject_dataflow_mismatch;
    Alcotest.test_case "reject: capacity exceeded" `Quick
      test_reject_capacity_exceeded;
    Alcotest.test_case "reject: width overflow" `Quick
      test_reject_width_overflow;
    Alcotest.test_case "find_design reports rejections" `Quick
      test_find_design_reports_all_rejections;
    Alcotest.test_case "loader validation" `Quick
      test_load_rejects_bad_programs;
    Alcotest.test_case "program codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "program codec rejects malformed" `Quick
      test_codec_rejects_malformed;
    Alcotest.test_case "cli positive-flag validation" `Quick
      test_cli_positive_flag_validation;
    Alcotest.test_case "cli backend suggestions" `Quick
      test_cli_backend_suggestions;
    Alcotest.test_case "cli compile --run differential" `Quick
      test_cli_compile_run;
    Alcotest.test_case "cli serve einsum requests" `Quick
      test_cli_serve_einsum;
    Alcotest.test_case "capacity pre-check is sound" `Quick
      test_precheck_sound;
    Alcotest.test_case "cli serve bad einsum keeps id" `Quick
      test_cli_serve_bad_einsum_keeps_id;
    Alcotest.test_case "cli duplicate extent rejected" `Quick
      test_cli_duplicate_extent_rejected;
    Alcotest.test_case "cli bad extent binding named" `Quick
      test_cli_bad_extent_binding;
    Alcotest.test_case "cli serve oversized rejected fast" `Quick
      test_cli_oversized_rejected_fast;
    Alcotest.test_case "cli serve einsum deadline" `Quick
      test_cli_serve_einsum_deadline;
    Alcotest.test_case "cli classifier overflow refused" `Quick
      test_cli_classifier_overflow;
    Alcotest.test_case "cli matrix overflow refused" `Quick
      test_cli_matrix_overflow;
    Alcotest.test_case "cli serve classifier bounded" `Quick
      test_cli_serve_classifier_bounded ]
