(* Abstract interpretation: Av transfer soundness (brute force over small
   widths), engine fixpoints, the L200-L204 proof rules positive and
   negative, narrowing equivalence, SARIF export, and the enriched
   width-mismatch diagnostics. *)

open Tensorlib
module Av = Absint.Av
module Engine = Absint.Engine
module Stream = Absint.Stream
module Proof = Absint.Proof

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub hay i nn = needle then true
    else go (i + 1)
  in
  go 0

(* ---------------- Av: brute-force transfer soundness ---------------- *)

(* An abstract value covering exactly a set of width-[w] concrete values
   is the join of their singletons; every transfer output must contain the
   concrete operation applied to every pair of members. *)
let av_of_set w = function
  | [] -> invalid_arg "av_of_set"
  | v :: rest ->
    List.fold_left
      (fun acc x -> Av.join acc (Av.const ~width:w x))
      (Av.const ~width:w v) rest

let random_set rng w =
  let n = 1 + Random.State.int rng 3 in
  List.init n (fun _ -> Random.State.int rng (1 lsl w))

let check_mem what v av =
  if not (Av.mem v av) then
    Alcotest.failf "%s: %d not in %s" what v
      (Format.asprintf "%a" Av.pp av)

let test_av_soundness () =
  let rng = Random.State.make [| 42 |] in
  let w = 4 in
  let m = (1 lsl w) - 1 in
  for _ = 1 to 300 do
    let xs = random_set rng w and ys = random_set rng w in
    let a = av_of_set w xs and b = av_of_set w ys in
    let binops =
      [ ("add", Av.add, fun x y -> (x + y) land m);
        ("sub", Av.sub, fun x y -> (x - y) land m);
        ("mul", Av.mul, fun x y -> x * y land m);
        ("and", Av.logand, ( land ));
        ("or", Av.logor, ( lor ));
        ("xor", Av.logxor, ( lxor ));
        ("eq", Av.eq, fun x y -> if x = y then 1 else 0);
        ("ult", Av.ult, fun x y -> if x < y then 1 else 0);
        ("slt", Av.slt,
         fun x y ->
           if Signal.to_signed w x < Signal.to_signed w y then 1 else 0) ]
    in
    List.iter
      (fun (name, abst, conc) ->
        let r = abst a b in
        List.iter
          (fun x -> List.iter (fun y -> check_mem name (conc x y) r) ys)
          xs)
      binops;
    let n = Random.State.int rng w in
    List.iter
      (fun x ->
        check_mem "not" (lnot x land m) (Av.lognot a);
        check_mem "shl" (x lsl n land m) (Av.shl a n);
        check_mem "shr" (x lsr n) (Av.shr a n);
        check_mem "sra" (Signal.to_signed w x asr n land m) (Av.sra a n);
        check_mem "sext"
          (Signal.mask_to_width 8 (Signal.to_signed w x))
          (Av.sext ~width:8 a);
        check_mem "repl" ((x lsl w) lor x) (Av.repl a 2);
        let hi = 1 + Random.State.int rng (w - 1) in
        let lo = Random.State.int rng (hi + 1) in
        check_mem "select"
          ((x lsr lo) land ((1 lsl (hi - lo + 1)) - 1))
          (Av.select a ~hi ~lo))
      xs;
    List.iter
      (fun x ->
        List.iter
          (fun y ->
            check_mem "concat" ((x lsl w) lor y) (Av.concat a b);
            (* mux joins both arms under an unknown select *)
            let r = Av.mux (Av.top 1) a b in
            check_mem "mux/1" x r;
            check_mem "mux/0" y r)
          ys)
      xs;
    (* join covers the union; meet covers the intersection *)
    let j = Av.join a b in
    List.iter (fun x -> check_mem "join" x j) (xs @ ys);
    List.iter
      (fun x -> if List.mem x ys then check_mem "meet" x (Av.meet a b))
      xs
  done

(* ---------------- engine: fixpoint on a masked counter -------------- *)

let test_engine_counter () =
  let open Signal in
  let w = wire 4 in
  let cnt = reg w -- "cnt" in
  assign w ((cnt +: const ~width:4 1) &: const ~width:4 7);
  let c = Circuit.create ~name:"ctr" ~outputs:[ ("o", cnt) ] in
  let e = Engine.run c in
  let av = Engine.value e cnt in
  Alcotest.(check bool) "cnt <= 7" true (av.Av.uhi <= 7);
  Alcotest.(check bool) "cnt >= 0" true (av.Av.ulo = 0);
  Alcotest.(check bool) "8 not member" false (Av.mem 8 av);
  Alcotest.(check bool) "7 member" true (Av.mem 7 av)

(* control-slice classification and periodicity *)
let test_stream_slice () =
  let open Signal in
  let w = wire 4 in
  let cnt = reg w -- "c" in
  assign w (mux2 (eq cnt (const ~width:4 15)) cnt (cnt +: const ~width:4 1));
  let x = input "x" 4 in
  let tainted = cnt +: x in
  let c =
    Circuit.create ~name:"s" ~outputs:[ ("o", tainted); ("c", cnt) ]
  in
  let slice = Stream.build c in
  Alcotest.(check bool) "counter in slice" true (Stream.in_slice slice cnt);
  Alcotest.(check bool) "input-dependent out" false
    (Stream.in_slice slice tainted);
  let run = Stream.record slice ~cycles:20 ~track:[ cnt ] in
  (match Stream.values run cnt with
   | Some arr ->
     Alcotest.(check int) "cnt@3" 3 arr.(3);
     Alcotest.(check int) "cnt@19 saturated" 15 arr.(19)
   | None -> Alcotest.fail "no stream");
  match run.Stream.repeat with
  | Some (c1, c2) ->
    Alcotest.(check bool) "terminal fixpoint period 1" true (c2 - c1 = 1)
  | None -> Alcotest.fail "no repeating state"

(* ---------------- proof rules: positives and negatives -------------- *)

let has_rule rule fs =
  List.exists (fun (f : Lint.Finding.t) -> f.Lint.Finding.rule = rule) fs

let test_l200_overflowing_acc () =
  (* 4-bit accumulator += 3 forever: never provably wrap-free *)
  let open Signal in
  let w = wire 4 in
  let acc = reg w -- "acc" in
  assign w (acc +: const ~width:4 3);
  let c = Circuit.create ~name:"ovf" ~outputs:[ ("o", acc) ] in
  let r = Proof.analyze ~cycles:8 c in
  Alcotest.(check bool) "L200 emitted" true (has_rule "L200" r.Proof.findings);
  Alcotest.(check bool) "gate trips" true (Proof.gate r.Proof.findings <> [])

let scheduled_bank ~we_data ~addr_data =
  (* saturating 4-bit cycle counter addressing a pair of schedule roms
     that drive a size-8 bank's write port *)
  let open Signal in
  let w = wire 4 in
  let cnt = reg w -- "cyc" in
  assign w (mux2 (eq cnt (const ~width:4 15)) cnt (cnt +: const ~width:4 1));
  let we_rom = rom ~name:"we_rom" ~width:1 we_data in
  let addr_rom = rom ~name:"addr_rom" ~width:4 addr_data in
  let bank = ram ~name:"bank" ~size:8 ~width:8 ~init:(Array.make 8 0) () in
  ram_write bank
    ~we:(ram_read we_rom cnt)
    ~addr:(ram_read addr_rom cnt)
    ~data:(const ~width:8 1);
  let out = ram_read bank (const ~width:3 0) in
  Circuit.create ~name:"bank_t" ~outputs:[ ("o", out); ("c", cnt) ]

let test_l201_oob_write () =
  (* write to address 9 of a size-8 bank at cycle 1 *)
  let we = Array.init 16 (fun c -> if c < 3 then 1 else 0) in
  let addr = Array.init 16 (fun c -> if c = 1 then 9 else c land 7) in
  let c = scheduled_bank ~we_data:we ~addr_data:addr in
  let r = Proof.analyze ~cycles:16 c in
  let errors = Lint.Finding.errors r.Proof.findings in
  Alcotest.(check bool) "L201 error" true (has_rule "L201" errors);
  Alcotest.(check bool) "gate trips" true (Proof.gate r.Proof.findings <> [])

let test_l201_l202_clean () =
  (* all writes in range, strobe quiet after cycle 2: both rules proven *)
  let we = Array.init 16 (fun c -> if c < 3 then 1 else 0) in
  let addr = Array.init 16 (fun c -> c land 7) in
  let c = scheduled_bank ~we_data:we ~addr_data:addr in
  let r = Proof.analyze ~cycles:16 c in
  Alcotest.(check (list Alcotest.string)) "gate clean" []
    (List.map
       (fun (f : Lint.Finding.t) -> f.Lint.Finding.rule)
       (Proof.gate r.Proof.findings));
  let mentions sub = List.exists (fun p -> contains p sub) r.Proof.proofs in
  Alcotest.(check bool) "L201 proof" true (mentions "L201 bank");
  Alcotest.(check bool) "L202 proof" true (mentions "L202 bank")

let test_l202_stuck_strobe () =
  (* write strobe never quiesces: active in the repeating state *)
  let we = Array.make 16 1 in
  let addr = Array.init 16 (fun c -> c land 7) in
  let c = scheduled_bank ~we_data:we ~addr_data:addr in
  let r = Proof.analyze ~cycles:16 c in
  let errors = Lint.Finding.errors r.Proof.findings in
  Alcotest.(check bool) "L202 error" true (has_rule "L202" errors)

let test_l203_constant_register () =
  let open Signal in
  let k = reg ~init:7 (const ~width:8 7) -- "konst" in
  let x = input "x" 8 in
  let c = Circuit.create ~name:"k" ~outputs:[ ("o", k +: x) ] in
  let r = Proof.analyze ~cycles:4 c in
  Alcotest.(check bool) "L203 emitted" true (has_rule "L203" r.Proof.findings)

let test_l204_dead_high_bits () =
  let open Signal in
  let x = input "x" 4 in
  let wide = reg (uresize x 16) -- "wide" in
  let c = Circuit.create ~name:"n" ~outputs:[ ("o", wide) ] in
  let r = Proof.analyze ~cycles:4 c in
  Alcotest.(check bool) "L204 emitted" true (has_rule "L204" r.Proof.findings)

(* ---------------- narrowing: differential equivalence --------------- *)

let test_narrow_differential () =
  let open Signal in
  let x = input "x" 4 and y = input "y" 4 in
  let wide = reg (uresize x 16 +: uresize y 16) -- "wide" in
  let acc_w = wire 16 in
  let acc = reg acc_w -- "acc16" in
  assign acc_w
    (mux2 (bit x 0) (const ~width:16 0) (acc +: uresize y 16));
  let c =
    Circuit.create ~name:"nar" ~outputs:[ ("o", wide); ("a", acc) ]
  in
  let narrowed, _, sv = Absint.Narrow.circuit c in
  Alcotest.(check bool) "reg bits narrowed" true
    (sv.Absint.Narrow.reg_bits_after < sv.Absint.Narrow.reg_bits_before);
  let narrowed_inputs = List.map fst (Circuit.inputs narrowed) in
  let rng = Random.State.make [| 7 |] in
  (* the tape and the reference interpreter each run both circuits *)
  let tape circuit =
    let s = Sim.create circuit in
    (Sim.set_input s, (fun () -> Sim.settle s), Sim.output s,
     fun () -> Sim.latch s)
  in
  let reference circuit =
    let r = Oracle.Refsim.create circuit in
    (Oracle.Refsim.set_input r, (fun () -> Oracle.Refsim.settle r),
     Oracle.Refsim.output r, fun () -> Oracle.Refsim.latch r)
  in
  List.iter
    (fun (what, make) ->
      let set0, settle0, out0, latch0 = make c in
      let set1, settle1, out1, latch1 = make narrowed in
      for _ = 1 to 30 do
        let vx = Random.State.int rng 16 and vy = Random.State.int rng 16 in
        set0 "x" vx;
        set0 "y" vy;
        if List.mem "x" narrowed_inputs then set1 "x" vx;
        if List.mem "y" narrowed_inputs then set1 "y" vy;
        settle0 ();
        settle1 ();
        List.iter
          (fun (name, _) ->
            Alcotest.(check int)
              (what ^ ": output " ^ name)
              (out0 name) (out1 name))
          (Circuit.outputs c);
        latch0 ();
        latch1 ()
      done)
    [ ("tape", tape); ("reference", reference) ]

(* ---------------- tier-1 workloads proven safe ---------------------- *)

let tier1_cases =
  [ ("gemm", Workloads.gemm ~m:4 ~n:4 ~k:5, "MNK-SST");
    ("conv2d", Workloads.conv2d ~k:4 ~c:4 ~y:4 ~x:4 ~p:3 ~q:3, "KCX-SST");
    ("depthwise", Workloads.depthwise_conv ~k:4 ~y:4 ~x:4 ~p:3 ~q:3,
     "XYP-MMM");
    ("mttkrp", Workloads.mttkrp ~i:4 ~j:4 ~k:4 ~l:4, "IKL-UBBB") ]

let test_tier1_proven_safe () =
  List.iter
    (fun (tag, stmt, dname) ->
      let design = Search.find_design_exn stmt dname in
      let env = Exec.alloc_inputs stmt in
      let acc = Accel.generate ~rows:4 ~cols:4 ~counters:true design env in
      (* static proof: no data runs through the accelerator; only its
         control slice is recorded on the tape *)
      let r = Absint.Report.of_accel acc in
      Alcotest.(check bool) (tag ^ " safe") true r.Absint.Report.safe;
      Alcotest.(check (list Alcotest.string)) (tag ^ " gate") []
        (List.map
           (fun (f : Lint.Finding.t) -> f.Lint.Finding.rule)
           (Proof.gate r.Absint.Report.findings));
      let sv = r.Absint.Report.savings in
      Alcotest.(check bool) (tag ^ " narrows") true
        (sv.Absint.Narrow.reg_bits_after < sv.Absint.Narrow.reg_bits_before);
      Alcotest.(check bool) (tag ^ " json safe") true
        (contains (Absint.Report.to_json r) "\"safe\": true"))
    tier1_cases

(* ---------------- the control slice on the tape vs the reference ---- *)

(* every slice node of each tier-1 design, as a ROM build and as a
   hardened programmable one with counters, recorded on the tape and
   replayed on the reference interpreter under random inputs *)
let test_stream_vs_reference () =
  let rng = Random.State.make [| 23 |] in
  List.iter
    (fun (tag, stmt, dname) ->
      let design = Search.find_design_exn stmt dname in
      let env = Exec.alloc_inputs stmt in
      let envelope =
        Layout.envelope ~headroom:2 (Layout.build design ~rows:4 ~cols:4)
      in
      List.iter
        (fun (combo, acc) ->
          let circuit = acc.Accel.circuit in
          let slice = Stream.build circuit in
          let track =
            List.filter (Stream.in_slice slice)
              (Array.to_list (Circuit.nodes circuit))
          in
          let run =
            Stream.record slice ~cycles:(Accel.planned_cycles acc + 4) ~track
          in
          let what = tag ^ " " ^ combo in
          Alcotest.(check bool) (what ^ " quiesces") true
            (run.Stream.saturation <> None);
          Alcotest.(check (list string)) what []
            (Oracle.Refsim.stream_differences circuit slice ~rng run))
        [ ("rom", Accel.generate ~rows:4 ~cols:4 design env);
          ( "prog2+ctr+full",
            Accel.generate ~rows:4 ~cols:4 ~counters:true ~harden:Harden.full
              ~programmable:envelope design env ) ])
    tier1_cases

(* ---------------- --data-bound proofs ------------------------------- *)

let bounded ~acc_width ~bound design stmt =
  let acc =
    Accel.generate ~rows:4 ~cols:4 ~data_width:8 ~acc_width design
      (Exec.alloc_inputs stmt)
  in
  (acc, Absint.Report.of_accel ~data_bound:bound acc)

(* with 8-bit data bounded by 128, products reach 127 * 127 and four of
   them overflow a 12-bit accumulator: the baked-in data, which keep it
   small, must not make the proof *)
let test_data_bound_repro () =
  let stmt = Workloads.gemm ~m:4 ~n:4 ~k:4 in
  let design = Search.find_design_exn stmt "MNK-SST" in
  let _, r = bounded ~acc_width:12 ~bound:128 design stmt in
  Alcotest.(check bool) "unproven" false r.Absint.Report.safe;
  Alcotest.(check bool) "L200" true
    (has_rule "L200" (Proof.gate r.Absint.Report.findings));
  (* the banks take the unproven accumulators' values: no bank proof *)
  Alcotest.(check (list string)) "no bank proof" []
    (List.filter
       (fun p -> contains p "bank cells stay")
       r.Absint.Report.proofs)

(* a SAFE verdict under [--data-bound b] must hold for any data within
   the bound: every extreme (each input tensor all [b] or all [-b], clamped
   to the 8-bit data width) runs exactly on the accelerator *)
let test_data_bound_sound () =
  let safe = ref 0 in
  List.iter
    (fun (tag, stmt, dname) ->
      let design = Search.find_design_exn stmt dname in
      List.iter
        (fun (acc_width, bound) ->
          let acc, r = bounded ~acc_width ~bound design stmt in
          if r.Absint.Report.safe then begin
            incr safe;
            let inputs = Exec.alloc_inputs stmt in
            for signs = 0 to (1 lsl List.length inputs) - 1 do
              let env =
                List.mapi
                  (fun i (name, t) ->
                    let v =
                      if signs land (1 lsl i) = 0 then min bound 127
                      else -min bound 128
                    in
                    (name, Dense.map (fun _ -> v) t))
                  inputs
              in
              if not (Dense.equal (Exec.run stmt env)
                        (Accel.execute_with acc env))
              then
                Alcotest.failf "%s acc-width %d bound %d: SAFE, but data %d \
                                diverges" tag acc_width bound signs
            done
          end)
        [ (12, 3); (12, 128); (16, 128); (20, 128) ])
    tier1_cases;
  Alcotest.(check bool) "some bound proven" true (!safe > 0)

(* ---------------- SARIF export -------------------------------------- *)

let test_sarif () =
  let fs =
    [ Lint.Finding.v ~rule:"L200" ~target:"t" ~subject:"acc" "may wrap";
      Lint.Finding.v ~rule:"L203" ~target:"t" ~subject:"k" "constant" ]
  in
  let s = Lint.Finding.to_sarif fs in
  Alcotest.(check bool) "version" true (contains s "\"version\": \"2.1.0\"");
  Alcotest.(check bool) "ruleId" true (contains s "\"ruleId\": \"L200\"");
  Alcotest.(check bool) "rule title" true (contains s "accumulator-may-wrap");
  Alcotest.(check bool) "info is note" true (contains s "\"level\": \"note\"");
  Alcotest.(check bool) "logical location" true
    (contains s "\"fullyQualifiedName\": \"t/acc\"")

(* ---------------- width-mismatch diagnostics ------------------------ *)

let test_blame_messages () =
  let open Signal in
  let a = input "alpha" 8 and b = input "beta" 4 in
  (try
     ignore (a +: b);
     Alcotest.fail "expected mismatch"
   with Width_mismatch msg ->
     Alcotest.(check bool) "names alpha" true (contains msg "'alpha'");
     Alcotest.(check bool) "names beta" true (contains msg "'beta'"));
  (* anonymous expression anchored to the nearest named signal *)
  let r = reg (const ~width:8 5) -- "acc" in
  let anon = r +: const ~width:8 1 in
  let w4 = wire 4 in
  (try
     assign w4 anon;
     Alcotest.fail "expected mismatch"
   with Width_mismatch msg ->
     Alcotest.(check bool) "near acc" true (contains msg "near 'acc'"));
  Alcotest.(check (option Alcotest.string)) "nearest_named" (Some "acc")
    (nearest_named anon)

let suite =
  [ Alcotest.test_case "av-transfer-soundness" `Quick test_av_soundness;
    Alcotest.test_case "engine-mod10-counter" `Quick test_engine_counter;
    Alcotest.test_case "stream-slice" `Quick test_stream_slice;
    Alcotest.test_case "L200-overflowing-acc" `Quick
      test_l200_overflowing_acc;
    Alcotest.test_case "L201-oob-write" `Quick test_l201_oob_write;
    Alcotest.test_case "L201-L202-clean" `Quick test_l201_l202_clean;
    Alcotest.test_case "L202-stuck-strobe" `Quick test_l202_stuck_strobe;
    Alcotest.test_case "L203-constant-register" `Quick
      test_l203_constant_register;
    Alcotest.test_case "L204-dead-high-bits" `Quick
      test_l204_dead_high_bits;
    Alcotest.test_case "narrow-differential" `Quick test_narrow_differential;
    Alcotest.test_case "tier1-proven-safe" `Quick test_tier1_proven_safe;
    Alcotest.test_case "stream-vs-reference" `Quick test_stream_vs_reference;
    Alcotest.test_case "data-bound-repro-unproven" `Quick
      test_data_bound_repro;
    Alcotest.test_case "data-bound-sound" `Quick test_data_bound_sound;
    Alcotest.test_case "sarif-export" `Quick test_sarif;
    Alcotest.test_case "blame-messages" `Quick test_blame_messages ]
