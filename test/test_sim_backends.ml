(* Differential testing of the simulator backends (instruction tape,
   bit-sliced batch) against each other and against the reference
   interpreter [Oracle.Refsim], Tl_par pool semantics, and a smoke run of
   the benchmark gate. *)

open Tensorlib
open Signal

(* ---------------- random-netlist differential property ---------------- *)

(* Random circuits covering every node kind: mixed widths, signed compares
   and shifts, concat/repl/select, muxes with constant selects (exercising
   the tape's alias folding), registers with enable + clear, wire feedback
   and a read/write ram. *)
let random_circuit rng =
  let ri n = Random.State.int rng n in
  let x = input "x" 8 and y = input "y" 6 in
  let pool =
    ref
      [ x; y; const ~width:8 (ri 256); const ~width:6 (ri 64);
        const ~width:3 (ri 8); vdd; gnd ]
  in
  let push s = pool := s :: !pool in
  let pick () = List.nth !pool (ri (List.length !pool)) in
  let pick_w w =
    match List.filter (fun s -> width s = w) !pool with
    | [] -> const ~width:w (ri 1000)
    | l -> List.nth l (ri (List.length l))
  in
  (* registers with wire feedback *)
  let fb = wire 8 in
  let r =
    reg ~enable:(bit y 0) ~clear:(bit y 1) ~clear_to:(ri 256) ~init:(ri 256)
      fb
  in
  push r;
  push (reg (pick_w 6));
  (* read/write ram *)
  let m = ram ~size:8 ~width:8 ~init:(Array.init 8 (fun i -> i * 7 mod 256)) () in
  for _ = 1 to 30 do
    let a = pick () in
    let wa = width a in
    let b = pick_w wa in
    let s =
      match ri 16 with
      | 0 -> a +: b
      | 1 -> a -: b
      | 2 -> a *: b
      | 3 -> a &: b
      | 4 -> a |: b
      | 5 -> a ^: b
      | 6 -> not_ a
      | 7 -> eq a b
      | 8 -> ult a b
      | 9 -> slt a b
      | 10 -> shift_left a (ri wa)
      | 11 -> shift_right_l a (ri wa)
      | 12 -> shift_right_a a (ri wa)
      | 13 when wa + width b <= 20 -> concat [ a; b ]
      | 13 -> mux2 (pick_w 1) a b
      | 14 when wa <= 10 -> repl a (1 + ri 3)
      | 14 -> uresize a (wa + ri 4)
      | _ ->
        let lo = ri wa in
        select a ~hi:(lo + ri (wa - lo)) ~lo
    in
    if width s <= 62 then push s
  done;
  ram_write m ~we:(pick_w 1) ~addr:(pick_w 3) ~data:(pick_w 8);
  let rd = ram_read m (pick_w 3) in
  push rd;
  assign fb (pick_w 8);
  (* the explicit read output keeps the ram (and its write cone) reachable *)
  let outs =
    ("rr", rd) :: List.init 4 (fun k -> (Printf.sprintf "o%d" k, pick ()))
  in
  (Circuit.create ~name:"diff" ~outputs:outs, m)

let test_differential_random () =
  let rng = Random.State.make [| 42 |] in
  for case = 1 to 40 do
    let circ, m = random_circuit rng in
    let tape = Sim.create circ in
    let reference = Oracle.Refsim.create circ in
    for cyc = 1 to 15 do
      let xv = Random.State.int rng 256 and yv = Random.State.int rng 64 in
      (* an input can be unreachable from the sampled outputs *)
      let set f nm v = try f nm v with Not_found -> () in
      set (Sim.set_input tape) "x" xv;
      set (Sim.set_input tape) "y" yv;
      set (Oracle.Refsim.set_input reference) "x" xv;
      set (Oracle.Refsim.set_input reference) "y" yv;
      Sim.settle tape;
      Oracle.Refsim.settle reference;
      (* every node (through any tape aliasing) must agree post-settle *)
      Array.iter
        (fun n ->
          let a = Sim.peek tape n and b = Oracle.Refsim.peek reference n in
          if a <> b then
            Alcotest.failf "case %d cycle %d: node %d (width %d): %d <> %d"
              case cyc n.id n.width a b)
        (Circuit.nodes circ);
      List.iter
        (fun (nm, _) ->
          if Sim.output tape nm <> Oracle.Refsim.output reference nm then
            Alcotest.failf "case %d cycle %d: output %s differs" case cyc nm)
        (Circuit.outputs circ);
      (* advance the clock edge (settle is idempotent, so cycle's second
         settle recomputes the same values before latching) *)
      Sim.cycle tape;
      Oracle.Refsim.cycle reference;
      if Sim.ram_contents tape m <> Oracle.Refsim.ram_contents reference m
      then Alcotest.failf "case %d cycle %d: ram contents diverged" case cyc
    done
  done

(* ---------------- batch backend: per-lane differential ----------------- *)

(* Every lane of a bit-sliced simulation must replay the scalar tape
   trace for that lane's stimuli: all nodes post-settle, all ram
   contents post-edge. *)
let test_batch_lane_differential () =
  let rng = Random.State.make [| 77 |] in
  for case = 1 to 8 do
    let circ, m = random_circuit rng in
    (* full width on even cases, a random narrower width on odd ones *)
    let lanes =
      if case mod 2 = 0 then Sim.max_lanes
      else 1 + Random.State.int rng Sim.max_lanes
    in
    let batch = Sim.create ~backend:`Batch ~lanes circ in
    Alcotest.(check int) "lane count" lanes (Sim.lanes batch);
    let scalars = Array.init lanes (fun _ -> Sim.create circ) in
    for cyc = 1 to 12 do
      let set s nm v = try Sim.set_input s nm v with Not_found -> () in
      let setl l nm v =
        try Sim.set_input_lane batch l nm v with Not_found -> ()
      in
      Array.iteri
        (fun l s ->
          let xv = Random.State.int rng 256
          and yv = Random.State.int rng 64 in
          set s "x" xv;
          set s "y" yv;
          setl l "x" xv;
          setl l "y" yv)
        scalars;
      Sim.settle batch;
      Array.iter Sim.settle scalars;
      Array.iteri
        (fun l s ->
          Array.iter
            (fun nd ->
              let a = Sim.peek_lane batch l nd and b = Sim.peek s nd in
              if a <> b then
                Alcotest.failf
                  "case %d cycle %d lane %d: node %d (width %d): batch %d \
                   <> tape %d"
                  case cyc l nd.id nd.width a b)
            (Circuit.nodes circ))
        scalars;
      Sim.cycle batch;
      Array.iter Sim.cycle scalars;
      Array.iteri
        (fun l s ->
          if Sim.ram_contents_lane batch l m <> Sim.ram_contents s m then
            Alcotest.failf "case %d cycle %d lane %d: ram diverged" case cyc
              l)
        scalars
    done
  done

(* ---------------- workload differential vs the golden executor -------- *)

let check_workload stmt dname rows cols () =
  let d = Search.find_design_exn stmt dname in
  let env = Exec.alloc_inputs stmt in
  let acc = Accel.generate ~rows ~cols d env in
  let golden = Exec.run stmt env in
  Alcotest.(check bool)
    (dname ^ " tape = golden") true
    (Dense.equal golden (Accel.execute acc));
  let sim = Sim.create acc.Accel.circuit in
  Alcotest.(check (list string))
    (dname ^ " reference = tape") []
    (Oracle.Refsim.run_against acc.Accel.circuit sim
       (Accel.planned_cycles acc));
  Alcotest.(check bool)
    (dname ^ " batch = golden") true
    (Dense.equal golden (Accel.execute ~backend:`Batch acc))

(* One bit-sliced pass over several input environments must reproduce
   scalar [execute_with] on each, in order. *)
let test_execute_batch_matches_scalar () =
  let stmt = Workloads.gemm ~m:4 ~n:4 ~k:4 in
  let d = Search.find_design_exn stmt "MNK-SST" in
  let env0 = Exec.alloc_inputs stmt in
  let acc = Accel.generate ~rows:4 ~cols:4 d env0 in
  let envs = List.init 7 (fun k -> Exec.alloc_inputs ~seed:(100 + k) stmt) in
  let batched = Accel.execute_batch acc envs in
  Alcotest.(check int) "result per env" (List.length envs)
    (List.length batched);
  List.iter2
    (fun env out ->
      Alcotest.(check bool)
        "lane = scalar execute_with" true
        (Dense.equal out (Accel.execute_with acc env));
      Alcotest.(check bool)
        "lane = golden executor" true
        (Dense.equal out (Exec.run stmt env)))
    envs batched;
  Alcotest.check_raises "empty env list rejected"
    (Invalid_argument "Accel.execute_batch: no environments") (fun () ->
      ignore (Accel.execute_batch acc []))

let test_gemm_both =
  check_workload (Workloads.gemm ~m:4 ~n:4 ~k:5) "MNK-SST" 8 8

let test_conv_both =
  check_workload (Workloads.conv2d ~k:4 ~c:4 ~y:4 ~x:4 ~p:3 ~q:3) "KCX-SST" 8 8

let test_depthwise_both =
  check_workload (Workloads.depthwise_conv ~k:4 ~y:4 ~x:4 ~p:3 ~q:3) "XYP-MMM"
    8 8

let test_mttkrp_both =
  check_workload (Workloads.mttkrp ~i:4 ~j:4 ~k:4 ~l:4) "IKL-UBBB" 8 8

(* ---------------- reset reproducibility ------------------------------- *)

let counter_trace backend =
  let fb = wire 8 in
  let c = reg fb in
  assign fb (c +: const ~width:8 1);
  let m = ram ~size:4 ~width:8 ~init:(Array.make 4 0) () in
  ram_write m ~we:vdd ~addr:(select c ~hi:1 ~lo:0) ~data:c;
  let circ =
    Circuit.create ~name:"ctr" ~outputs:[ ("c", c); ("r", ram_read m (select c ~hi:1 ~lo:0)) ]
  in
  let s = Sim.create ~backend circ in
  let run () =
    List.init 9 (fun _ ->
        Sim.cycle s;
        (Sim.output s "c", Sim.output s "r"))
  in
  let first = run () in
  Sim.reset s;
  let second = run () in
  (first, second)

let test_reset_reproducible () =
  List.iter
    (fun backend ->
      let first, second = counter_trace backend in
      Alcotest.(check (list (pair int int)))
        "trace replays after reset" first second)
    [ `Tape; `Batch ]

(* Stale per-lane force masks must not survive [reset]: a reused batch
   simulator would otherwise leak stuck bits into the next campaign's
   trials (the scalar force array is cleared the same way). *)
let test_batch_reset_drops_forces () =
  let fb = wire 8 in
  let c = reg fb in
  assign fb (c +: const ~width:8 1);
  let circ = Circuit.create ~name:"ctr" ~outputs:[ ("c", c) ] in
  let s = Sim.create ~backend:`Batch ~lanes:4 circ in
  let run () =
    List.init 6 (fun _ ->
        Sim.cycle s;
        List.init 4 (fun l -> Sim.output_lane s l "c"))
  in
  let clean = run () in
  Sim.reset s;
  Sim.force_lane s 2 c ~and_mask:0 ~or_mask:0x55;
  let forced = run () in
  Alcotest.(check bool) "forced lane diverges" true (forced <> clean);
  (* the other lanes keep counting *)
  Alcotest.(check (list int))
    "lane 0 unaffected"
    (List.map (fun row -> List.nth row 0) clean)
    (List.map (fun row -> List.nth row 0) forced);
  Sim.reset s;
  Alcotest.(check (list (list int))) "reset drops per-lane forces" clean
    (run ());
  (* and the same through clear_forces on a live simulator *)
  Sim.reset s;
  Sim.force_lane s 1 c ~and_mask:0 ~or_mask:0xff;
  Sim.clear_forces s;
  Sim.reset s;
  Alcotest.(check (list (list int))) "clear_forces + reset is clean" clean
    (run ())

let test_output_not_found () =
  let s = Sim.create (Circuit.create ~name:"t" ~outputs:[ ("o", vdd) ]) in
  Alcotest.check_raises "unknown output" Not_found (fun () ->
      ignore (Sim.output s "nope"))

(* ---------------- Tl_par pool semantics ------------------------------- *)

let test_par_deterministic () =
  let xs = List.init 100 Fun.id in
  let f i = string_of_int (i * i + 1) in
  let seq = List.map f xs in
  let p1 = Par.map ~domains:4 f xs in
  let p2 = Par.map ~domains:4 f xs in
  Alcotest.(check (list string)) "par = seq (ordered)" seq p1;
  Alcotest.(check (list string)) "two runs identical" p1 p2;
  Alcotest.(check (list string))
    "mapi indices line up" seq
    (Par.mapi ~domains:4 (fun i _ -> f i) xs)

let test_par_exception () =
  match
    Par.map ~domains:4
      (fun i -> if i mod 7 = 3 then failwith (string_of_int i) else i)
      (List.init 50 Fun.id)
  with
  | exception Failure msg ->
    Alcotest.(check string) "lowest failing index wins" "3" msg
  | _ -> Alcotest.fail "expected Failure"

let test_par_explore_deterministic () =
  let gemm = Workloads.gemm ~m:16 ~n:16 ~k:16 in
  let seq = Explore.explore ~limit:6 ~domains:1 gemm in
  let par = Explore.explore ~limit:6 ~domains:4 gemm in
  Alcotest.(check int) "same count" (List.length seq) (List.length par);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        "same design order, same numbers" true
        (a.Explore.perf.Perf.cycles = b.Explore.perf.Perf.cycles
        && a.Explore.gops_per_watt = b.Explore.gops_per_watt))
    seq par;
  (* enumeration fans out per loop selection: depthwise has ten of them,
     GEMM only one *)
  let dw = Workloads.depthwise_conv ~k:4 ~y:4 ~x:4 ~p:3 ~q:3 in
  let signatures domains =
    List.map
      (fun p -> p.Enumerate.signature)
      (Enumerate.design_space ~domains dw)
  in
  Alcotest.(check (list string))
    "enumerate: same signatures, same order" (signatures 1) (signatures 3)

let suite =
  [ Alcotest.test_case "tape vs reference: random netlists" `Quick
      test_differential_random;
    Alcotest.test_case "batch lanes vs tape: random netlists" `Quick
      test_batch_lane_differential;
    Alcotest.test_case "gemm all backends = golden" `Quick test_gemm_both;
    Alcotest.test_case "conv2d all backends = golden" `Quick test_conv_both;
    Alcotest.test_case "depthwise all backends = golden" `Quick
      test_depthwise_both;
    Alcotest.test_case "mttkrp all backends = golden" `Quick
      test_mttkrp_both;
    Alcotest.test_case "execute_batch = scalar execute_with" `Quick
      test_execute_batch_matches_scalar;
    Alcotest.test_case "reset reproduces the trace" `Quick
      test_reset_reproducible;
    Alcotest.test_case "batch reset drops per-lane forces" `Quick
      test_batch_reset_drops_forces;
    Alcotest.test_case "output raises Not_found" `Quick
      test_output_not_found;
    Alcotest.test_case "par map deterministic" `Quick test_par_deterministic;
    Alcotest.test_case "par exception order" `Quick test_par_exception;
    Alcotest.test_case "par explore deterministic" `Quick
      test_par_explore_deterministic ]
