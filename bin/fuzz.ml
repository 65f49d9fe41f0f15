(* Design-space fuzzer: random statements x random transformations, each
   netlist-supported design elaborated, simulated, and checked against the
   golden executor.  A standing end-to-end soundness harness for the
   generator (the CI-style long-running counterpart of the property tests).

   Five phases:
   - designs: random stmt x random STT; the golden executor [Exec.run]
     must equal the point-by-point [Oracle.exec_run] on every trial's
     statement and inputs, generated accelerators must match the golden
     executor, and the lint must report no error-severity
     finding on the generated netlist, before or after [Rewrite].  Every
     node of the control slice, recorded by [Absint.Stream.record] on the
     tape for the planned cycles plus 4, must take the recorded value on
     every cycle of an [Oracle.Refsim] run whose inputs the trial's RNG
     drives, and the reference's slice registers must give the recorded
     [saturation] and [repeat].  A seeded 16-fault plan over the
     accelerator's memory cells runs through [Campaign.run_faults], and
     every fault it prunes ([Campaign.prunable]) must end, flipped on an
     [Oracle.Refsim] run, with [done] = 1 and every output cell equal to
     golden.  Trials run on the Tl_par domain pool (override width with
     TL_DOMAINS=n).
   - netlists: random raw netlists; the lint must never crash, and
     [Rewrite.circuit] must never introduce a finding (per-rule counts
     never grow).  A slice of deliberately broken netlists checks that
     unassigned wires and combinational cycles surface as L001/L002
     findings instead of exceptions.
   - absint: abstract-interpretation soundness.  The Tl_absint engine's
     abstract value for every node must contain the node's simulated value
     on every cycle of a random stimulus, on the [`Tape] simulator and on
     the reference interpreter [Oracle.Refsim]; and the analysis-narrowed
     circuit ([Absint.Narrow.circuit]) must stay cycle-for-cycle
     output-equivalent to the original under the same stimulus, on both.
   - batch lanes: bit-sliced simulation soundness.  Random netlists driven
     with 62 independent random lane stimuli under [`Batch] must be
     bit-identical, lane by lane and node by node, to [`Tape] and
     reference-interpreter replays of each lane's stimulus.
   - perf stats: random stmt (a third of its index terms sum two
     iterators, like conv's [y+p]) x random STT on a random 2..9 x 2..9
     array; the closed-form tile statistics must equal the materialised
     ones of [Oracle] exactly, and on every 10th case [Perf.evaluate]
     (pruned search, closed-form statistics) must return the record of
     [Oracle.evaluate_reference] (exhaustive search, materialised
     statistics) or raise the same exception, and [Enumerate.design_space] of the statement must
     equal the per-candidate [Oracle.design_space] (signatures and
     matrices, in order).  Every case's statement also runs through
     [Exec.run] and [Oracle.exec_run] on full-width random data, so
     products and sums wrap.  Every case also draws, from its own
     generator, an [Oracle.classifier_case] (coefficients above 1 and
     sums, integer matrices with n = 2, 3 or 4), on which [Design.analyze]
     must return the rational reference's design ([Oracle.analyze]), or
     refuse on overflow only where the reference overflows too; and an
     [Oracle.boundary_matrix] (n = 2 to 5, entries at the edges of
     native ints), on which [Transform.check] must accept exactly with
     the determinant [Mat.det] finds, or call singular exactly where it
     is 0, wherever both answer ([Oracle.check_rank]); and an
     [Oracle.payload_case] (a few evaluated points with random area and
     power bits, encoded as a store payload and damaged), which
     [Network.decode_points] must read bit for bit as the line-splitting
     [Oracle.decode_points] does, [None] included, without raising
     ([Oracle.check_payload]).

   Usage: dune exec bin/fuzz.exe -- [iterations] [seed]
   (iterations >= 1, default 200; seed any integer, default 2024; anything
   else prints the usage line to stderr and exits 2) *)

open Tensorlib

(* With [~sums:true] a third of the index terms add a second iterator, as
   conv's [y+p] does: only such accesses reach systolic reuse with
   [dt >= 2] or STTs with [|det T| = 2]. *)
let random_stmt ?(sums = false) rng =
  let extent () = 2 + Random.State.int rng 3 in
  let depth = 3 + Random.State.int rng 2 in
  let names = [| "i"; "j"; "k"; "l" |] in
  let iters = List.init depth (fun d -> Iter.v names.(d) (extent ())) in
  let term j =
    if sums && Random.State.int rng 3 = 0 then
      [ j; (j + 1 + Random.State.int rng (depth - 1)) mod depth ]
    else [ j ]
  in
  let access name =
    (* non-empty random subset of iterators, one coefficient-1 term each
       (plus a second iterator under [~sums]) *)
    let rec rows () =
      let chosen =
        List.filteri (fun _ _ -> Random.State.bool rng) (List.init depth Fun.id)
      in
      if chosen = [] then rows () else chosen
    in
    Access.of_terms name ~depth (List.map term (rows ()))
  in
  let inputs =
    if Random.State.bool rng then [ access "A"; access "B" ]
    else [ access "A"; access "B"; access "C" ]
  in
  Stmt.v "fuzz" ~iters ~output:(access "O") ~inputs

let random_transform rng stmt =
  let depth = Stmt.depth stmt in
  let selected =
    (* random 3-combination *)
    let all = Array.init depth Fun.id in
    for i = depth - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = all.(i) in
      all.(i) <- all.(j);
      all.(j) <- t
    done;
    Array.sub all 0 3
  in
  Array.sort compare selected;
  let rec matrix () =
    let m =
      List.init 3 (fun _ -> List.init 3 (fun _ -> Random.State.int rng 3 - 1))
    in
    if Tl_linalg.Rat.is_zero (Tl_linalg.Mat.det (Tl_linalg.Mat.of_int_rows m))
    then matrix ()
    else m
  in
  Transform.v stmt ~selected ~matrix:(matrix ())

(* ---------------- lint differential oracle ---------------- *)

(* Keep L012 quiet: the generator shares leaves freely, so folding can push
   an individual signal's fanout across any small threshold without adding
   logic.  Every other rule is compared by exact per-rule count. *)
let fuzz_lint_config =
  { Lint.Netlist.default_config with fanout_threshold = 1000 }

let rule_counts findings =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (f : Lint.Finding.t) ->
      let n =
        match Hashtbl.find_opt tbl f.Lint.Finding.rule with
        | Some n -> n
        | None -> 0
      in
      Hashtbl.replace tbl f.Lint.Finding.rule (n + 1))
    findings;
  tbl

let introduced ~before ~after =
  let b = rule_counts before and a = rule_counts after in
  Hashtbl.fold
    (fun rule n acc ->
      let m = match Hashtbl.find_opt b rule with Some m -> m | None -> 0 in
      if n > m then (rule, m, n) :: acc else acc)
    a []

(* Random netlists built so that [Rewrite] cannot merely *reveal* a latent
   warning: register data inputs are [q op expr] (the feedback term [q]
   never folds to a constant), enables and write strobes are input bits,
   and ram addresses are input slices.  Under those constraints any finding
   whose count grows across [Rewrite.circuit] is a genuine optimiser bug. *)
let random_netlist rng =
  let open Signal in
  let w = 8 in
  let x = input "x" w and y = input "y" w in
  let nregs = 1 + Random.State.int rng 3 in
  let wires = Array.init nregs (fun _ -> wire w) in
  let regs =
    Array.init nregs (fun i -> reg ~enable:(bit x (i mod w)) wires.(i))
  in
  let rec expr depth =
    if depth = 0 then
      match Random.State.int rng 4 with
      | 0 -> x
      | 1 -> y
      | 2 -> const ~width:w (Random.State.int rng 256)
      | _ -> regs.(Random.State.int rng nregs)
    else
      let e () = expr (depth - 1) in
      match Random.State.int rng 9 with
      | 0 -> e () +: e ()
      | 1 -> e () -: e ()
      | 2 -> e () *: e ()
      | 3 -> e () &: e ()
      | 4 -> e () ^: e ()
      | 5 -> mux2 (bit (e ()) 0) (e ()) (e ())
      | 6 ->
        (* deliberate L004: identical branches *)
        let b = e () in
        mux2 (bit x 0) b b
      | 7 ->
        (* deliberate L005: constant select *)
        mux2 (if Random.State.bool rng then vdd else gnd) (e ()) (e ())
      | _ -> uresize (select (e ()) ~hi:(w - 2) ~lo:1) w
  in
  Array.iteri
    (fun i wr ->
      let op =
        match Random.State.int rng 3 with 0 -> ( +: ) | 1 -> ( -: ) | _ -> ( ^: )
      in
      assign wr (op regs.(i) (expr 2)))
    wires;
  let r = ram ~size:8 ~width:w ~init:(Array.make 8 0) () in
  ram_write r ~we:(bit y 0)
    ~addr:(select x ~hi:2 ~lo:0)
    ~data:(expr 2);
  let read = ram_read r (select y ~hi:2 ~lo:0) in
  Lint.Netlist.source ~name:"fuzz_netlist"
    ~declared_inputs:[ ("x", w); ("y", w) ]
    [ ("o0", expr 3); ("o1", regs.(0)); ("o2", read) ]

let broken_netlist rng =
  let open Signal in
  let x = input "x" 8 in
  if Random.State.bool rng then
    (* unassigned wire *)
    let dangling = wire 8 -- "dangling" in
    ("L001", Lint.Netlist.source ~name:"fuzz_broken" [ ("o", x +: dangling) ])
  else
    (* combinational cycle *)
    let loop = wire 8 -- "loop" in
    assign loop (x +: loop);
    ("L002", Lint.Netlist.source ~name:"fuzz_broken" [ ("o", loop) ])

(* The two scalar simulators phases 3 and 4 run side by side: the
   instruction tape and the reference interpreter. *)
type scalar = {
  set_input : string -> int -> unit;
  settle : unit -> unit;
  latch : unit -> unit;
  peek : Signal.t -> int;
  output : string -> int;
}

let scalars =
  [ ( "tape",
      fun circuit ->
        let s = Sim.create circuit in
        { set_input = Sim.set_input s;
          settle = (fun () -> Sim.settle s);
          latch = (fun () -> Sim.latch s);
          peek = Sim.peek s;
          output = Sim.output s } );
    ( "reference",
      fun circuit ->
        let r = Oracle.Refsim.create circuit in
        { set_input = Oracle.Refsim.set_input r;
          settle = (fun () -> Oracle.Refsim.settle r);
          latch = (fun () -> Oracle.Refsim.latch r);
          peek = Oracle.Refsim.peek r;
          output = Oracle.Refsim.output r } ) ]

let usage () =
  prerr_endline "usage: fuzz.exe [iterations >= 1] [seed]";
  exit 2

(* what one phase-1 trial reports back from the domain pool *)
type trial = {
  checked : int;
  skipped : int;
  failed : int;
  exec_mismatches : int;
  slice_nodes : int;
  stream_violations : int;
  pruned : int;
  pruning_violations : int;
  report : string;
}

(* [Exec.run] against the point-by-point interpreter it replaced, on one
   statement and its inputs: the mismatch count (0 or 1) and a report *)
let exec_vs_oracle ~what stmt env =
  let outcome f =
    match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
  in
  let fast = outcome (fun () -> Exec.run stmt env) in
  let reference = outcome (fun () -> Oracle.exec_run stmt env) in
  let same =
    match (fast, reference) with
    | Ok a, Ok b -> Dense.equal a b
    | Error a, Error b -> a = b
    | _ -> false
  in
  if same then (0, "")
  else (1, Format.asprintf "EXEC FAIL at %s: %a@." what Stmt.pp stmt)

(* A seeded plan over [acc]'s memory cells through the campaign: every
   fault it prunes, flipped on the reference interpreter, must end with
   [done] = 1 and the golden output cells.  Returns the pruned count and
   a message per violation. *)
let pruning_check (acc : Accel.t) ~golden ~seed =
  let circuit = acc.Accel.circuit in
  let planned = Accel.planned_cycles acc in
  let faults =
    Fault.plan ~seed ~trials:16 ~cycles:planned
      (Fault.table ~classes:[ Fault.Memory; Fault.Rom ] circuit)
  in
  let report =
    Campaign.run_faults
      ~config:{ Campaign.default_config with domains = Some 1 }
      ~golden acc faults
  in
  let dead = List.filter (Campaign.prunable ~golden acc) faults in
  let cells = Accel.golden_cells acc golden in
  let ends_golden = function
    | Fault.Flip_mem { ram; addr; bit; cycle; _ } ->
      let r = Oracle.Refsim.create circuit in
      for c = 0 to planned - 1 do
        if c = cycle then
          Oracle.Refsim.poke_ram r ram addr
            ((Oracle.Refsim.ram_contents r ram).(addr) lxor (1 lsl bit));
        Oracle.Refsim.cycle r
      done;
      Oracle.Refsim.output r "done" = 1
      && List.for_all
           (fun (bank, a, expect) ->
             Signal.to_signed acc.Accel.acc_width
               (Oracle.Refsim.ram_contents r bank).(a)
             = expect)
           cells
    | Fault.Flip_reg _ | Fault.Stuck_reg _ -> false
  in
  let count =
    if report.Campaign.pruned = List.length dead then []
    else
      [ Printf.sprintf "the campaign pruned %d faults, prunable holds for %d"
          report.Campaign.pruned (List.length dead) ]
  in
  ( List.length dead,
    count
    @ List.filter_map
        (fun f ->
          if ends_golden f then None
          else Some (Fault.fault_label f ^ " was pruned but changes the run"))
        dead )

let () =
  let arg i default =
    if Array.length Sys.argv <= i then default
    else
      match int_of_string_opt Sys.argv.(i) with
      | Some n -> n
      | None -> usage ()
  in
  if Array.length Sys.argv > 3 then usage ();
  let iterations = arg 1 200 and seed = arg 2 2024 in
  if iterations < 1 then usage ();
  let rng = Random.State.make [| seed |] in
  (* phase 1: designs.  Trials are independent — each draws from its own
     [seed; i] PRNG — so they fan out over the Tl_par domain pool; reports
     come back as strings and print in trial order. *)
  let trial i =
    let rng = Random.State.make [| seed; i |] in
    let stmt = random_stmt rng in
    let env = Exec.alloc_inputs ~seed:i stmt in
    let exec_mismatches, exec_report =
      exec_vs_oracle ~what:(Printf.sprintf "iteration %d" i) stmt env
    in
    let skipped =
      { checked = 0; skipped = 1; failed = 0; exec_mismatches;
        slice_nodes = 0; stream_violations = 0; pruned = 0;
        pruning_violations = 0; report = exec_report }
    in
    let t = random_transform rng stmt in
    let d = Design.analyze t in
    if not (Design.netlist_supported d) then skipped
    else
      match Accel.generate ~rows:12 ~cols:12 d env with
      | exception Accel.Unsupported _ -> skipped
      | acc ->
        let buf = Buffer.create 64 in
        let fmt = Format.formatter_of_buffer buf in
        Buffer.add_string buf exec_report;
        let failures = ref 0 in
        let golden = Exec.run stmt env in
        if not (Dense.equal golden (Accel.execute acc)) then begin
          incr failures;
          Format.fprintf fmt "FAIL at iteration %d:@.%a@." i Design.pp_report d
        end;
        let design_errors =
          Lint.Finding.errors (Lint.Design.check_design ~rows:12 ~cols:12 d)
        in
        let netlist_errors =
          Lint.Finding.errors
            (Lint.Netlist.check_circuit ~config:fuzz_lint_config
               acc.Accel.circuit)
        in
        let rewritten_errors =
          Lint.Finding.errors
            (Lint.Netlist.check_circuit ~config:fuzz_lint_config
               (Rewrite.circuit acc.Accel.circuit))
        in
        List.iter
          (fun (what, errs) ->
            if errs <> [] then begin
              incr failures;
              Format.fprintf fmt "LINT FAIL at iteration %d (%s):@.%a@." i what
                Lint.Finding.pp_report errs
            end)
          [ ("design", design_errors); ("netlist", netlist_errors);
            ("rewritten netlist", rewritten_errors) ];
        (* the control slice recorded on the tape against the reference
           interpreter, whose inputs the trial's RNG drives *)
        let circuit = acc.Accel.circuit in
        let slice = Absint.Stream.build circuit in
        let track =
          List.filter (Absint.Stream.in_slice slice)
            (Array.to_list (Circuit.nodes circuit))
        in
        let run =
          Absint.Stream.record slice
            ~cycles:(Accel.planned_cycles acc + 4)
            ~track
        in
        let stream_diffs =
          Oracle.Refsim.stream_differences circuit slice ~rng run
        in
        List.iter
          (fun diff ->
            Format.fprintf fmt "STREAM FAIL at iteration %d: %s@." i diff)
          stream_diffs;
        let pruned, pruning_failures = pruning_check acc ~golden ~seed:i in
        List.iter
          (fun msg ->
            Format.fprintf fmt "PRUNING FAIL at iteration %d: %s@." i msg)
          pruning_failures;
        Format.pp_print_flush fmt ();
        { checked = 1; skipped = 0; failed = !failures; exec_mismatches;
          slice_nodes = List.length track;
          stream_violations = List.length stream_diffs;
          pruned; pruning_violations = List.length pruning_failures;
          report = Buffer.contents buf }
  in
  let results = Par.map trial (List.init iterations (fun i -> i + 1)) in
  let total f = List.fold_left (fun a r -> a + f r) 0 results in
  let checked = total (fun r -> r.checked) in
  let failed = ref (total (fun r -> r.failed)) in
  let exec_mismatches = total (fun r -> r.exec_mismatches) in
  let stream_violations = total (fun r -> r.stream_violations) in
  let pruning_violations = total (fun r -> r.pruning_violations) in
  List.iter (fun r -> print_string r.report) results;
  Printf.printf
    "fuzz designs: %d checked, %d skipped, %d failed; executor: %d \
     statements vs the oracle, %d mismatches (seed %d)\n"
    checked (total (fun r -> r.skipped)) !failed iterations exec_mismatches
    seed;
  Printf.printf
    "fuzz stream oracle: %d control slices, %d nodes recorded on the tape \
     vs the reference, %d violations\n"
    checked (total (fun r -> r.slice_nodes)) stream_violations;
  Printf.printf "fuzz fault pruning: %d plans, %d pruned, %d violations\n"
    checked (total (fun r -> r.pruned)) pruning_violations;
  (* phase 2: raw netlists through the lint differential oracle *)
  let linted = ref 0 and violations = ref 0 in
  for i = 1 to iterations do
    (if i mod 10 = 0 then
       (* broken netlists must surface as findings, not exceptions *)
       let expected_rule, src = broken_netlist rng in
       match Lint.Netlist.check_source ~config:fuzz_lint_config src with
       | exception e ->
         incr violations;
         Printf.printf "ORACLE FAIL at netlist %d: lint raised %s\n" i
           (Printexc.to_string e)
       | findings, circuit ->
         if circuit <> None
            || not
                 (List.exists
                    (fun (f : Lint.Finding.t) ->
                      f.Lint.Finding.rule = expected_rule)
                    findings)
         then begin
           incr violations;
           Printf.printf
             "ORACLE FAIL at netlist %d: broken netlist did not report %s\n" i
             expected_rule
         end);
    (let src = random_netlist rng in
      match Lint.Netlist.check_source ~config:fuzz_lint_config src with
      | exception e ->
        incr violations;
        Printf.printf "ORACLE FAIL at netlist %d: lint raised %s\n" i
          (Printexc.to_string e)
      | before, None ->
        incr violations;
        Printf.printf "ORACLE FAIL at netlist %d: valid netlist rejected:\n%s\n"
          i
          (Lint.Finding.to_json before)
      | before, Some circuit ->
        incr linted;
        let after =
          Lint.Netlist.check_circuit ~config:fuzz_lint_config
            (Rewrite.circuit circuit)
        in
        List.iter
          (fun (rule, m, n) ->
            incr violations;
            Printf.printf
              "ORACLE FAIL at netlist %d: Rewrite grew %s findings %d -> %d\n"
              i rule m n)
          (introduced ~before ~after))
  done;
  Printf.printf "fuzz lint oracle: %d netlists linted, %d violations\n" !linted
    !violations;
  (* phase 3: abstract-interpretation soundness oracle *)
  let absint_checked = ref 0 and absint_violations = ref 0 in
  let sim_cycles = 8 in
  for i = 1 to iterations do
    let src = random_netlist rng in
    match Lint.Netlist.check_source ~config:fuzz_lint_config src with
    | _, None -> ()
    | _, Some circuit -> (
      match Absint.Engine.run circuit with
      | exception e ->
        incr absint_violations;
        Printf.printf "ABSINT FAIL at netlist %d: engine raised %s\n" i
          (Printexc.to_string e)
      | engine ->
        incr absint_checked;
        let inputs = Circuit.inputs circuit in
        (* same stimulus for every backend and for the narrowed circuit *)
        let stimulus =
          Array.init sim_cycles (fun _ ->
              List.map
                (fun (name, w) ->
                  (name, Random.State.int rng (1 lsl min w 30)))
                inputs)
        in
        let narrowed, _, _ = Absint.Narrow.circuit ~engine circuit in
        (* constant folding may leave an input entirely unread, in which
           case it disappears from the narrowed circuit's input list *)
        let narrowed_inputs = List.map fst (Circuit.inputs narrowed) in
        List.iter
          (fun (what, make) ->
            let sim = make circuit and sim_n = make narrowed in
            Array.iter
              (fun bindings ->
                List.iter
                  (fun (name, v) ->
                    sim.set_input name v;
                    if List.mem name narrowed_inputs then
                      sim_n.set_input name v)
                  bindings;
                sim.settle ();
                sim_n.settle ();
                (* soundness: every settled node value must be a member of
                   its abstract value *)
                Array.iter
                  (fun node ->
                    let v = sim.peek node in
                    let av = Absint.Engine.value engine node in
                    if not (Absint.Av.mem v av) then begin
                      incr absint_violations;
                      Printf.printf
                        "ABSINT FAIL at netlist %d (%s): node #%d value %d \
                         outside %s\n"
                        i what node.Signal.id v
                        (Format.asprintf "%a" Absint.Av.pp av)
                    end)
                  (Circuit.nodes circuit);
                (* rewrite equivalence: narrowed outputs must agree *)
                List.iter
                  (fun (name, _) ->
                    let a = sim.output name and b = sim_n.output name in
                    if a <> b then begin
                      incr absint_violations;
                      Printf.printf
                        "ABSINT FAIL at netlist %d (%s): narrowed output %s \
                         disagrees (%d vs %d)\n"
                        i what name a b
                    end)
                  (Circuit.outputs circuit);
                sim.latch ();
                sim_n.latch ())
              stimulus)
          scalars)
  done;
  Printf.printf
    "fuzz absint oracle: %d netlists checked on the tape and the \
     reference, %d violations\n"
    !absint_checked !absint_violations;
  (* phase 4: bit-sliced batch backend lane oracle *)
  let batch_checked = ref 0 and batch_violations = ref 0 in
  let lanes = Sim.max_lanes in
  for i = 1 to iterations do
    let src = random_netlist rng in
    match Lint.Netlist.check_source ~config:fuzz_lint_config src with
    | _, None -> ()
    | _, Some circuit ->
      incr batch_checked;
      let inputs = Circuit.inputs circuit in
      let stimulus =
        Array.init sim_cycles (fun _ ->
            Array.init lanes (fun _ ->
                List.map
                  (fun (name, w) ->
                    (name, Random.State.int rng (1 lsl min w 30)))
                  inputs))
      in
      let batch = Sim.create ~backend:`Batch ~lanes circuit in
      let replays =
        List.map
          (fun (what, make) -> (what, Array.init lanes (fun _ -> make circuit)))
          scalars
      in
      Array.iter
        (fun per_lane ->
          Array.iteri
            (fun l bindings ->
              List.iter
                (fun (name, v) ->
                  Sim.set_input_lane batch l name v;
                  List.iter
                    (fun (_, sims) -> sims.(l).set_input name v)
                    replays)
                bindings)
            per_lane;
          Sim.settle batch;
          List.iter
            (fun (_, sims) -> Array.iter (fun s -> s.settle ()) sims)
            replays;
          Array.iter
            (fun node ->
              for l = 0 to lanes - 1 do
                let bv = Sim.peek_lane batch l node in
                List.iter
                  (fun (what, sims) ->
                    let sv = sims.(l).peek node in
                    if bv <> sv then begin
                      incr batch_violations;
                      Printf.printf
                        "BATCH FAIL at netlist %d lane %d (vs %s): node #%d: \
                         %d <> %d\n"
                        i l what node.Signal.id bv sv
                    end)
                  replays
              done)
            (Circuit.nodes circuit);
          Sim.latch batch;
          List.iter
            (fun (_, sims) -> Array.iter (fun s -> s.latch ()) sims)
            replays)
        stimulus
  done;
  Printf.printf
    "fuzz batch oracle: %d netlists, %d lanes vs tape and reference, %d \
     violations\n"
    !batch_checked lanes !batch_violations;
  (* phase 5: perf-model statistics and enumeration oracles *)
  let stats_checked = ref 0 and evals_checked = ref 0 in
  let spaces_checked = ref 0 in
  let stats_violations = ref 0 in
  let outcome f =
    match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
  in
  let disagree i what ~rows ~cols d =
    incr stats_violations;
    Format.printf "PERF FAIL at case %d (%s, %dx%d):@.%a@." i what rows cols
      Design.pp_report d
  in
  let exec_checked = ref 0 and exec_wide_mismatches = ref 0 in
  let classified = ref 0 and refusals = ref 0 in
  let classifier_mismatches = ref 0 in
  let ranked = ref 0 and rank_refusals = ref 0 and rank_wrong = ref 0 in
  let payloads = ref 0 and payloads_answered = ref 0 in
  let payload_disagreements = ref 0 in
  for i = 1 to iterations do
    (* the classifier case draws from its own generator, so the phase's
       other draws stay as they were *)
    (match
       Oracle.check_classifier
         (Oracle.classifier_case (Random.State.make [| seed; 6; i |]))
     with
     | Oracle.Agree _ -> incr classified
     | Oracle.Refused -> incr refusals
     | Oracle.Unchecked -> ()
     | Oracle.Mismatch msg ->
       incr classifier_mismatches;
       Printf.printf "CLASSIFIER FAIL at case %d: %s\n" i msg);
    (* so does the boundary matrix *)
    (match
       Oracle.check_rank
         (Oracle.boundary_matrix (Random.State.make [| seed; 7; i |]))
     with
     | Oracle.Det_agree -> incr ranked
     | Oracle.Det_refused -> incr rank_refusals
     | Oracle.Det_unchecked -> ()
     | Oracle.Det_wrong msg ->
       incr rank_wrong;
       Printf.printf "TRANSFORM FAIL at case %d: %s\n" i msg);
    (* and so does the damaged store payload *)
    let payload = Oracle.payload_case (Random.State.make [| seed; 8; i |]) in
    incr payloads;
    (match Oracle.check_payload payload with
     | Oracle.Answered -> incr payloads_answered
     | Oracle.Rejected -> ()
     | Oracle.Disagree msg ->
       incr payload_disagreements;
       Printf.printf "PAYLOAD FAIL at case %d: %s on %S\n" i msg payload);
    let stmt = random_stmt ~sums:true rng in
    (* full-width data from the case's own generator, so the products and
       sums wrap and the phase's draws stay as they were *)
    let data = Random.State.make [| seed; 5; i |] in
    let wide _ =
      Random.State.bits data lxor (Random.State.bits data lsl 30)
      lxor (Random.State.bits data lsl 60)
    in
    let env =
      List.map (fun (n, t) -> (n, Dense.map wide t)) (Exec.alloc_inputs stmt)
    in
    let m, report =
      exec_vs_oracle ~what:(Printf.sprintf "case %d" i) stmt env
    in
    incr exec_checked;
    exec_wide_mismatches := !exec_wide_mismatches + m;
    print_string report;
    let d = Design.analyze (random_transform rng stmt) in
    let rows = 2 + Random.State.int rng 8 in
    let cols = 2 + Random.State.int rng 8 in
    (match Schedule.v d ~rows ~cols with
     | exception Schedule.Unsupported _ -> ()
     | sched ->
       incr stats_checked;
       let fast = outcome (fun () -> Perf.tile_statistics sched) in
       let reference = outcome (fun () -> Oracle.tile_statistics sched) in
       if fast <> reference then disagree i "tile stats" ~rows ~cols d);
    if i mod 10 = 0 then begin
      incr evals_checked;
      let config = { Perf.default_config with Perf.rows; cols } in
      let fast = outcome (fun () -> Perf.evaluate ~config d) in
      let reference = outcome (fun () -> Oracle.evaluate_reference ~config d) in
      if fast <> reference then disagree i "evaluate" ~rows ~cols d;
      (* the one classification sweep against the per-candidate
         enumeration it replaced: same points, signatures and matrices,
         in order *)
      incr spaces_checked;
      let space pts =
        List.map
          (fun (p : Enumerate.point) ->
            ( p.Enumerate.signature,
              p.Enumerate.design.Design.transform.Transform.imatrix ))
          pts
      in
      if
        space (Enumerate.design_space stmt)
        <> space (Oracle.design_space stmt)
      then begin
        incr stats_violations;
        Printf.printf "ENUMERATE FAIL at case %d: %s\n" i
          (Signature.stmt_fingerprint stmt)
      end
    end
  done;
  Printf.printf
    "fuzz perf oracle: %d tile stats, %d evaluations and %d design spaces vs \
     the reference, %d violations; executor: %d statements with wide data \
     vs the oracle, %d mismatches\n"
    !stats_checked !evals_checked !spaces_checked !stats_violations
    !exec_checked !exec_wide_mismatches;
  Printf.printf
    "classifier: %d designs vs the rational reference, %d refusals, %d \
     mismatches\n"
    !classified !refusals !classifier_mismatches;
  Printf.printf
    "transform: %d matrices vs the rational determinant, %d refusals, %d \
     wrong verdicts\n"
    !ranked !rank_refusals !rank_wrong;
  Printf.printf
    "payload: %d payloads vs the line-splitting reference, %d answered, %d \
     disagreements\n"
    !payloads !payloads_answered !payload_disagreements;
  if
    !failed > 0 || exec_mismatches + !exec_wide_mismatches > 0
    || !classifier_mismatches > 0 || !rank_wrong > 0
    || !payload_disagreements > 0
    || stream_violations > 0 || pruning_violations > 0
    || !violations > 0
    || !absint_violations > 0
    || !batch_violations > 0 || !stats_violations > 0
  then exit 1
